//! `abt solve` on a huge horizon: the 40-job probe-family instance with
//! every coordinate scaled by 10^9 (about 1.2e12 slots). LP1 is solved on
//! the coalesced runs and the CLI reads the solution per run, so the
//! command prints the exact optimum in bounded memory instead of
//! materializing one value per slot.

use std::process::Command;

#[test]
fn solve_prints_the_exact_optimum_of_the_1e9_scaled_probe() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/probe40_1e9.txt"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_abt"))
        .args(["solve", fixture])
        .output()
        .expect("spawn abt solve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "abt solve failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The unscaled probe's optimum is 513; LP1 scales exactly.
    assert!(
        stdout.lines().any(|l| l == "LP1 optimum: 513000000000"),
        "{stdout}"
    );
    let open = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fractionally open slots: "))
        .unwrap_or_else(|| panic!("no open-slot line in:\n{stdout}"));
    assert!(open.ends_with(" of 1206000000000"), "{open}");
}
