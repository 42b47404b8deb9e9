//! The `experiments` binary refuses a mistyped flag or experiment id
//! before running anything: a silently ignored flag would turn a CI
//! assertion such as `--expect-demotions` into a no-op.

use std::process::Command;

#[test]
fn unknown_flags_and_ids_exit_2_with_usage_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("abt-experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("BENCH_lp.json");
    for args in [
        &["--expect-demotion", "e1"][..],
        &["--no-jsn", "e1"],
        &["e1", "e99"],
        &["--trace-out"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .env("BENCH_LP_PATH", &json)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        assert!(!json.exists(), "{args:?} wrote {}", json.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
