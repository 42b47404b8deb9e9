//! CI perf/fallback gate over `BENCH_lp.json`.
//!
//! Usage: `perf_gate <committed.json> <fresh.json> [--max-effort-ratio R]
//! [--min-interval-accept-rate R] [--max-certify-ratio R]
//! [--max-busy-ratio R] [--max-p99-ratio R]`
//!
//! Parses both records (`abt-bench/lp-v3`, or a committed
//! `abt-bench/lp-v2`) and applies [`abt_bench::gate::check`], whose
//! module docs list every rule and the metric names it reads. Exits 1 on
//! any failure, 2 on bad usage or an unreadable record.

use abt_bench::bench_record::BenchRecord;
use abt_bench::gate::{check, Limits};

const USAGE: &str = "usage: perf_gate <committed.json> <fresh.json> [--max-effort-ratio R] [--min-interval-accept-rate R] [--max-certify-ratio R] [--max-busy-ratio R] [--max-p99-ratio R]";

fn load(path: &str) -> BenchRecord {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    BenchRecord::from_json(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut limits = Limits::default();
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--max-effort-ratio" => &mut limits.max_effort_ratio,
            "--min-interval-accept-rate" => &mut limits.min_interval_accept_rate,
            "--max-certify-ratio" => &mut limits.max_certify_ratio,
            "--max-busy-ratio" => &mut limits.max_busy_ratio,
            "--max-p99-ratio" => &mut limits.max_p99_ratio,
            _ => {
                paths.push(a);
                continue;
            }
        };
        let v = it.next().unwrap_or_else(|| {
            eprintln!("perf_gate: {a} needs a value");
            std::process::exit(2);
        });
        *slot = v.parse().unwrap_or_else(|e| {
            eprintln!("perf_gate: bad ratio {v:?}: {e}");
            std::process::exit(2);
        });
    }
    let [committed_path, fresh_path] = paths[..] else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let committed = load(committed_path);
    let fresh = load(fresh_path);
    let failures = check(&committed, &fresh, &limits);
    let (c, f) = (&committed.lp_simplex, &fresh.lp_simplex);
    println!(
        "perf_gate: objective {} (committed {}), pivots {} (committed {}), refactorizations {} (committed {}), {} experiments checked",
        f.objective,
        c.objective,
        f.pivots,
        c.pivots,
        f.refactorizations,
        c.refactorizations,
        fresh.experiments.len()
    );
    if failures.is_empty() {
        println!("perf_gate: PASS");
    } else {
        for msg in &failures {
            eprintln!("perf_gate: FAIL: {msg}");
        }
        std::process::exit(1);
    }
}
