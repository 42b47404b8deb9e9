//! Regenerates the paper's figures/claims as Markdown tables, and records
//! the solve-time trajectory in `BENCH_lp.json`.
//!
//! Usage: `experiments [--no-json] [--expect-demotions]
//! [--trace-out PATH] [e1 e5 ...]` — no experiment ids runs everything.
//! An unknown flag or experiment id prints the usage and exits 2 before
//! anything runs.
//! `--trace-out PATH` arms solve-pipeline tracing (`abt_core::obs`) and
//! writes the flight-recorder JSONL dump to `PATH` when the run finishes.
//! Unless `--no-json` is given, the run writes `BENCH_lp.json`
//! (path overridable via the `BENCH_LP_PATH` environment variable) in the
//! `abt-bench/lp-v3` schema (see [`abt_bench::bench_record`]): for every
//! experiment that ran, its wall time, its own headline numbers, and the
//! [`abt_core::obs::metrics::window`] delta of every registered metric
//! over its run — plus a dedicated `lp_simplex` measurement:
//! `solve_active_lp` on a `random_active_feasible` instance (n = 1000,
//! g = 4) under the shipping solver (`vub_implicit`: the VUB-aware revised
//! simplex, no cap rows at all) on the monolithic LP1, with its exact
//! objective, wall time, and deterministic pivot and refactorization
//! counts. CI's `perf-gate` job re-runs this record and checks it against
//! the committed file ([`abt_bench::gate`]).
//!
//! Under the `fault-injection` cargo feature, the run first seeds the
//! failpoint registry from the `ABT_FAULTPOINTS` environment variable
//! (see [`abt_core::faultinject`]), and `--expect-demotions` turns the run
//! into a smoke assertion: it exits nonzero unless the supervision ladder
//! recorded at least one demotion (any `*.demotions` metric) and **zero**
//! quarantines (any `*.quarantined` metric) — i.e. the injected faults
//! actually fired and were all absorbed below the quarantine line, with
//! every exact objective intact.

use abt_active::{lp_telemetry, solve_active_lp_with, DecomposeMode, LpOptions};
use abt_bench::bench_record::{BenchRecord, ExperimentRecord, LpSimplexRecord};
use abt_bench::experiments;
use abt_bench::time_best_ms;
use abt_core::obs;
use abt_workloads::{random_active_feasible, RandomConfig};

const USAGE: &str =
    "usage: experiments [--no-json] [--expect-demotions] [--trace-out PATH] [e1 .. e25]";

/// Prints `msg` and the usage, then exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("experiments: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The headline measurement: the shipping solver (`vub_implicit` — the
/// VUB-aware revised simplex under the supervision ladder, default
/// pricing and certification) on the n = 1000 `random_active_feasible`
/// LP1, solved **monolithically** so one large basis carries the whole
/// solve: its exact objective, best-of-3 wall time, and the deterministic
/// solve effort (pivots and LU refactorizations) of one solve, which CI
/// gates against the committed record. The sharded shipping default is
/// measured by `e19`; its sharding gain by `e21`.
fn lp_simplex_record() -> LpSimplexRecord {
    let cfg = RandomConfig {
        n: 1000,
        g: 4,
        horizon: 2000,
        max_len: 5,
        slack_factor: 1.0,
    };
    let inst = random_active_feasible(&cfg, 7);
    let opts = LpOptions::default().decompose(DecomposeMode::Off);
    const REPS: u64 = 3;
    let before = lp_telemetry();
    let (candidate_ms, lp) = time_best_ms(REPS as usize, || {
        solve_active_lp_with(&inst, &opts).expect("feasible by construction")
    });
    // Every rep does the same deterministic work.
    let effort = lp_telemetry().delta(&before);
    LpSimplexRecord {
        n: cfg.n as u64,
        g: cfg.g as u64,
        horizon: cfg.horizon,
        seed: 7,
        objective: lp.objective.to_string(),
        candidate: "vub_implicit".into(),
        candidate_ms,
        pivots: effort.pivots / REPS,
        refactorizations: effort.refactorizations / REPS,
        fallback: effort.fallbacks > 0,
    }
}

fn write_bench_json(experiments: Vec<ExperimentRecord>) {
    let path = std::env::var("BENCH_LP_PATH").unwrap_or_else(|_| "BENCH_lp.json".to_string());
    let record = BenchRecord {
        lp_simplex: lp_simplex_record(),
        experiments,
    };
    match std::fs::write(&path, record.to_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    #[cfg(feature = "fault-injection")]
    {
        abt_core::faultinject::configure_from_env();
        if std::env::var_os("ABT_FAULTPOINTS").is_some() {
            // Injected panics are expected by the thousands in a smoke
            // run; printing each backtrace would drown the CI log. Real
            // (non-injected) panics still print.
            std::panic::set_hook(Box::new(|info| {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if !msg.contains("faultinject:") {
                    eprintln!("{info}");
                }
            }));
        }
    }
    let mut write_json = true;
    let mut expect_demotions = false;
    let mut trace_out = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-json" => write_json = false,
            "--expect-demotions" => expect_demotions = true,
            "--trace-out" => {
                let path = args.next();
                trace_out = Some(path.unwrap_or_else(|| usage_error("--trace-out needs a path")));
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            _ => selected.push(a),
        }
    }
    type ExperimentFn = fn() -> experiments::ExperimentReport;
    let fns: Vec<(&str, ExperimentFn)> = vec![
        ("e1", experiments::e1),
        ("e2", experiments::e2),
        ("e3", experiments::e3),
        ("e4", experiments::e4),
        ("e5", experiments::e5),
        ("e6", experiments::e6),
        ("e7", experiments::e7),
        ("e8", experiments::e8),
        ("e9", experiments::e9),
        ("e10", experiments::e10),
        ("e11", experiments::e11),
        ("e12", experiments::e12),
        ("e13", experiments::e13),
        ("e14", experiments::e14),
        ("e15", experiments::e15),
        ("e16", experiments::e16),
        ("e17", experiments::e17),
        ("e18", experiments::e18),
        ("e19", experiments::e19),
        ("e20", experiments::e20),
        ("e21", experiments::e21),
        ("e22", experiments::e22),
        ("e23", experiments::e23),
        ("e24", experiments::e24),
        ("e25", experiments::e25),
    ];
    if let Some(id) = selected.iter().find(|s| !fns.iter().any(|(id, _)| id == s)) {
        usage_error(&format!("unknown experiment id {id}; available: e1..e25"));
    }
    if trace_out.is_some() {
        obs::set_tracing(true);
    }
    let mut records: Vec<ExperimentRecord> = Vec::new();
    for (id, f) in fns {
        if selected.is_empty() || selected.iter().any(|s| s == id) {
            let window = obs::metrics::window();
            let started = std::time::Instant::now();
            let report = f();
            let elapsed = started.elapsed();
            let metrics = window.close();
            println!("{}", report.to_markdown());
            println!("_(regenerated in {elapsed:.2?})_\n");
            records.push(ExperimentRecord {
                id: id.to_string(),
                wall_ms: elapsed.as_secs_f64() * 1e3,
                speedup: report.speedup,
                busy_algos: report.busy,
                metrics: metrics.into_iter().map(|(k, v)| (k, v as f64)).collect(),
            });
        }
    }
    if expect_demotions {
        let total = |suffix: &str| -> f64 {
            let named = records.iter().flat_map(|r| &r.metrics);
            named
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        let (demotions, quarantined) = (total(".demotions"), total(".quarantined"));
        if demotions == 0.0 {
            eprintln!("--expect-demotions: no supervision-ladder demotions recorded — the configured faults never fired");
            std::process::exit(1);
        }
        if quarantined > 0.0 {
            eprintln!("--expect-demotions: {quarantined} components quarantined — injected faults must demote, never quarantine");
            std::process::exit(1);
        }
        eprintln!("--expect-demotions: {demotions} demotions, 0 quarantines — all injected faults absorbed");
    }
    if write_json {
        write_bench_json(records);
    }
    if let Some(path) = trace_out {
        match obs::dump_to_file(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("wrote flight-recorder dump {path}"),
            Err(e) => {
                eprintln!("could not write flight-recorder dump {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
