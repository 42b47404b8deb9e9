//! Whole-request benchmark of the active/busy-time pipeline.
//!
//! ```text
//! abt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! abt-perfbench --self-test
//! ```
//!
//! One client drives the chosen workload in a closed loop: the next
//! request starts when the previous one has returned and been checked.
//! Every request passes every correctness check; a panic, an error or a
//! failed check counts as a failed request. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1` (see `BENCHMARK.json`).

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use trace::Tracer;
use workloads::{Counts, Outcome, Workload};

/// Times a run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Each set-up warms up on this share of a pass (its first requests).
const WARMUP_DIVISOR: usize = 20;
/// Spans written to the JSONL file at most (all are kept in memory).
const JSONL_SPANS: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    let code = match parse_args() {
        Ok(Some(args)) => run(&args),
        Ok(None) => self_test(),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// What the closed loop saw.
struct Loop {
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    seconds: f64,
    /// Counts over the first pass: the same requests for the same seed.
    counts: Counts,
    /// Peak RSS when the first pass ended, MiB. Later passes repeat the
    /// same inputs, so they only add allocator drift that depends on how
    /// many passes the machine's speed allowed.
    first_pass_rss_mb: f64,
    first_error: Option<String>,
}

/// Runs requests until `seconds` have passed and at least one full pass
/// is done, or until `max_requests` have run.
fn drive(w: &mut dyn Workload, t: &mut Tracer, seconds: f64, max_requests: usize) -> Loop {
    let pass = w.pass_len();
    let mut out = Loop {
        latencies_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        refused: 0,
        seconds: 0.0,
        counts: Counts::default(),
        first_pass_rss_mb: 0.0,
        first_error: None,
    };
    let mut later = Counts::default();
    let start = Instant::now();
    let mut k = 0usize;
    while k < max_requests && (k < pass || start.elapsed().as_secs_f64() < seconds) {
        let counts = if k < pass {
            &mut out.counts
        } else {
            &mut later
        };
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            t.request(k as u64, |t| w.run(k % pass, t, counts))
        }));
        out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        out.attempted += 1;
        let error = match result {
            Ok(Ok(Outcome::Certified)) => None,
            Ok(Ok(Outcome::Refused)) => {
                out.refused += 1;
                None
            }
            Ok(Err(e)) => Some(e),
            Err(_) => {
                t.unwind();
                Some("request panicked".to_string())
            }
        };
        if let Some(e) = error {
            out.failed += 1;
            out.first_error.get_or_insert(format!("request {k}: {e}"));
        }
        k += 1;
        if k == pass {
            out.first_pass_rss_mb = peak_rss_mb();
        }
    }
    out.seconds = start.elapsed().as_secs_f64();
    out
}

/// Nearest-rank percentile of an unsorted sample, in milliseconds.
fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up, timed: generate the inputs from the seed and warm up.
fn setup(name: &str, seed: u64) -> (Box<dyn Workload>, f64) {
    let t0 = Instant::now();
    let mut w = workloads::build(name, seed).expect("name checked by the caller");
    let mut off = Tracer::new(false);
    let mut scratch = Counts::default();
    for k in 0..(w.pass_len() / WARMUP_DIVISOR).max(1) {
        let _ = catch_unwind(AssertUnwindSafe(|| w.run(k, &mut off, &mut scratch)));
    }
    (w, t0.elapsed().as_secs_f64())
}

/// The per-layer metric a span's self time reports under.
fn layer_metric(span: &str) -> String {
    if span.contains('.') {
        format!("{span}_ms")
    } else {
        format!("{span}.ms")
    }
}

/// Spans the benchmark wraps around public calls; each has a metric.
const LAYER_SPANS: [&str; 13] = [
    "io.read_instance",
    "admission.precheck",
    "lp_model.solve",
    "right_shift",
    "rounding",
    "active_schedule.validate",
    "incremental.mutate",
    "incremental.solve",
    "span.place",
    "greedy_tracking",
    "busy_lp.solve",
    "busy_schedule.validate",
    "harness.check",
];

/// The program's own always-on span rollups reported per request.
const ROLLUPS: [(&str, &str); 4] = [
    ("solve.pivot", "lp_model.pivot_ms"),
    ("solve.certify", "lp_model.certify_ms"),
    ("solve.decompose", "lp_model.decompose_ms"),
    ("solve.stitch", "lp_model.stitch_ms"),
];

/// First-pass counts reported as they are.
const COUNTS: [&str; 14] = [
    "admission.rejects",
    "lp_model.pivots",
    "lp_model.refactorizations",
    "lp_model.bound_flips",
    "lp_model.components",
    "lp_model.interval_escalations",
    "lp_model.demotions",
    "lp_model.fallbacks",
    "rounding.repair_slots",
    "rounding.anomalies",
    "incremental.cold_solves",
    "incremental.pivots",
    "busy_lp.pivots",
    "busy_lp.demotions",
];

fn rollup_nanos() -> BTreeMap<String, u64> {
    abt_core::obs::span_rollups()
        .into_iter()
        .map(|(name, _, nanos)| (name, nanos))
        .collect()
}

fn run(args: &Args) -> i32 {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!(
            "error: unknown workload {} (expected one of {:?})",
            args.workload,
            workloads::NAMES
        );
        return 2;
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let (w, s) = setup(&args.workload, args.seed);
        setups.push(s);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let mut tracer = Tracer::new(args.trace);
    let rollups_before = rollup_nanos();
    let looped = drive(w.as_mut(), &mut tracer, args.seconds, usize::MAX);
    let rollups_after = rollup_nanos();

    let ok = looped.attempted - looped.failed;
    let mut lat = looped.latencies_ns;
    lat.sort_unstable();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let st = tracer.self_times();
        let per_req = |ns: u64| ns as f64 / 1e6 / st.requests.max(1) as f64;
        for span in LAYER_SPANS {
            let ns = st.by_name.get(span).copied().unwrap_or(0);
            metrics.push((layer_metric(span), per_req(ns), "ms"));
        }
        let unattributed = st.by_name.get("request").copied().unwrap_or(0);
        metrics.push((
            "harness.unattributed_ms".into(),
            per_req(unattributed),
            "ms",
        ));
        metrics.push(("harness.request_ms".into(), per_req(st.request_ns), "ms"));
        metrics.push((
            "harness.traced_requests_per_s".into(),
            ok as f64 / looped.seconds,
            "1/s",
        ));
        for (span, name) in ROLLUPS {
            let after = rollups_after.get(span).copied().unwrap_or(0);
            let before = rollups_before.get(span).copied().unwrap_or(0);
            metrics.push((name.into(), per_req(after - before), "ms"));
        }
        let c = &looped.counts;
        for name in COUNTS {
            metrics.push((name.into(), c.get(name) as f64, "count"));
        }
        let ratio = |num: &str, den: &str| match c.get(den) {
            0 => 0.0,
            d => c.get(num) as f64 / d as f64,
        };
        metrics.push((
            "incremental.reuse_ratio".into(),
            ratio("incremental.reused", "incremental.components"),
            "ratio",
        ));
        metrics.push((
            "incremental.warm_hit_ratio".into(),
            ratio("incremental.warm_hits", "incremental.warm_attempts"),
            "ratio",
        ));
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&out, JSONL_SPANS) {
            eprintln!("error: writing {}: {e}", out.display());
            return 1;
        }
        eprintln!(
            "trace: {} requests, first {JSONL_SPANS} spans in {}; unattributed {:.2}% of traced request time",
            st.requests,
            out.display(),
            100.0 * unattributed as f64 / st.request_ns.max(1) as f64
        );
    } else {
        metrics.push(("requests_per_s".into(), ok as f64 / looped.seconds, "1/s"));
        metrics.push(("latency_p50_ms".into(), percentile_ms(&lat, 0.5), "ms"));
        metrics.push(("latency_p90_ms".into(), percentile_ms(&lat, 0.9), "ms"));
        metrics.push((
            "certified_frac".into(),
            ok as f64 / looped.attempted.max(1) as f64,
            "ratio",
        ));
        let c = &looped.counts;
        metrics.push((
            "cost_ratio".into(),
            c.ratio_sum / c.ratio_n.max(1) as f64,
            "ratio",
        ));
        metrics.push(("setup_s".into(), median(setups), "s"));
        metrics.push(("peak_rss_mb".into(), looped.first_pass_rss_mb, "MiB"));
    }

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "{}: seed {} · {} requests in {:.2} s ({} correctly refused, {} failed, failed_frac {}) · \
         1 closed-loop client · {} requests per pass · {} samples beyond p90 · \
         available_parallelism {threads}",
        args.workload,
        args.seed,
        looped.attempted,
        looped.seconds,
        looped.refused,
        looped.failed,
        looped.failed as f64 / looped.attempted.max(1) as f64,
        w.pass_len(),
        looped.attempted - (0.9 * looped.attempted as f64).ceil() as u64,
    );
    if let Some(e) = &looped.first_error {
        eprintln!("first failure: {e}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        looped.failed == 0,
        looped.attempted,
        looped.failed,
        body.join(", ")
    );
    0
}

// ---------------------------------------------------------------------------
// Self-test.
// ---------------------------------------------------------------------------

/// Counts that must repeat exactly across runs with the same seed.
const DETERMINISTIC: [&str; 5] = [
    "lp_model.pivots",
    "lp_model.refactorizations",
    "incremental.cold_solves",
    "incremental.reuse_ratio",
    "busy_lp.pivots",
];

/// Runs this binary on a workload and returns its metrics by name.
fn child_metrics(workload: &str, seed: u64, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    if !last.contains("\"failed\": 0,") {
        return Err(format!("{workload} run had failures: {last}"));
    }
    // The line is this program's own output: `"name": {"value": v, ...`.
    let mut metrics = BTreeMap::new();
    let mut rest = last;
    const KEY: &str = ": {\"value\": ";
    while let Some(i) = rest.find(KEY) {
        let name = rest[..i].rsplit('"').nth(1).ok_or("unparsable name")?;
        rest = &rest[i + KEY.len()..];
        let value: f64 = rest
            .split(',')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or("unparsable value")?;
        metrics.insert(name.to_string(), value);
    }
    Ok(metrics)
}

fn self_test() -> i32 {
    let mut failures = Vec::new();
    for name in workloads::NAMES {
        // A corrupted output must be caught by the checker.
        let mut w = workloads::build(name, 1).expect("known workload");
        w.corrupt_outputs();
        let n = w.pass_len().min(5);
        let looped = drive(w.as_mut(), &mut Tracer::new(false), 0.0, n);
        let frac = looped.failed as f64 / looped.attempted as f64;
        println!("{name}: corrupted outputs give failed_frac {frac}");
        if looped.failed == 0 {
            failures.push(format!("{name}: corrupted outputs passed the checks"));
        }

        // Same seed, same counts; the traced run's throughput vs untraced.
        let runs: Result<Vec<_>, String> = [true, true, false, false]
            .into_iter()
            .map(|trace| child_metrics(name, 7, trace))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        for key in DETERMINISTIC {
            if runs[0].get(key) != runs[1].get(key) {
                failures.push(format!(
                    "{name}: {key} differs between runs: {:?} vs {:?}",
                    runs[0].get(key),
                    runs[1].get(key)
                ));
            }
        }
        if runs[2].get("cost_ratio") != runs[3].get("cost_ratio") {
            failures.push(format!("{name}: cost_ratio differs between runs"));
        }
        let traced = runs[0]["harness.traced_requests_per_s"];
        let untraced = runs[2]["requests_per_s"];
        println!(
            "{name}: counts compared; traced {traced:.1} vs untraced {untraced:.1} requests/s \
             (tracing overhead {:+.1}%)",
            100.0 * (untraced / traced - 1.0)
        );
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    if failures.is_empty() {
        println!("self-test passed");
        0
    } else {
        1
    }
}
