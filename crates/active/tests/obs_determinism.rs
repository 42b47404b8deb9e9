//! Determinism of the observability layer over the solve pipeline:
//! identical solves must produce identical span trees (names, parent
//! linkage, structured fields — everything except wall-clock timings)
//! and identical `lp.pivots_per_solve` histogram bucket deltas, whether
//! tracing is armed or not. A divergence here means observability is
//! perturbing solver decisions — the one thing it must never do.
//!
//! This file holds a single test: the flight recorder is process-global,
//! so the test owns the whole binary to keep the ring free of interleaved
//! entries from unrelated tests.

use abt_active::{solve_active_lp_with, LpOptions};
use abt_core::obs;
use abt_core::Instance;

/// Three well-separated clusters — a sharded solve whose components run
/// under `parallel_map`, so thread interleaving in the recorder is real
/// and the comparison must be order-insensitive.
fn striped_instance() -> Instance {
    let mut triples = Vec::new();
    for c in 0..3i64 {
        let base = 100 * c;
        triples.push((base, base + 6, 3));
        triples.push((base + 1, base + 5, 2));
        triples.push((base + 2, base + 6, 3));
    }
    Instance::from_triples(triples, 2).unwrap()
}

/// One span/event reduced to its deterministic parts: name, parent span
/// *name* (ids differ across runs; the tree shape must not), and the
/// structured fields (pivot counts, component sizes, certify outcomes —
/// all deterministic per instance).
type Skeleton = Vec<(String, String, Vec<(String, String)>)>;

fn skeleton(entries: &[obs::TraceEntry]) -> Skeleton {
    let name_of: std::collections::BTreeMap<u64, &str> = entries
        .iter()
        .filter(|e| e.span != 0)
        .map(|e| (e.span, e.name))
        .collect();
    let mut out: Skeleton = entries
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                name_of.get(&e.parent).unwrap_or(&"root").to_string(),
                e.fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn identical_solves_trace_identically_and_tracing_never_perturbs_pivots() {
    let inst = striped_instance();
    let pivots_per_solve = obs::histogram("lp.pivots_per_solve");
    let solve = || {
        let before = pivots_per_solve.snapshot();
        let lp = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
        (lp.objective, pivots_per_solve.snapshot().delta(&before))
    };

    // Baseline with tracing disarmed: the pivot distribution to beat.
    let (obj_off, buckets_off) = solve();

    obs::set_tracing(true);
    obs::recorder::clear();
    let (obj_a, buckets_a) = solve();
    let run_a = skeleton(&obs::recorder::entries());

    obs::recorder::clear();
    let (obj_b, buckets_b) = solve();
    let run_b = skeleton(&obs::recorder::entries());
    obs::set_tracing(false);

    // Identical solves → identical span trees and bucket counts.
    assert_eq!(obj_a, obj_b);
    assert!(!run_a.is_empty(), "armed tracing must record the pipeline");
    assert_eq!(run_a, run_b, "span skeletons must be bit-identical");
    assert_eq!(buckets_a.counts(), buckets_b.counts());

    // Tracing must not perturb solver decisions: pivot counts (and the
    // objective) are bit-identical with the recorder armed or not.
    assert_eq!(obj_off, obj_a);
    assert_eq!(buckets_off.counts(), buckets_a.counts());

    // The skeleton covers the full pipeline phase taxonomy.
    for phase in [
        "solve.decompose",
        "solve.pivot",
        "solve.certify",
        "solve.stitch",
    ] {
        assert!(
            run_a.iter().any(|(name, _, _)| name == phase),
            "missing {phase} span in {run_a:?}"
        );
    }
}
