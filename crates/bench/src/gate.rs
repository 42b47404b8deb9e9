//! The perf gate: the rules CI applies to a fresh `BENCH_lp.json` record
//! against the committed one ([`check`]; the `perf_gate` binary parses
//! flags and prints).
//!
//! Experiment rules read metrics by name ([`ExperimentRecord::metric`],
//! naming rule in [`crate::bench_record`]). A rule over committed and
//! fresh values runs only on rows present in both records.
//!
//! | rule | reads | rows | fails when |
//! |---|---|---|---|
//! | objective | `lp_simplex.objective` | headline | the exact optimum changed |
//! | candidate | `lp_simplex.candidate` | headline | the gated configuration changed |
//! | headline effort | `lp_simplex.pivots`, `.refactorizations` | headline | fresh > `max_effort_ratio` × committed (skipped when committed is 0) |
//! | headline fallback | `lp_simplex.fallback` | headline | the candidate solve needed the exact fallback |
//! | no fallback | `lp.fallbacks + busy.lp.fallbacks` | all fresh | nonzero |
//! | no quarantine | `lp.quarantined + busy.lp.quarantined` | all fresh | nonzero |
//! | corruption absorbed | `lp.state_corrupt`, `lp.recoveries` | all fresh | corruptions exceed recoveries |
//! | solve effort | `lp.pivots`, `lp.refactorizations` | `e20`–`e22` | fresh > `max_effort_ratio` × committed |
//! | interval accept rate | `lp.interval_accepts`, `lp.interval_escalations` | fresh `e21`/`e22` | accepts / (accepts + escalations) < `min_interval_accept_rate` (skipped when both are 0) |
//! | certify time | `lp.certify_nanos` | `e19`/`e22` | fresh > `max_certify_ratio` × committed (skipped when committed is 0) |
//! | tail latency | `lp.solve_latency_us_p99` | `e19`/`e21`/`e22` | fresh > `max_p99_ratio` × committed (skipped when committed is 0) |
//! | busy ratios | `busy_algos` | `e24`/`e25` | an algorithm's fresh ratio > `max_busy_ratio` × committed, or a committed algorithm is missing |
//!
//! Why these rules:
//!
//! * Every current workload is non-adversarial and fault-free, so any
//!   exact fallback or quarantine is a regression.
//! * `e23` corrupts persisted state on purpose, but every detection must
//!   be matched by a completed recovery (cold rebuild); an excess means
//!   the absorption path died, the one durability failure that could cost
//!   answers.
//! * Pivot and refactorization counts are deterministic per instance and
//!   machine-independent, so any excess is algorithmic: a broken glue-eta
//!   path (`e20` refactorizations), a wrong component split (`e21`
//!   pivots), a snapshot install that silently re-solves cold (`e22`
//!   pivots).
//! * The interval certification tier should discharge nearly every
//!   dual-feasibility proof on the sweep workloads; a collapse means every
//!   solve silently pays for both tiers.
//! * Certification time and p99 latency are the only gated timings, with
//!   loose bounds: a broken interval tier or a lost warm path multiplies
//!   them well past machine noise and histogram bucket quantization.
//! * Busy costs are exact integers on seeded streams, so the ratios are
//!   bit-deterministic and any excess is an approximation regression.

use crate::bench_record::{BenchRecord, ExperimentRecord};

/// The gate's bounds (the `perf_gate` flags of the same names).
#[derive(Debug, Clone)]
pub struct Limits {
    /// `--max-effort-ratio`: headline and `e20`–`e22` pivots and
    /// refactorizations.
    pub max_effort_ratio: f64,
    /// `--min-interval-accept-rate`: `e21`/`e22` interval accept rate.
    pub min_interval_accept_rate: f64,
    /// `--max-certify-ratio`: `e19`/`e22` certification time.
    pub max_certify_ratio: f64,
    /// `--max-busy-ratio`: `e24`/`e25` per-algorithm busy ratios.
    pub max_busy_ratio: f64,
    /// `--max-p99-ratio`: `e19`/`e21`/`e22` p99 solve latency.
    pub max_p99_ratio: f64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_effort_ratio: 1.3,
            min_interval_accept_rate: 0.9,
            max_certify_ratio: 1.5,
            max_busy_ratio: 1.05,
            max_p99_ratio: 3.0,
        }
    }
}

/// Applies every rule (see the module docs) and returns one message per
/// failure; empty means the fresh record passes.
pub fn check(committed: &BenchRecord, fresh: &BenchRecord, limits: &Limits) -> Vec<String> {
    let mut failures = Vec::new();
    let (c, f) = (&committed.lp_simplex, &fresh.lp_simplex);
    if c.objective != f.objective {
        failures.push(format!(
            "exact objective changed: committed {:?}, fresh {:?}",
            c.objective, f.objective
        ));
    }
    if c.candidate != f.candidate {
        failures.push(format!(
            "gated configuration changed: committed {}, fresh {}",
            c.candidate, f.candidate
        ));
    }
    for (what, committed_n, fresh_n) in [
        ("pivots", c.pivots, f.pivots),
        ("refactorizations", c.refactorizations, f.refactorizations),
    ] {
        let ceiling = committed_n as f64 * limits.max_effort_ratio;
        // A committed 0 is a record predating the fields.
        if committed_n > 0 && fresh_n as f64 > ceiling {
            failures.push(format!(
                "lp_simplex solve effort regressed: fresh {fresh_n} {what} > {ceiling:.0} ({}% of committed {committed_n})",
                (limits.max_effort_ratio * 100.0).round(),
            ));
        }
    }
    if f.fallback {
        failures.push("lp_simplex candidate solve hit the exact fallback".into());
    }

    for e in &fresh.experiments {
        let both =
            |name: &str| e.metric(&format!("lp.{name}")) + e.metric(&format!("busy.lp.{name}"));
        if both("fallbacks") > 0.0 {
            failures.push(format!(
                "experiment {} reports {} exact fallbacks over {} LP solves (must be 0 on non-adversarial workloads)",
                e.id,
                both("fallbacks"),
                both("solves")
            ));
        }
        if both("quarantined") > 0.0 {
            failures.push(format!(
                "experiment {} reports {} quarantined components (must be 0: a fault-free run must never abandon a component)",
                e.id,
                both("quarantined")
            ));
        }
        let (corrupt, recoveries) = (e.metric("lp.state_corrupt"), e.metric("lp.recoveries"));
        if corrupt > recoveries {
            failures.push(format!(
                "experiment {} reports {corrupt} corruption detections but only {recoveries} recoveries (every StateCorrupt must be absorbed by a completed recovery)",
                e.id
            ));
        }
    }

    // (rows, metric, ratio, skip a committed 0: a row predating the
    // metric, or a run that recorded none)
    let (effort, certify, p99) = (
        limits.max_effort_ratio,
        limits.max_certify_ratio,
        limits.max_p99_ratio,
    );
    let ceilings: [(&[&str], &str, f64, bool); 4] = [
        (&["e20", "e21", "e22"], "lp.pivots", effort, false),
        (&["e20", "e21", "e22"], "lp.refactorizations", effort, false),
        (&["e19", "e22"], "lp.certify_nanos", certify, true),
        (&["e19", "e21", "e22"], "lp.solve_latency_us_p99", p99, true),
    ];
    for (ids, name, ratio, skip_unset) in ceilings {
        for &id in ids {
            let (Some(ce), Some(fe)) = (row(committed, id), row(fresh, id)) else {
                continue;
            };
            let (c, f) = (ce.metric(name), fe.metric(name));
            let ceiling = c * ratio;
            if !(skip_unset && c <= 0.0) && f > ceiling {
                failures.push(format!(
                    "{id} {name} regressed: fresh {f} > {ceiling:.0} ({}% of committed {c})",
                    (ratio * 100.0).round(),
                ));
            }
        }
    }
    for id in ["e21", "e22"] {
        let Some(fe) = row(fresh, id) else {
            continue;
        };
        let accepts = fe.metric("lp.interval_accepts");
        let attempts = accepts + fe.metric("lp.interval_escalations");
        // Both 0: an exact-certify run, or a row predating the counters.
        if attempts == 0.0 {
            continue;
        }
        let rate = accepts / attempts;
        if rate < limits.min_interval_accept_rate {
            failures.push(format!(
                "{id} interval accept rate collapsed: {accepts} accepts / {attempts} attempts = {rate:.3} < {}",
                limits.min_interval_accept_rate
            ));
        }
    }
    for id in ["e24", "e25"] {
        let (Some(ce), Some(fe)) = (row(committed, id), row(fresh, id)) else {
            continue;
        };
        for cb in &ce.busy_algos {
            let Some(fb) = fe.busy_algos.iter().find(|b| b.algo == cb.algo) else {
                failures.push(format!(
                    "{id} busy sweep dropped algorithm {}: committed records it, fresh does not",
                    cb.algo
                ));
                continue;
            };
            if cb.ratio <= 0.0 {
                continue; // a row predating the field
            }
            let ceiling = cb.ratio * limits.max_busy_ratio;
            if fb.ratio > ceiling {
                failures.push(format!(
                    "{id} {} approximation ratio regressed: fresh {:.4} > {ceiling:.4} ({}% of committed {:.4})",
                    cb.algo,
                    fb.ratio,
                    (limits.max_busy_ratio * 100.0).round(),
                    cb.ratio
                ));
            }
        }
    }
    failures
}

fn row<'a>(rec: &'a BenchRecord, id: &str) -> Option<&'a ExperimentRecord> {
    rec.experiments.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_record::{BusyAlgoRecord, LpSimplexRecord};
    use std::collections::BTreeMap;

    fn rec_row(id: &str, metrics: &[(&str, f64)], busy: &[(&str, f64)]) -> ExperimentRecord {
        ExperimentRecord {
            id: id.into(),
            wall_ms: 1.0,
            speedup: None,
            busy_algos: busy
                .iter()
                .map(|&(algo, ratio)| BusyAlgoRecord {
                    algo: algo.into(),
                    cost: 100,
                    ratio,
                })
                .collect(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// A record exercising every rule's inputs.
    fn base() -> BenchRecord {
        let effort = [
            ("lp.pivots", 1000.0),
            ("lp.refactorizations", 70.0),
            ("lp.interval_accepts", 90.0),
            ("lp.interval_escalations", 10.0),
            ("lp.certify_nanos", 5e6),
            ("lp.solve_latency_us_p99", 255.0),
        ];
        BenchRecord {
            lp_simplex: LpSimplexRecord {
                n: 1000,
                g: 4,
                horizon: 2000,
                seed: 7,
                objective: "23489/24".into(),
                candidate: "vub_implicit".into(),
                candidate_ms: 600.0,
                pivots: 6159,
                refactorizations: 143,
                fallback: false,
            },
            experiments: vec![
                rec_row("e19", &effort, &[]),
                rec_row("e20", &effort, &[]),
                rec_row("e21", &effort, &[]),
                rec_row("e22", &effort, &[]),
                rec_row(
                    "e23",
                    &[("lp.state_corrupt", 1.0), ("lp.recoveries", 4.0)],
                    &[],
                ),
                rec_row(
                    "e24",
                    &[("busy.lp.solves", 18.0)],
                    &[("LpRounding", 1.7391), ("FirstFit", 1.1739)],
                ),
                rec_row("e25", &[], &[("LpRounding", 1.8673)]),
            ],
        }
    }

    fn set(rec: &mut BenchRecord, id: &str, name: &str, v: f64) {
        let e = rec.experiments.iter_mut().find(|e| e.id == id).unwrap();
        e.metrics.insert(name.to_string(), v);
    }

    /// Gates `fresh` against [`base`] under the default limits.
    fn gate(fresh: &BenchRecord) -> Vec<String> {
        check(&base(), fresh, &Limits::default())
    }

    /// At the bound nothing fires; just past it exactly one message
    /// fires, containing `expect`.
    fn assert_bound(at: BenchRecord, past: BenchRecord, expect: &str) {
        assert_eq!(
            gate(&at),
            Vec::<String>::new(),
            "at the bound of {expect:?}"
        );
        let msgs = gate(&past);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains(expect), "{msgs:?} lacks {expect:?}");
    }

    #[test]
    fn a_record_gated_against_itself_passes() {
        assert_eq!(gate(&base()), Vec::<String>::new());
    }

    #[test]
    fn headline_rules() {
        let mut past = base();
        past.lp_simplex.objective = "23489/25".into();
        assert_bound(base(), past, "exact objective changed");
        let mut past = base();
        past.lp_simplex.candidate = "other".into();
        assert_bound(base(), past, "gated configuration changed");
        let mut past = base();
        past.lp_simplex.fallback = true;
        assert_bound(base(), past, "hit the exact fallback");
        let ratio = Limits::default().max_effort_ratio;
        for field in [0, 1] {
            let mut at = base();
            let mut past = base();
            let (a, p) = match field {
                0 => (&mut at.lp_simplex.pivots, &mut past.lp_simplex.pivots),
                _ => (
                    &mut at.lp_simplex.refactorizations,
                    &mut past.lp_simplex.refactorizations,
                ),
            };
            *a = (*a as f64 * ratio).floor() as u64;
            *p = *a + 1;
            assert_bound(at, past, "lp_simplex solve effort regressed");
        }
    }

    #[test]
    fn every_row_rule() {
        for name in ["lp.fallbacks", "busy.lp.fallbacks"] {
            // Rows no other rule reads are gated too.
            let mut past = base();
            past.experiments.push(rec_row("e3", &[(name, 1.0)], &[]));
            assert_bound(base(), past, "exact fallbacks");
        }
        for name in ["lp.quarantined", "busy.lp.quarantined"] {
            let mut past = base();
            set(&mut past, "e24", name, 1.0);
            assert_bound(base(), past, "quarantined components");
        }
        let mut at = base();
        set(&mut at, "e23", "lp.state_corrupt", 4.0);
        let mut past = base();
        set(&mut past, "e23", "lp.state_corrupt", 5.0);
        assert_bound(at, past, "corruption detections");
    }

    #[test]
    fn ratio_rules_fire_just_past_their_bounds() {
        let l = Limits::default();
        let cases: [(&[&str], &str, f64); 4] = [
            (&["e20", "e21", "e22"], "lp.pivots", l.max_effort_ratio),
            (
                &["e20", "e21", "e22"],
                "lp.refactorizations",
                l.max_effort_ratio,
            ),
            (&["e19", "e22"], "lp.certify_nanos", l.max_certify_ratio),
            (
                &["e19", "e21", "e22"],
                "lp.solve_latency_us_p99",
                l.max_p99_ratio,
            ),
        ];
        for (ids, name, ratio) in cases {
            for id in ids {
                let c = row(&base(), id).unwrap().metric(name);
                let mut at = base();
                set(&mut at, id, name, c * ratio);
                let mut past = base();
                set(&mut past, id, name, c * ratio + 1.0);
                assert_bound(at, past, &format!("{id} {name} regressed"));
            }
        }
        // Rows outside a rule's set are not gated on its metric.
        let mut fresh = base();
        set(&mut fresh, "e19", "lp.pivots", 1e9);
        set(&mut fresh, "e20", "lp.certify_nanos", 1e12);
        assert_eq!(gate(&fresh), Vec::<String>::new());
    }

    #[test]
    fn interval_accept_rate() {
        for id in ["e21", "e22"] {
            // 90 / (90 + 10) is exactly the 0.9 floor.
            let mut past = base();
            set(&mut past, id, "lp.interval_escalations", 11.0);
            assert_bound(
                base(),
                past,
                &format!("{id} interval accept rate collapsed"),
            );
        }
        let mut exact_mode = base();
        set(&mut exact_mode, "e21", "lp.interval_accepts", 0.0);
        set(&mut exact_mode, "e21", "lp.interval_escalations", 0.0);
        assert_eq!(gate(&exact_mode), Vec::<String>::new());
    }

    #[test]
    fn busy_ratio_and_dropped_algorithm() {
        let ratio = Limits::default().max_busy_ratio;
        for id in ["e24", "e25"] {
            let mut at = base();
            let mut past = base();
            for (rec, bump) in [(&mut at, 0.0), (&mut past, 1e-9)] {
                let e = rec.experiments.iter_mut().find(|e| e.id == id).unwrap();
                e.busy_algos[0].ratio = e.busy_algos[0].ratio * ratio + bump;
            }
            assert_bound(
                at,
                past,
                &format!("{id} LpRounding approximation ratio regressed"),
            );
        }
        let mut past = base();
        past.experiments
            .iter_mut()
            .find(|e| e.id == "e24")
            .unwrap()
            .busy_algos
            .pop();
        assert_bound(base(), past, "e24 busy sweep dropped algorithm FirstFit");
    }

    #[test]
    fn a_v3_record_passes_against_the_committed_v2_record() {
        let v2 = BenchRecord::from_json(include_str!("../tests/data/BENCH_lp_v2.json")).unwrap();
        let e19 = row(&v2, "e19").unwrap();
        assert_eq!(e19.metric("lp.pivots"), 8221.0);
        assert_eq!(e19.metric("lp.solve_latency_us_p99"), 8191.0);
        assert_eq!(e19.metric("lp.max_component_vars_max"), 384.0);
        assert!((e19.metric("lp.certify_nanos") - 9.531e6).abs() < 1e-3);
        let v3 = BenchRecord::from_json(&v2.to_json()).unwrap();
        assert_eq!(check(&v2, &v3, &Limits::default()), Vec::<String>::new());
        let mut regressed = v3;
        let e21 = regressed
            .experiments
            .iter_mut()
            .find(|e| e.id == "e21")
            .unwrap();
        e21.metrics.insert("lp.pivots".into(), 31200.0 * 1.3 + 1.0);
        let msgs = check(&v2, &regressed, &Limits::default());
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("e21 lp.pivots regressed"));
    }

    #[test]
    fn a_metric_first_registered_in_a_window_reaches_the_row() {
        let window = abt_core::obs::metrics::window();
        abt_core::obs::metrics::counter("test.gate.new_metric").add(7);
        let metrics: BTreeMap<String, f64> = window
            .close()
            .into_iter()
            .map(|(k, v)| (k, v as f64))
            .collect();
        let mut rec = base();
        rec.experiments[0].metrics = metrics;
        let json = rec.to_json();
        assert!(json.contains("\"test.gate.new_metric\": 7"));
        let back = BenchRecord::from_json(&json).unwrap();
        assert_eq!(back.experiments[0].metric("test.gate.new_metric"), 7.0);
    }
}
