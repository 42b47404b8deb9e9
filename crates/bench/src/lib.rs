//! # abt-bench
//!
//! The experiment harness: regenerates every figure-level artifact of the
//! paper (see DESIGN.md §4 for the experiment index) and hosts the
//! Criterion runtime benches. `cargo run -p abt-bench --release --bin
//! experiments` prints the Markdown recorded in `EXPERIMENTS.md` and
//! writes `BENCH_lp.json` ([`bench_record`] documents the lp-v3
//! schema), which the `perf_gate` binary checks in CI with the rules in
//! [`gate`].
//! See the repo-root `ARCHITECTURE.md` for the whole pipeline.
//!
//! # Example
//!
//! Rows carry registry metrics by name, and the perf gate reads them by
//! name:
//!
//! ```
//! use abt_bench::bench_record::BenchRecord;
//! use abt_bench::gate::{check, Limits};
//!
//! let committed = r#"{ "schema": "abt-bench/lp-v3",
//!     "lp_simplex": {"n": 1000, "g": 4, "horizon": 2000, "seed": 7,
//!         "objective": "23489/24", "candidate": "vub_implicit",
//!         "candidate_ms": 667.4, "pivots": 6159, "refactorizations": 143,
//!         "fallback": false},
//!     "experiments": [
//!         {"id": "e21", "wall_ms": 1461.0, "speedup": 35.41,
//!          "metrics": {"lp.components": 1216, "lp.pivots": 31200}}
//!     ] }"#;
//! let rec = BenchRecord::from_json(committed).unwrap();
//! assert_eq!(rec.experiments[0].metric("lp.pivots"), 31200.0);
//! assert_eq!(rec.experiments[0].metric("lp.fallbacks"), 0.0);
//! // The canonical writer re-emits a parseable document, and a record
//! // gated against itself passes.
//! assert_eq!(BenchRecord::from_json(&rec.to_json()).unwrap(), rec);
//! assert!(check(&rec, &rec, &Limits::default()).is_empty());
//! ```

#![warn(missing_docs)]

pub mod bench_record;
pub mod experiments;
pub mod gate;
pub mod parallel;
pub mod stats;
pub mod table;

pub use bench_record::{BenchRecord, ExperimentRecord, LpSimplexRecord};
pub use experiments::{all_reports, ExperimentReport};
pub use parallel::parallel_map;
pub use stats::{ratio_summary, time_best_ms, Summary};
pub use table::{ratio, Table};
