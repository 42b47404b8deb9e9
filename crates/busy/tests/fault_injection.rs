//! Fault-injection test of the shared supervision ladder from the busy
//! side: an injected pivot panic in the revised engine must demote the
//! busy LP down the ladder, return the fault-free answer bit for bit,
//! count the demotion under the busy half's own metric prefix
//! (`busy.lp.*`), never under the active half's (`lp.*`), and name the
//! rungs in the flight recorder exactly as the active half does.
//!
//! Compiled only with `--features fault-injection`; the test holds the
//! process-global [`faultinject::exclusive`] guard.

#![cfg(feature = "fault-injection")]

use abt_busy::{busy_lp_telemetry, lp_rounding_run};
use abt_core::faultinject::{self, FaultSpec};
use abt_core::obs::{self, metrics};
use abt_core::{Instance, Job};

#[test]
fn pivot_panics_demote_the_busy_lp_bit_identically_under_its_own_prefix() {
    let _guard = faultinject::exclusive();
    let inst = Instance::new(
        [(0, 5), (2, 7), (4, 9), (6, 11), (8, 13), (1, 12)]
            .iter()
            .map(|&(a, b)| Job::interval(a, b))
            .collect(),
        2,
    )
    .unwrap();
    let clean = lp_rounding_run(&inst).unwrap();

    faultinject::configure("panic_in_pivot", FaultSpec::panic_every(1));
    obs::set_tracing(true);
    obs::recorder::clear();
    let active_demotions = metrics::counter("lp.demotions").get();
    let before = busy_lp_telemetry();
    let faulted = lp_rounding_run(&inst);
    let d = busy_lp_telemetry().delta(&before);
    let active_delta = metrics::counter("lp.demotions").get() - active_demotions;
    faultinject::reset();
    obs::set_tracing(false);
    let entries = obs::recorder::entries();

    let faulted = faulted.expect("the dense rungs absorb the injected panics");
    assert_eq!(
        faulted.cost, clean.cost,
        "demotion must never change answers"
    );
    assert_eq!(faulted.lp_objective, clean.lp_objective);
    assert_eq!(faulted.schedule, clean.schedule);
    assert!(d.demotions >= 1, "the panicking revised rung must demote");
    assert_eq!(d.solves, 1);
    assert_eq!(d.quarantined, 0);
    assert_eq!(active_delta, 0, "busy demotions never count as lp.*");

    let field = |e: &obs::recorder::TraceEntry, k: &str| {
        e.fields
            .iter()
            .find(|(key, _)| *key == k)
            .map(|(_, v)| v.clone())
    };
    let demotions: Vec<_> = entries
        .iter()
        .filter(|e| e.name == "supervise.demotion")
        .collect();
    assert_eq!(demotions.len() as u64, d.demotions);
    for e in &demotions {
        assert_eq!(field(e, "from").as_deref(), Some("cold revised"));
        assert_eq!(field(e, "to").as_deref(), Some("dense hybrid"));
    }
    let component = entries
        .iter()
        .find(|e| e.name == "solve.component")
        .expect("the ladder opens a solve.component span");
    assert_eq!(field(component, "metrics").as_deref(), Some("busy.lp."));
    assert_eq!(field(component, "rung").as_deref(), Some("dense hybrid"));
}
