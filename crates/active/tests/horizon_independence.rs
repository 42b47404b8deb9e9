//! Horizon independence of the rounding pipeline's feasibility oracle:
//! the piece-based `G_feas` gives the per-slot graph's verdict on every
//! slot subset, and the schedule it extracts by wrap-around validates.

use abt_active::{schedule_on, FeasibilityChecker};
use abt_core::active_schedule::{horizon_slots, job_feasible_in_slot};
use abt_core::{Instance, JobId, Time};
use abt_flow::{max_flow, FlowGraph};

/// xorshift64: the test's own seeded choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// The per-slot `G_feas` (Fig. 2): a node per open slot, a unit arc from
/// each job to every open slot of its window, capacity `g` to the sink.
fn per_slot_feasible(inst: &Instance, jobs: &[JobId], slots: &[Time]) -> bool {
    let (n, m) = (jobs.len(), slots.len());
    let (s, t) = (0, n + m + 1);
    let mut g = FlowGraph::new(n + m + 2);
    let mut demand = 0;
    for (ji, &j) in jobs.iter().enumerate() {
        demand += inst.job(j).length;
        g.add_edge(s, 1 + ji, inst.job(j).length);
        for (si, &slot) in slots.iter().enumerate() {
            if job_feasible_in_slot(inst, j, slot) {
                g.add_edge(1 + ji, 1 + n + si, 1);
            }
        }
    }
    for si in 0..m {
        g.add_edge(1 + n + si, t, inst.g() as i64);
    }
    max_flow(&mut g, s, t).value == demand
}

#[test]
fn piece_graph_verdicts_match_the_per_slot_graph() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut feasible_seen = 0;
    for case in 0..300 {
        let n = 1 + rng.below(7) as usize;
        let g = 1 + rng.below(3) as usize;
        let triples: Vec<(i64, i64, i64)> = (0..n)
            .map(|_| {
                let r = rng.below(12) as i64;
                let len = 1 + rng.below(4) as i64;
                (r, r + len + rng.below(5) as i64, len)
            })
            .collect();
        let inst = Instance::from_triples(triples, g).unwrap();
        // A random subset of the horizon, denser on even cases.
        let keep = if case % 2 == 0 { 4 } else { 2 };
        let slots: Vec<Time> = horizon_slots(&inst)
            .into_iter()
            .filter(|_| rng.below(5) < keep)
            .collect();
        let all: Vec<JobId> = (0..n).collect();
        let checker = FeasibilityChecker::new(&inst);
        let expect = per_slot_feasible(&inst, &all, &slots);
        assert_eq!(checker.is_feasible(&slots), expect, "{inst:?} on {slots:?}");
        // A job prefix, as the rounding's barely-open checks ask.
        let prefix = &all[..1 + rng.below(n as u64) as usize];
        assert_eq!(
            checker.is_feasible_subset(prefix, &slots),
            per_slot_feasible(&inst, prefix, &slots),
            "{inst:?} jobs {prefix:?} on {slots:?}"
        );
        match schedule_on(&inst, &slots) {
            Some(s) => {
                assert!(expect);
                feasible_seen += 1;
                s.validate(&inst).unwrap();
                assert!(s.active_slots().iter().all(|t| slots.contains(t)));
            }
            None => assert!(!expect),
        }
    }
    assert!(feasible_seen >= 30, "only {feasible_seen} feasible cases");
}
