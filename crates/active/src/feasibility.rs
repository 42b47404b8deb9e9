//! The flow-based feasibility oracle for the active-time model (Fig. 2).
//!
//! Given a set `A` of active slots, the instance is feasible iff the
//! max-flow on `G_feas` equals `P = Σ_j p_j`, where `G_feas` has a source
//! arc of capacity `p_j` per job, a unit arc from job `j` to every active
//! slot in its window, and an arc of capacity `g` from every active slot to
//! the sink. Integrality of max-flow turns a feasible fractional assignment
//! into an integral schedule for free.
//!
//! # The piece graph
//!
//! The per-slot graph has a node per active slot, so its size grows with
//! the horizon. This oracle builds `G_feas` over **pieces** instead: a
//! piece is a maximal interval of consecutive active slots with no job
//! release or deadline inside it, so every job's window either covers a
//! whole piece or misses it. A piece `P` of `w` slots gets one node, an
//! arc of capacity `g·w` to the sink, and an arc of capacity `w` from
//! every job whose window covers it. The graph has
//! O(n + runs of `A`) nodes whatever the horizon length.
//!
//! Both graphs have the same max-flow value, so every verdict is the
//! per-slot graph's. Summing a per-slot flow over a piece's slots gives
//! a piece flow: a job uses each slot at most once, so it sends at most
//! `w` into the piece, and the piece holds at most `g·w` units. The
//! converse is **McNaughton's wrap-around**: lay the piece's slots out in
//! order and let each job with flow `x_j` take the next `x_j` slots
//! cyclically from a shared cursor. `x_j ≤ w` makes a job's slots
//! distinct, and `Σ_j x_j ≤ g·w` wraps the cursor at most `g` times, so no
//! slot takes more than `g` units. [`FeasibilityChecker::check_on`]
//! recovers the schedule this way, one piece at a time.
//!
//! Open sets are [`SlotSet`]s of disjoint runs. The `&[Time]` API
//! compresses its input into one and calls the same code, so the
//! minimal-feasible, exact and unit solvers and the LP rounding share one
//! path.

use abt_core::{ActiveSchedule, Instance, JobId, Time};
use abt_flow::{max_flow, FlowGraph};

/// A set of slots, stored as disjoint runs `(start, end]` — the slots
/// `start+1, …, end` — ascending, with no two runs adjacent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSet {
    runs: Vec<(Time, Time)>,
    len: usize,
}

impl SlotSet {
    /// The empty set.
    pub fn new() -> SlotSet {
        SlotSet::default()
    }

    /// The set of `slots` (any order, duplicates allowed).
    pub fn from_slots(slots: &[Time]) -> SlotSet {
        let mut sorted = slots.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut runs: Vec<(Time, Time)> = Vec::new();
        for t in sorted {
            match runs.last_mut() {
                Some(run) if run.1 == t - 1 => run.1 = t,
                _ => runs.push((t - 1, t)),
            }
        }
        let len = runs.iter().map(|&(a, b)| (b - a) as usize).sum();
        SlotSet { runs, len }
    }

    /// Adds the slots `start+1, …, end`, merging with the runs they
    /// overlap or touch.
    pub fn insert_run(&mut self, start: Time, end: Time) {
        if start >= end {
            return;
        }
        let i = self.runs.partition_point(|r| r.1 < start);
        let j = self.runs.partition_point(|r| r.0 <= end);
        let (mut lo, mut hi) = (start, end);
        for &(a, b) in &self.runs[i..j] {
            lo = lo.min(a);
            hi = hi.max(b);
            self.len -= (b - a) as usize;
        }
        self.runs.splice(i..j, [(lo, hi)]);
        self.len += (hi - lo) as usize;
    }

    /// Adds slot `t`.
    pub fn insert(&mut self, t: Time) {
        self.insert_run(t - 1, t);
    }

    /// Whether slot `t` is in the set.
    pub fn contains(&self, t: Time) -> bool {
        let i = self.runs.partition_point(|r| r.1 < t);
        self.runs.get(i).is_some_and(|r| r.0 < t)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs `(start, end]`, ascending.
    pub fn runs(&self) -> &[(Time, Time)] {
        &self.runs
    }

    /// Every slot, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Time> + '_ {
        self.runs.iter().flat_map(|&(a, b)| a + 1..=b)
    }

    /// Every slot, materialized.
    pub fn to_vec(&self) -> Vec<Time> {
        self.iter().collect()
    }
}

/// Feasibility oracle with assignment extraction.
#[derive(Debug, Clone)]
pub struct FeasibilityChecker<'a> {
    inst: &'a Instance,
    /// Every job, in id order.
    all: Vec<JobId>,
    /// Distinct releases and deadlines, ascending: the piece cut points.
    events: Vec<Time>,
}

impl<'a> FeasibilityChecker<'a> {
    /// Creates an oracle for `inst`.
    pub fn new(inst: &'a Instance) -> Self {
        let mut events: Vec<Time> = inst
            .jobs()
            .iter()
            .flat_map(|j| [j.release, j.deadline])
            .collect();
        events.sort_unstable();
        events.dedup();
        FeasibilityChecker {
            inst,
            all: (0..inst.len()).collect(),
            events,
        }
    }

    /// Whether all jobs fit into the active slots `slots` (sorted or not).
    pub fn is_feasible(&self, slots: &[Time]) -> bool {
        self.is_feasible_on(&SlotSet::from_slots(slots))
    }

    /// Whether the subset `jobs` fits into `slots`.
    pub fn is_feasible_subset(&self, jobs: &[JobId], slots: &[Time]) -> bool {
        self.is_feasible_subset_on(jobs, &SlotSet::from_slots(slots))
    }

    /// Tries to schedule *all* jobs into `slots`; returns the schedule on
    /// success.
    pub fn check(&self, slots: &[Time]) -> Option<ActiveSchedule> {
        self.check_on(&SlotSet::from_slots(slots))
    }

    /// Whether all jobs fit into the active slots `open`.
    pub fn is_feasible_on(&self, open: &SlotSet) -> bool {
        self.flow(&self.all, open).is_some()
    }

    /// Whether the subset `jobs` fits into `open`.
    pub fn is_feasible_subset_on(&self, jobs: &[JobId], open: &SlotSet) -> bool {
        self.flow(jobs, open).is_some()
    }

    /// Tries to schedule all jobs into `open`; returns the schedule on
    /// success. The per-slot assignment is built here, once, by
    /// wrap-around over each piece (see the module docs).
    pub fn check_on(&self, open: &SlotSet) -> Option<ActiveSchedule> {
        let flow = self.flow(&self.all, open)?;
        let mut assignment: Vec<Vec<Time>> = self
            .inst
            .jobs()
            .iter()
            .map(|j| Vec::with_capacity(j.length as usize))
            .collect();
        // Per piece: the wrap-around cursor, a position in 0..w.
        let mut cursor = vec![0i64; flow.pieces.len()];
        for &(e, job, pi) in &flow.arcs {
            let x = flow.graph.flow(e);
            if x == 0 {
                continue;
            }
            let (a, b) = flow.pieces[pi];
            let w = b - a;
            let c = cursor[pi];
            let slots = &mut assignment[job];
            // Positions c, c+1, …, c+x−1 (mod w): distinct since x ≤ w.
            let first = x.min(w - c);
            slots.extend(a + 1 + c..a + 1 + c + first);
            slots.extend(a + 1..a + 1 + (x - first));
            cursor[pi] = (c + x) % w;
        }
        Some(ActiveSchedule::new(open.iter(), assignment))
    }

    /// Splits the runs of `open` at every event point strictly inside
    /// them: the pieces, ascending.
    fn pieces(&self, open: &SlotSet) -> Vec<(Time, Time)> {
        let ev = &self.events;
        let mut out = Vec::with_capacity(open.runs().len());
        let mut k = 0;
        for &(start, end) in open.runs() {
            while k < ev.len() && ev[k] <= start {
                k += 1;
            }
            let mut a = start;
            while k < ev.len() && ev[k] < end {
                out.push((a, ev[k]));
                a = ev[k];
                k += 1;
            }
            out.push((a, end));
        }
        out
    }

    /// Max-flow on the piece graph for `jobs` over `open`; `Some` iff
    /// every unit of those jobs fits.
    fn flow(&self, jobs: &[JobId], open: &SlotSet) -> Option<PieceFlow> {
        let inst = self.inst;
        let pieces = self.pieces(open);
        // Slots in pieces[..i].
        let mut before = Vec::with_capacity(pieces.len() + 1);
        before.push(0i64);
        for &(a, b) in &pieces {
            before.push(before.last().copied().unwrap_or(0) + (b - a));
        }

        // Cheap necessary conditions before building the flow network;
        // the exact solvers probe this oracle with many infeasible slot
        // sets, and both checks reject the bulk of them in O(n log m):
        // each job needs p_j open slots inside its window, and the total
        // demand cannot exceed g units per open slot. A window is a
        // union of whole pieces, so its pieces are a contiguous range.
        let mut total = 0i64;
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(jobs.len());
        for &job in jobs {
            let j = inst.job(job);
            total += j.length;
            let lo = pieces.partition_point(|p| p.0 < j.release);
            let hi = pieces.partition_point(|p| p.1 <= j.deadline);
            if before[hi] - before[lo] < j.length {
                return None;
            }
            ranges.push((lo, hi));
        }
        let g = inst.g() as i64;
        if total > g * open.len() as i64 {
            return None;
        }

        let n = jobs.len();
        let m = pieces.len();
        // Nodes: 0 = source, 1..=n jobs, n+1..=n+m pieces, n+m+1 sink.
        let s = 0;
        let t = n + m + 1;
        let mut graph = FlowGraph::new(n + m + 2);
        let mut arcs: Vec<(usize, JobId, usize)> = Vec::new(); // (edge, job, piece)
        for (ji, (&job, &(lo, hi))) in jobs.iter().zip(&ranges).enumerate() {
            graph.add_edge(s, 1 + ji, inst.job(job).length);
            for (pi, &(a, b)) in pieces.iter().enumerate().take(hi).skip(lo) {
                let e = graph.add_edge(1 + ji, 1 + n + pi, b - a);
                arcs.push((e, job, pi));
            }
        }
        for (pi, &(a, b)) in pieces.iter().enumerate() {
            graph.add_edge(1 + n + pi, t, g * (b - a));
        }
        if max_flow(&mut graph, s, t).value != total {
            return None;
        }
        Some(PieceFlow {
            pieces,
            graph,
            arcs,
        })
    }
}

/// A max-flow on the piece graph that carries every unit.
struct PieceFlow {
    pieces: Vec<(Time, Time)>,
    graph: FlowGraph,
    /// Every job → piece arc: `(edge, job, piece index)`, job-major.
    arcs: Vec<(usize, JobId, usize)>,
}

/// Convenience: feasibility of the whole instance on `slots`.
pub fn feasible_on(inst: &Instance, slots: &[Time]) -> bool {
    FeasibilityChecker::new(inst).is_feasible(slots)
}

/// Convenience: schedule the whole instance on `slots` if possible.
pub fn schedule_on(inst: &Instance, slots: &[Time]) -> Option<ActiveSchedule> {
    FeasibilityChecker::new(inst).check(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::active_schedule::horizon_slots;

    #[test]
    fn all_slots_feasible_when_capacity_suffices() {
        let inst = Instance::from_triples([(0, 3, 2), (0, 3, 2), (1, 4, 1)], 2).unwrap();
        let slots = horizon_slots(&inst);
        let sched = schedule_on(&inst, &slots).expect("feasible");
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn capacity_binds() {
        // Three unit jobs confined to one slot, g = 2: infeasible.
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1), (0, 1, 1)], 2).unwrap();
        assert!(!feasible_on(&inst, &[1]));
        let inst2 = inst.with_g(3).unwrap();
        assert!(feasible_on(&inst2, &[1]));
    }

    #[test]
    fn window_binds() {
        let inst = Instance::from_triples([(2, 4, 2)], 1).unwrap();
        assert!(!feasible_on(&inst, &[1, 2, 3])); // slot 4 needed
        assert!(feasible_on(&inst, &[3, 4]));
        assert!(!feasible_on(&inst, &[3])); // not enough slots
    }

    #[test]
    fn subset_feasibility() {
        let inst = Instance::from_triples([(0, 2, 2), (0, 2, 2), (4, 6, 1)], 1).unwrap();
        let chk = FeasibilityChecker::new(&inst);
        assert!(chk.is_feasible_subset(&[0], &[1, 2]));
        assert!(!chk.is_feasible_subset(&[0, 1], &[1, 2]));
        assert!(chk.is_feasible_subset(&[0, 2], &[1, 2, 5]));
    }

    #[test]
    fn extracted_schedule_is_always_valid() {
        // Paper Fig. 3-ish mix with full and non-full slots.
        let inst = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1)], 2).unwrap();
        let slots = horizon_slots(&inst);
        let sched = schedule_on(&inst, &slots).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.cost(), 6);
    }

    #[test]
    fn slot_set_merges_runs() {
        let mut set = SlotSet::new();
        set.insert_run(4, 6); // {5, 6}
        set.insert_run(0, 2); // {1, 2}
        set.insert(3); // touches both neighbours
        assert_eq!(set.runs(), &[(0, 3), (4, 6)]);
        set.insert(4);
        assert_eq!(set.runs(), &[(0, 6)]);
        set.insert_run(8, 10);
        set.insert_run(1, 9); // overlaps both runs
        assert_eq!(set.runs(), &[(0, 10)]);
        assert_eq!(set.len(), 10);
        assert!(set.contains(1) && set.contains(10) && !set.contains(0) && !set.contains(11));
        let from = SlotSet::from_slots(&[7, 3, 4, 3, 9, 8]);
        assert_eq!(from.runs(), &[(2, 4), (6, 9)]);
        assert_eq!(from.to_vec(), vec![3, 4, 7, 8, 9]);
    }

    #[test]
    fn pieces_split_runs_at_event_points() {
        let inst = Instance::from_triples([(0, 4, 2), (2, 8, 3)], 1).unwrap();
        let chk = FeasibilityChecker::new(&inst);
        // Events 0, 2, 4, 8: the run (0, 8] splits at 2 and 4.
        let open = SlotSet::from_slots(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(chk.pieces(&open), vec![(0, 2), (2, 4), (4, 8)]);
        let open = SlotSet::from_slots(&[2, 3, 6, 7]);
        assert_eq!(chk.pieces(&open), vec![(1, 2), (2, 3), (5, 7)]);
    }

    #[test]
    fn wrap_around_fills_a_wide_piece() {
        // Three 4-unit jobs sharing one 6-slot piece at g = 2: 12 units on
        // 12 slot-units, so the wrap-around must use every slot exactly
        // twice and never give a job the same slot twice.
        let inst = Instance::from_triples([(0, 6, 4), (0, 6, 4), (0, 6, 4)], 2).unwrap();
        let open = SlotSet::from_slots(&[1, 2, 3, 4, 5, 6]);
        let sched = FeasibilityChecker::new(&inst).check_on(&open).unwrap();
        sched.validate(&inst).unwrap();
        assert!(sched.slot_loads().values().all(|&l| l == 2));
    }

    #[test]
    fn duplicate_and_unsorted_slots_tolerated() {
        let inst = Instance::from_triples([(0, 3, 2)], 1).unwrap();
        let sched = schedule_on(&inst, &[3, 1, 3, 2, 1]).unwrap();
        sched.validate(&inst).unwrap();
    }
}
