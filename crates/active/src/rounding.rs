//! The LP-rounding 2-approximation for active time (§3.2–3.4, Theorem 2).
//!
//! Deadlines are processed left to right. Per segment `i` (with mass
//! `Y_i`), the `⌊Y_i⌋` *fully open* right-shifted slots open integrally for
//! free. The fractional remainder — merged with at most one *proxy* slot
//! carried from earlier iterations — is handled by value:
//!
//! * `= 1`:  the slot became fully open by the merge; open it (footnote 4);
//! * `≥ ½` (*half open*): open it, charging its own `y` at most twice;
//! * `< ½` (*barely open*): try to **close** it — feasible (by max-flow on
//!   the slots opened so far, jobs with processed deadlines) ⇒ carry it as
//!   a proxy; infeasible ⇒ open it and charge it to the earliest fully
//!   open slot without a **dependent**, else complete a **trio**
//!   (full + dependent + this, `Σy ≥ 3/2`), else become the **filler** of a
//!   half-open slot (`Σy ≥ 1`). Lemma 6 proves a charge target always
//!   exists; the implementation still carries a defensive fallback that
//!   opens the slot and flags the ledger (`anomalies`), plus a final
//!   feasibility repair (`repair_slots`). The fallback stays 0 across the
//!   test and experiment suite. The repair does fire on some random
//!   instances, large (n = 200) and small alike — the 11-job instance of
//!   the `repair_fires_on_a_small_random_instance` test is one — where it
//!   binary-searches the number of latest unopened slots to add.
//!
//! All of it works on intervals, never on the horizon slot by slot: the
//! opened set is a [`SlotSet`] of one block per segment plus single
//! residue slots, the ledger keeps fully open slots as blocks, and the
//! closure checks run on the piece graph of [`crate::feasibility`].
//!
//! The outcome carries the exact LP objective so callers can assert
//! `cost ≤ 2·LP ≤ 2·OPT` with rational arithmetic.

use crate::feasibility::{FeasibilityChecker, SlotSet};
use crate::lp_model::{solve_active_lp, ActiveLp};
use crate::right_shift::{right_shift, RightShifted};
use abt_core::{ActiveSchedule, Error, Instance, JobId, Result, Time};
use abt_lp::Rat;

/// How an opened slot was paid for (for the experiment tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// A right-shifted fully open slot (cost 1 charged to its own `y = 1`).
    FullyOpen,
    /// A half-open slot charged to itself (`y ≥ ½`).
    SelfHalf,
    /// A barely open slot charged as a dependent of a fully open slot.
    Dependent,
    /// A barely open slot completing a trio.
    Trio,
    /// A barely open slot filling a half-open slot.
    Filler,
    /// Defensive fallback — should never occur (Lemma 6).
    Anomaly,
}

/// Outcome of the rounding.
#[derive(Debug, Clone)]
pub struct RoundingOutcome {
    /// The integrally opened slots, ascending.
    pub opened: Vec<Time>,
    /// A feasible integral schedule on those slots.
    pub schedule: ActiveSchedule,
    /// The exact optimal LP objective (lower bound on integral OPT).
    pub lp_objective: Rat,
    /// `opened.len()` as an integer cost.
    pub cost: i64,
    /// Charge-kind tally, indexed by the order of [`ChargeKind`] variants.
    pub charges: Vec<(ChargeKind, usize)>,
    /// Times the defensive charging fallback fired (expected 0).
    pub anomalies: usize,
    /// Slots added by the final feasibility repair (0 on most inputs).
    pub repair_slots: usize,
}

impl RoundingOutcome {
    /// Whether the 2-approximation certificate holds: `cost ≤ 2 · LP`.
    pub fn within_two_lp(&self) -> bool {
        let two_lp = self.lp_objective.mul(&Rat::from_int(2));
        Rat::from_int(self.cost) <= two_lp
    }
}

/// A fully open slot that has been charged a dependent.
struct FullSlot {
    t: Time,
    dependent: Rat,
    in_trio: bool,
}

struct HalfSlot {
    t: Time,
    y: Rat,
    has_filler: bool,
}

/// The charging ledger of Lemma 6. Fully open slots arrive a segment's
/// `⌊Y_i⌋` block at a time and are kept as blocks until one takes a
/// dependent, so the ledger's size follows the barely open slots, not the
/// horizon.
struct Ledger {
    /// Fully open slots without a dependent, as blocks `(start, end]`.
    free: Vec<(Time, Time)>,
    /// Fully open slots that took a dependent.
    fulls: Vec<FullSlot>,
    halves: Vec<HalfSlot>,
    tally: [usize; 6],
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            free: Vec::new(),
            fulls: Vec::new(),
            halves: Vec::new(),
            tally: [0; 6],
        }
    }

    fn record(&mut self, kind: ChargeKind) {
        self.record_n(kind, 1);
    }

    fn record_n(&mut self, kind: ChargeKind, n: usize) {
        let idx = match kind {
            ChargeKind::FullyOpen => 0,
            ChargeKind::SelfHalf => 1,
            ChargeKind::Dependent => 2,
            ChargeKind::Trio => 3,
            ChargeKind::Filler => 4,
            ChargeKind::Anomaly => 5,
        };
        self.tally[idx] += n;
    }

    /// Adds the fully open slots `start+1, …, end`.
    fn add_full_block(&mut self, start: Time, end: Time) {
        if start < end {
            self.free.push((start, end));
            self.record_n(ChargeKind::FullyOpen, (end - start) as usize);
        }
    }

    fn add_full(&mut self, t: Time) {
        self.add_full_block(t - 1, t);
    }

    fn add_half(&mut self, t: Time, y: Rat) {
        self.halves.push(HalfSlot {
            t,
            y,
            has_filler: false,
        });
        self.record(ChargeKind::SelfHalf);
    }

    /// Charges a barely open slot of value `v`; returns how.
    fn charge_barely(&mut self, v: Rat) -> ChargeKind {
        let half = Rat::new(1, 2);
        // (a) earliest fully open slot without dependent (and not in a
        // trio): the first slot of the earliest free block.
        if let Some(bi) = (0..self.free.len()).min_by_key(|&i| self.free[i].0) {
            let (start, end) = self.free[bi];
            if start + 1 == end {
                self.free.remove(bi);
            } else {
                self.free[bi].0 = start + 1;
            }
            self.fulls.push(FullSlot {
                t: start + 1,
                dependent: v,
                in_trio: false,
            });
            self.record(ChargeKind::Dependent);
            return ChargeKind::Dependent;
        }
        // (b) earliest fully open slot whose dependent can complete a trio.
        if let Some(fs) = self
            .fulls
            .iter_mut()
            .filter(|f| !f.in_trio && f.dependent.add(&v) >= half)
            .min_by_key(|f| f.t)
        {
            fs.in_trio = true;
            self.record(ChargeKind::Trio);
            return ChargeKind::Trio;
        }
        // (c) earliest half-open slot that this can fill.
        if let Some(hs) = self
            .halves
            .iter_mut()
            .filter(|h| !h.has_filler && h.y.add(&v) >= Rat::ONE)
            .min_by_key(|h| h.t)
        {
            hs.has_filler = true;
            self.record(ChargeKind::Filler);
            return ChargeKind::Filler;
        }
        self.record(ChargeKind::Anomaly);
        ChargeKind::Anomaly
    }
}

/// Rounds the optimal LP solution of `inst` into an integral schedule of
/// cost at most `2·LP ≤ 2·OPT`.
pub fn lp_rounding(inst: &Instance) -> Result<RoundingOutcome> {
    let lp = solve_active_lp(inst)?;
    lp_rounding_from(inst, &lp)
}

/// Rounding given an already-solved LP (lets experiments reuse the solve).
/// Slots are listed one by one only in the returned `opened` and
/// `schedule`.
pub fn lp_rounding_from(inst: &Instance, lp: &ActiveLp) -> Result<RoundingOutcome> {
    let rs: RightShifted = right_shift(inst, lp);
    let checker = FeasibilityChecker::new(inst);
    let half = Rat::new(1, 2);

    let mut opened = SlotSet::new();
    let mut ledger = Ledger::new();
    let mut proxy: Option<(Rat, Time)> = None;
    let mut jobs_so_far: Vec<JobId> = Vec::new();
    let mut anomalies = 0usize;

    for seg in &rs.segments {
        jobs_so_far.extend_from_slice(&seg.jobs);
        let y = seg.y_sum;
        let floor = y.floor() as i64;
        let fr = y.fract();
        // Open the ⌊Y_i⌋ fully open right-shifted slots.
        opened.insert_run(seg.deadline - floor, seg.deadline);
        ledger.add_full_block(seg.deadline - floor, seg.deadline);
        // Build the fractional residue items: at most one half-open slot and
        // one barely/merged item (§3.4 "Dealing with a proxy slot").
        let mut residue: Vec<(Rat, Time)> = Vec::new();
        let frac_loc = seg.deadline - floor;
        match proxy.take() {
            None => {
                if fr.signum() > 0 {
                    residue.push((fr, frac_loc));
                }
            }
            Some((pv, pp)) => {
                let merged = fr.add(&pv);
                if merged <= Rat::ONE {
                    let loc = if frac_loc > seg.start { frac_loc } else { pp };
                    residue.push((merged, loc));
                } else {
                    // fr > ½: a half-open slot plus a barely open residue.
                    residue.push((fr, frac_loc));
                    let loc2 = if frac_loc - 1 > seg.start {
                        frac_loc - 1
                    } else {
                        pp
                    };
                    residue.push((merged.sub(&Rat::ONE), loc2));
                }
            }
        }
        for (v, loc) in residue {
            if v == Rat::ONE {
                // Became fully open through the merge (footnote 4).
                opened.insert(loc);
                ledger.add_full(loc);
            } else if v >= half {
                opened.insert(loc);
                ledger.add_half(loc, v);
            } else {
                // Barely open: try to close it.
                if checker.is_feasible_subset_on(&jobs_so_far, &opened) {
                    proxy = Some((v, loc));
                } else {
                    opened.insert(loc);
                    if ledger.charge_barely(v) == ChargeKind::Anomaly {
                        anomalies += 1;
                    }
                }
            }
        }
    }

    // Final feasibility (guaranteed by Lemma 5; repaired defensively).
    let mut repair_slots = 0usize;
    let schedule = match checker.check_on(&opened) {
        Some(schedule) => Some(schedule),
        None => {
            repair_slots = repair(&checker, inst, &mut opened);
            checker.check_on(&opened)
        }
    }
    .ok_or_else(|| Error::Infeasible("rounding could not recover feasibility".into()))?;

    let cost = opened.len() as i64;
    let charges = vec![
        (ChargeKind::FullyOpen, ledger.tally[0]),
        (ChargeKind::SelfHalf, ledger.tally[1]),
        (ChargeKind::Dependent, ledger.tally[2]),
        (ChargeKind::Trio, ledger.tally[3]),
        (ChargeKind::Filler, ledger.tally[4]),
        (ChargeKind::Anomaly, ledger.tally[5]),
    ];
    Ok(RoundingOutcome {
        opened: opened.to_vec(),
        schedule,
        lp_objective: lp.objective,
        cost,
        charges,
        anomalies,
        repair_slots,
    })
}

/// The defensive repair of an infeasible `opened`: adds the fewest
/// unopened horizon slots, latest first, that make it feasible, and
/// returns how many it added (all of them when none suffice).
///
/// Feasibility only grows as slots are added, so the smallest feasible
/// count is found by binary search in O(log T) flow checks; the result is
/// the one a slot-by-slot descending scan would reach.
fn repair(checker: &FeasibilityChecker, inst: &Instance, opened: &mut SlotSet) -> usize {
    // The unopened horizon slots as gaps `(start, end]`, latest first.
    let (lo, hi) = (inst.min_release(), inst.max_deadline());
    let mut gaps: Vec<(Time, Time)> = Vec::new();
    let mut next = lo;
    for &(a, b) in opened.runs() {
        let end = a.min(hi);
        if end > next {
            gaps.push((next, end));
        }
        next = next.max(b);
    }
    if hi > next {
        gaps.push((next, hi));
    }
    gaps.reverse();
    let with_latest = |k: i64| -> SlotSet {
        let mut set = opened.clone();
        let mut left = k;
        for &(a, b) in &gaps {
            if left == 0 {
                break;
            }
            let take = left.min(b - a);
            set.insert_run(b - take, b);
            left -= take;
        }
        set
    };
    let total: i64 = gaps.iter().map(|&(a, b)| b - a).sum();
    // Invariant: `bad` slots are not enough; `good` are, or are all.
    let (mut bad, mut good) = (0i64, total);
    while good - bad > 1 {
        let mid = bad + (good - bad) / 2;
        if checker.is_feasible_on(&with_latest(mid)) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    *opened = with_latest(good);
    good as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    #[test]
    fn ledger_charges_dependent_then_trio_then_filler() {
        // Drive the private ledger through every charge path (Lemma 6's
        // case analysis): these arise from non-vertex optimal LP solutions,
        // which our simplex never emits, so they need direct coverage.
        let mut ledger = Ledger::new();
        ledger.add_full(10);
        // First barely open slot becomes the dependent of slot 10.
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Dependent);
        // Second one completes the trio (2/5 + 2/5 ≥ 1/2).
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Trio);
        // No fully open slot left; a half-open slot takes a filler.
        ledger.add_half(20, rat(3, 5));
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Filler);
        // Nothing left to charge: the defensive fallback fires.
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Anomaly);
        assert_eq!(ledger.tally, [1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn ledger_prefers_earliest_targets() {
        let mut ledger = Ledger::new();
        ledger.add_full(30);
        ledger.add_full(5);
        assert_eq!(ledger.charge_barely(rat(1, 5)), ChargeKind::Dependent);
        // The earlier slot (t = 5) must have received the dependent.
        assert_eq!(ledger.fulls.len(), 1);
        assert_eq!(ledger.fulls[0].t, 5);
        assert_eq!(ledger.fulls[0].dependent, rat(1, 5));
        assert_eq!(ledger.free, vec![(29, 30)], "slot 30 stays free");
    }

    #[test]
    fn ledger_trio_requires_half_total() {
        let mut ledger = Ledger::new();
        ledger.add_full(1);
        assert_eq!(ledger.charge_barely(rat(1, 10)), ChargeKind::Dependent);
        // 1/10 + 1/10 < 1/2: no trio possible, no half-open slot: anomaly.
        assert_eq!(ledger.charge_barely(rat(1, 10)), ChargeKind::Anomaly);
        // A (2/5)-dependent on a fresh full slot can trio with 1/10.
        ledger.add_full(2);
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Dependent);
        assert_eq!(ledger.charge_barely(rat(1, 10)), ChargeKind::Trio);
    }

    #[test]
    fn ledger_filler_requires_unit_total() {
        let mut ledger = Ledger::new();
        ledger.add_half(7, rat(1, 2));
        // 1/2 + 1/3 < 1: cannot fill.
        assert_eq!(ledger.charge_barely(rat(1, 3)), ChargeKind::Anomaly);
        // 1/2 + 1/2... a barely open value is < 1/2 by definition; 49/100
        // works: 1/2 + 49/100 < 1 still fails; use a bigger half slot.
        ledger.add_half(9, rat(3, 5));
        assert_eq!(ledger.charge_barely(rat(2, 5)), ChargeKind::Filler);
    }

    fn check(inst: &Instance) -> RoundingOutcome {
        let out = lp_rounding(inst).unwrap();
        out.schedule.validate(inst).unwrap();
        assert_eq!(out.anomalies, 0, "charging fallback fired");
        assert_eq!(out.repair_slots, 0, "feasibility repair fired");
        assert!(
            out.within_two_lp(),
            "cost {} > 2·LP {}",
            out.cost,
            out.lp_objective
        );
        out
    }

    /// The slot-by-slot repair the binary search replaces: add unopened
    /// horizon slots latest first, one flow check each, until feasible.
    fn repair_linear(inst: &Instance, opened: &SlotSet) -> (SlotSet, usize) {
        let checker = FeasibilityChecker::new(inst);
        let mut set = opened.clone();
        let mut added = 0;
        for t in abt_core::active_schedule::horizon_slots(inst)
            .into_iter()
            .rev()
        {
            if set.contains(t) {
                continue;
            }
            set.insert(t);
            added += 1;
            if checker.is_feasible_on(&set) {
                break;
            }
        }
        (set, added)
    }

    fn assert_repair_matches_linear(inst: &Instance, opened: &SlotSet) -> usize {
        let checker = FeasibilityChecker::new(inst);
        assert!(
            !checker.is_feasible_on(opened),
            "repair needs an infeasible set"
        );
        let (want, want_added) = repair_linear(inst, opened);
        let mut got = opened.clone();
        let added = repair(&checker, inst, &mut got);
        assert_eq!((got, added), (want, want_added), "{inst:?} from {opened:?}");
        added
    }

    #[test]
    fn repair_binary_search_matches_the_linear_scan() {
        // Job 0 needs 3 slots of (0, 4] but only slot 1 is open; the scan
        // walks down through the useless slots 9..5 before 4 and 3 fix it.
        let inst = Instance::from_triples([(0, 4, 3), (6, 10, 1)], 1).unwrap();
        let opened = SlotSet::from_slots(&[1, 10]);
        assert_eq!(assert_repair_matches_linear(&inst, &opened), 7);
        // Nothing suffices: every unopened slot is added.
        let doomed = Instance::from_triples([(0, 1, 1), (0, 1, 1), (0, 5, 1)], 1).unwrap();
        assert_eq!(assert_repair_matches_linear(&doomed, &SlotSet::new()), 5);
        // Random infeasible opened sets.
        let mut state = 0x5EED_u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut checked = 0;
        while checked < 40 {
            let triples: Vec<(i64, i64, i64)> = (0..2 + next(4))
                .map(|_| {
                    let r = next(10) as i64;
                    let len = 1 + next(3) as i64;
                    (r, r + len + next(6) as i64, len)
                })
                .collect();
            let inst = Instance::from_triples(triples, 1 + next(2) as usize).unwrap();
            let slots: Vec<Time> = abt_core::active_schedule::horizon_slots(&inst)
                .into_iter()
                .filter(|_| next(3) == 0)
                .collect();
            let opened = SlotSet::from_slots(&slots);
            if !FeasibilityChecker::new(&inst).is_feasible_on(&opened) {
                assert_repair_matches_linear(&inst, &opened);
                checked += 1;
            }
        }
    }

    #[test]
    fn simple_instances() {
        check(&Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap());
        check(&Instance::from_triples([(0, 10, 4)], 1).unwrap());
        check(&Instance::from_triples([(0, 3, 1), (1, 4, 2), (2, 6, 3)], 2).unwrap());
    }

    #[test]
    fn integrality_gap_instance() {
        // §3.5, g = 3: LP = g + 1, rounding must stay within 2·LP and be
        // feasible; integral OPT is 2g.
        let g = 3usize;
        let mut triples = Vec::new();
        for pair in 0..g as i64 {
            let a = 2 * pair;
            for _ in 0..=g {
                triples.push((a, a + 2, 1i64));
            }
        }
        let inst = Instance::from_triples(triples, g).unwrap();
        let out = check(&inst);
        assert_eq!(out.cost, 2 * g as i64); // rounding hits integral OPT here
    }

    #[test]
    fn tight_windows_force_full_slots() {
        // Fully packed instance: LP = OPT = 5, rounding should open exactly 5.
        let inst = Instance::from_triples([(0, 5, 5), (0, 5, 5)], 2).unwrap();
        let out = check(&inst);
        assert_eq!(out.cost, 5);
        assert_eq!(out.lp_objective, Rat::from_int(5));
    }

    #[test]
    fn proxy_paths_are_exercised() {
        // Staggered deadlines with slack create barely open slots that the
        // flow check closes (proxies) or charges.
        let inst =
            Instance::from_triples([(0, 4, 1), (0, 7, 2), (3, 9, 2), (5, 12, 1), (8, 14, 2)], 3)
                .unwrap();
        let out = check(&inst);
        assert!(out.cost >= 2);
    }

    #[test]
    fn repair_fires_on_a_small_random_instance() {
        // `abt_workloads::random_active_feasible` with `RandomConfig { n:
        // 12, g: 5, horizon: 24, max_len: 12, slack_factor: 1.0 }` and
        // seed 317: the charging leaves the opened set infeasible and the
        // final repair adds a slot, yet the schedule stays within 2·LP.
        let inst = Instance::from_triples(
            [
                (4, 23, 8),
                (0, 13, 11),
                (4, 19, 8),
                (9, 20, 6),
                (14, 15, 1),
                (7, 13, 3),
                (7, 22, 6),
                (18, 22, 3),
                (0, 15, 9),
                (0, 16, 8),
                (8, 24, 9),
            ],
            5,
        )
        .unwrap();
        let out = lp_rounding(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
        assert!(out.within_two_lp(), "cost {} > 2·LP", out.cost);
        assert_eq!(out.lp_objective, rat(77, 5));
        let exact = crate::exact::exact_active_time(&inst, None).unwrap();
        assert_eq!(exact.slots.len(), 16);
    }

    #[test]
    fn infeasible_instance_errors() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(lp_rounding(&inst), Err(Error::Infeasible(_))));
    }

    #[test]
    fn pseudorandom_sweep_respects_two_lp() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..30 {
            let n = 2 + next(5) as usize;
            let g = 1 + next(3) as usize;
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(6) as i64;
                let len = 1 + next(3) as i64;
                let d = r + len + next(4) as i64;
                triples.push((r, d, len));
            }
            let inst = Instance::from_triples(triples, g).unwrap();
            match lp_rounding(&inst) {
                Ok(_) => {
                    check(&inst);
                }
                Err(Error::Infeasible(_)) => {} // tight random windows may not fit
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
}
