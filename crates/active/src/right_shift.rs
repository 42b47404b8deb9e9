//! Right-shifting the optimal LP solution (§3.1, Fig. 4).
//!
//! The optimal `y` mass between consecutive distinct deadlines is pushed to
//! the latest slots of that segment: with `Y_i = Σ y_t` over segment `i`,
//! the last `⌊Y_i⌋` slots become *fully open* (`y = 1`), the slot
//! `t_{d_i} − ⌊Y_i⌋` carries the fractional remainder (*half open* if
//! `≥ ½`, *barely open* if `< ½`), and everything earlier closes. Lemma 3:
//! the result is still fractionally feasible with unchanged cost.
//!
//! # Per-run segments
//!
//! LP1's solution arrives as runs ([`ActiveLp::run_masses`]), and every
//! job deadline is a run boundary, so each run lies inside exactly one
//! deadline segment and `Y_i` is a sum of whole-run masses. One merge of
//! the runs with the sorted deadlines computes every segment in
//! O(runs + deadlines), whatever the horizon length. A [`Segment`] then
//! *is* the shifted solution: its `⌊Y_i⌋` block and fraction are read off
//! `y_sum`, so nothing is stored per slot. [`RightShifted::shifted_y`]
//! expands the shifted `y` over explicit slots for the Lemma-3 oracle.

use crate::lp_model::ActiveLp;
use abt_core::{Instance, JobId, Time};
use abt_lp::Rat;

/// One deadline segment of the right-shifted solution.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Exclusive left end: the previous distinct deadline (or the slot just
    /// before the earliest positive-`y` slot for the first segment).
    pub start: Time,
    /// The deadline `t_{d_i}` (inclusive right end).
    pub deadline: Time,
    /// `Y_i`: total fractional mass in `(start, deadline]`.
    pub y_sum: Rat,
    /// Jobs whose deadline equals `deadline` (the set `J_i`).
    pub jobs: Vec<JobId>,
}

/// The right-shifted LP solution.
#[derive(Debug, Clone)]
pub struct RightShifted {
    /// Segments in increasing deadline order, one per distinct deadline;
    /// their `y_sum`s add up to the LP objective.
    pub segments: Vec<Segment>,
}

impl RightShifted {
    /// The right-shifted `y` values (Fig. 4's `LP2`) on `slots`
    /// (ascending): `1` on each segment's last `⌊Y_i⌋` slots, the fraction
    /// of `Y_i` on the slot before them, `0` elsewhere. O(|slots|) memory.
    pub fn shifted_y(&self, slots: &[Time]) -> Vec<Rat> {
        let mut shifted_y = vec![Rat::ZERO; slots.len()];
        for seg in &self.segments {
            let floor = seg.y_sum.floor() as i64;
            let frac = seg.y_sum.fract();
            let lo = slots.partition_point(|&t| t <= seg.deadline - floor);
            let hi = slots.partition_point(|&t| t <= seg.deadline);
            shifted_y[lo..hi].fill(Rat::ONE);
            if frac.signum() > 0 {
                if let Ok(i) = slots.binary_search(&(seg.deadline - floor)) {
                    shifted_y[i] = frac;
                }
            }
        }
        shifted_y
    }
}

/// Computes the right-shifted structure from an optimal LP solution, in
/// O(runs + n log n).
pub fn right_shift(inst: &Instance, lp: &ActiveLp) -> RightShifted {
    // Distinct deadlines, ascending.
    let mut deadlines: Vec<Time> = inst.jobs().iter().map(|j| j.deadline).collect();
    deadlines.sort_unstable();
    deadlines.dedup();

    // The dummy boundary t_{d_0}: just before the earliest positive-y slot
    // (the horizon start when no slot is positive).
    let t0 = lp
        .run_masses()
        .find(|(_, y)| y.signum() > 0)
        .or_else(|| lp.run_masses().next())
        .map_or(-1, |(run, _)| run.start);

    let mut masses = lp.run_masses().peekable();
    let mut segments = Vec::with_capacity(deadlines.len());
    let mut prev = t0;
    for &d in &deadlines {
        if d <= prev {
            // Deadline precedes all fractional mass; its segment is empty of
            // mass but must still exist so its jobs are processed.
            segments.push(Segment {
                start: d - 1,
                deadline: d,
                y_sum: Rat::ZERO,
                jobs: vec![],
            });
            continue;
        }
        // Runs never straddle a deadline, and `t0` is a run start, so the
        // runs ending in (prev, d] are exactly the segment's slots.
        let mut y_sum = Rat::ZERO;
        while let Some((run, y)) = masses.next_if(|(run, _)| run.end <= d) {
            if run.start >= prev {
                y_sum = y_sum.add(y);
            }
        }
        debug_assert!(masses.peek().is_none_or(|(run, _)| run.start >= d));
        segments.push(Segment {
            start: prev,
            deadline: d,
            y_sum,
            jobs: vec![],
        });
        prev = d;
    }
    for (id, j) in inst.jobs().iter().enumerate() {
        let k = deadlines
            .binary_search(&j.deadline)
            .expect("every job deadline has a segment");
        segments[k].jobs.push(id);
    }
    RightShifted { segments }
}

/// Total `Σ_i Y_i` (equals the LP objective; checked in tests).
pub fn total_mass(rs: &RightShifted) -> Rat {
    rs.segments
        .iter()
        .fold(Rat::ZERO, |acc, s| acc.add(&s.y_sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::{fractional_feasible, solve_active_lp, SlotRun};

    fn rat(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    #[test]
    fn segments_cover_all_mass() {
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        let rs = right_shift(&inst, &lp);
        assert_eq!(total_mass(&rs), lp.objective);
        // Every job appears in exactly one segment.
        let total_jobs: usize = rs.segments.iter().map(|s| s.jobs.len()).sum();
        assert_eq!(total_jobs, inst.len());
    }

    #[test]
    fn per_run_segments_match_per_slot_sums() {
        let cases = [
            Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap(),
            Instance::from_triples([(0, 20, 3), (5, 25, 4), (10, 30, 2)], 2).unwrap(),
            Instance::from_triples([(3, 9, 2), (40, 52, 5), (41, 45, 2), (90, 99, 1)], 1).unwrap(),
        ];
        for inst in &cases {
            let lp = solve_active_lp(inst).unwrap();
            let rs = right_shift(inst, &lp);
            for seg in &rs.segments {
                let per_slot = lp
                    .slots
                    .iter()
                    .zip(&lp.y)
                    .filter(|&(t, _)| t > seg.start && t <= seg.deadline)
                    .fold(Rat::ZERO, |acc, (_, y)| acc.add(y));
                assert_eq!(seg.y_sum, per_slot, "segment ending {}", seg.deadline);
            }
            assert_eq!(total_mass(&rs), lp.objective);
        }
    }

    #[test]
    fn shifted_structure_is_right_aligned() {
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap();
        let lp = solve_active_lp(&inst).unwrap();
        let rs = right_shift(&inst, &lp);
        let slots = lp.slots.to_vec();
        let shifted_y = rs.shifted_y(&slots);
        // Within each segment: reading right-to-left we must see ones, then
        // at most one fractional value, then zeros (Observation 1).
        for seg in &rs.segments {
            let mut state = 0; // 0 = ones, 1 = fraction seen, 2 = zeros
            for (i, &t) in slots.iter().enumerate().rev() {
                if t > seg.deadline || t <= seg.start {
                    continue;
                }
                let y = shifted_y[i];
                match state {
                    0 if y == Rat::ONE => {}
                    0 if y.is_zero() => state = 2,
                    0 => state = 1,
                    1 if y.is_zero() => state = 2,
                    2 if y.is_zero() => {}
                    _ => panic!("segment ending {} not right-shifted", seg.deadline),
                }
            }
        }
    }

    #[test]
    fn right_shift_preserves_fractional_feasibility() {
        // Lemma 3 on a handful of small instances.
        let cases: Vec<Instance> = vec![
            Instance::from_triples([(0, 4, 2), (1, 3, 2), (2, 6, 1)], 2).unwrap(),
            Instance::from_triples([(0, 3, 1), (0, 3, 1), (1, 5, 3), (2, 4, 1)], 2).unwrap(),
            Instance::from_triples([(0, 6, 2), (3, 8, 4), (0, 2, 2)], 3).unwrap(),
        ];
        for inst in cases {
            let lp = solve_active_lp(&inst).unwrap();
            let rs = right_shift(&inst, &lp);
            let slots = lp.slots.to_vec();
            assert!(
                fractional_feasible(&inst, &slots, &rs.shifted_y(&slots)),
                "right-shifted solution must stay feasible (Lemma 3)"
            );
        }
    }

    #[test]
    fn figure4_shape() {
        // A hand-built check mirroring Fig. 4's mechanics: mass 2.17 in a
        // 4-slot segment becomes [_, 0.17, 1, 1].
        let inst = Instance::from_triples([(0, 4, 1)], 1).unwrap(); // shape only
        let lp = ActiveLp::from_runs(
            (0..4)
                .map(|t| SlotRun {
                    start: t,
                    end: t + 1,
                })
                .collect(),
            vec![rat(6, 10), rat(55, 100), rat(55, 100), rat(47, 100)],
            rat(217, 100),
        );
        let rs = right_shift(&inst, &lp);
        assert_eq!(
            rs.shifted_y(&[1, 2, 3, 4]),
            vec![Rat::ZERO, rat(17, 100), Rat::ONE, Rat::ONE]
        );
        assert_eq!(rs.segments.len(), 1);
        assert_eq!(rs.segments[0].y_sum, rat(217, 100));
    }
}
