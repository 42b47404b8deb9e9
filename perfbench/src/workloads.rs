//! The four workloads: seeded input generation, one request each, and the
//! correctness checks every request passes through.
//!
//! Inputs reach the crates only as `abt_core::io` text, so parsing is part
//! of every request. Each request calls the crates' public functions inside
//! [`Tracer::call`] spans named after the layer they exercise; the span
//! names are the `<module>` part of the per-layer metric names.

use crate::trace::Tracer;
use abt_active::{
    admission_precheck, feasible_on, lp_rounding_from, lp_telemetry, right_shift,
    solve_active_lp_with, ActiveLp, IncrementalSolver, LpOptions, LpTelemetry, RightShifted,
    RoundingOutcome,
};
use abt_busy::{
    busy_lp_telemetry, lp_rounding_run, solve_with_placement, span_place, IntervalAlgo,
    LpRoundingRun, SpanPlacement,
};
use abt_core::active_schedule::horizon_slots;
use abt_core::io::{read_instance, write_instance};
use abt_core::{
    busy_lower_bounds, within_factor, ActiveSchedule, BusySchedule, Error, Instance, Job,
};
use abt_lp::Rat;
use abt_workloads::{online_arrivals, random_active_feasible, random_flexible};
use abt_workloads::{OnlineArrivalsConfig, RandomConfig};
use std::collections::BTreeMap;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["active_lp", "active_horizon", "arrival_stream", "busy_pack"];

/// Deterministic per-layer counts and quality samples, accumulated over
/// the first pass of a run (the same requests for the same seed).
#[derive(Default)]
pub struct Counts {
    n: BTreeMap<&'static str, u64>,
    pub ratio_sum: f64,
    pub ratio_n: u64,
}

impl Counts {
    fn add(&mut self, key: &'static str, v: u64) {
        *self.n.entry(key).or_insert(0) += v;
    }

    fn ratio(&mut self, r: f64) {
        self.ratio_sum += r;
        self.ratio_n += 1;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.n.get(key).copied().unwrap_or(0)
    }

    /// Adds the effort of cold `solve_active_lp_with` calls.
    fn add_lp(&mut self, d: &LpTelemetry) {
        self.add("lp_model.pivots", d.pivots);
        self.add("lp_model.refactorizations", d.refactorizations);
        self.add("lp_model.bound_flips", d.bound_flips);
        self.add("lp_model.components", d.components);
        self.add("lp_model.interval_escalations", d.interval_escalations);
        self.add("lp_model.demotions", d.demotions);
        self.add("lp_model.fallbacks", d.fallbacks);
    }
}

/// What a request that passed every check produced.
pub enum Outcome {
    /// A validated, certified schedule (or LP optimum).
    Certified,
    /// An infeasible instance refused, as it must be: by admission, or
    /// by LP1 with a flow check confirming the verdict.
    Refused,
}

pub type RequestResult = Result<Outcome, String>;

/// A workload: a fixed, seeded pass of requests that a run cycles through.
pub trait Workload {
    /// Requests in one pass over the generated inputs.
    fn pass_len(&self) -> usize;
    /// Runs request `k` of the pass (`k < pass_len()`), checking its output.
    fn run(&mut self, k: usize, t: &mut Tracer, counts: &mut Counts) -> RequestResult;
    /// Makes later requests corrupt their outputs before the checks run.
    fn corrupt_outputs(&mut self);
}

/// Builds the named workload from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "active_lp" => Box::new(ActivePipeline::active_lp(seed)),
        "active_horizon" => Box::new(ActivePipeline::active_horizon(seed)),
        "arrival_stream" => Box::new(ArrivalStream::new(seed)),
        "busy_pack" => Box::new(BusyPack::new(seed)),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's own seeded choices (which requests are
/// over capacity, which mutations an episode makes).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn err(layer: &str, e: impl std::fmt::Display) -> String {
    format!("{layer}: {e}")
}

// ---------------------------------------------------------------------------
// active_lp / active_horizon: read → admission → LP1 → right-shift →
// rounding → validate.
// ---------------------------------------------------------------------------

struct ActiveRequest {
    text: String,
    over_capacity: bool,
}

pub struct ActivePipeline {
    requests: Vec<ActiveRequest>,
    corrupt: bool,
}

/// Instances per pass of `active_lp`; every tenth is over capacity.
const ACTIVE_LP_PASS: usize = 200;
/// Instances per pass of `active_horizon`.
const ACTIVE_HORIZON_PASS: usize = 80;
/// Coordinate scale of `active_horizon` (about 1e5 slots per instance).
const HORIZON_SCALE: i64 = 1000;

impl ActivePipeline {
    fn active_lp(seed: u64) -> ActivePipeline {
        let mut mix = Mix(seed);
        let requests = (0..ACTIVE_LP_PASS)
            .map(|i| {
                let cfg = RandomConfig {
                    n: 200,
                    g: [2, 3, 5][i % 3],
                    horizon: 400,
                    max_len: 12,
                    slack_factor: 1.0,
                };
                let mut inst = random_active_feasible(&cfg, mix.next());
                let over_capacity = i % 10 == 9;
                if over_capacity {
                    // g + 1 interval jobs confined to one window of length
                    // len demand (g + 1)·len > g·len: infeasible for sure.
                    let len = 1 + mix.below(cfg.max_len as u64) as i64;
                    let a = mix.below((cfg.horizon - len) as u64) as i64;
                    for _ in 0..=cfg.g {
                        inst.push(Job::interval(a, a + len));
                    }
                }
                ActiveRequest {
                    text: write_instance(&inst),
                    over_capacity,
                }
            })
            .collect();
        ActivePipeline {
            requests,
            corrupt: false,
        }
    }

    fn active_horizon(seed: u64) -> ActivePipeline {
        let mut mix = Mix(seed);
        // One capacity: with g = 3 a few instances run 5x longer than the
        // rest, and their share of a pass would set latency_p90_ms.
        let requests = (0..ACTIVE_HORIZON_PASS)
            .map(|_| {
                let cfg = RandomConfig {
                    n: 30,
                    g: 2,
                    horizon: 100,
                    max_len: 10,
                    slack_factor: 1.0,
                };
                let base = random_active_feasible(&cfg, mix.next());
                // Scaling every coordinate keeps the instance feasible
                // (stretch a feasible schedule) and multiplies the slots.
                let jobs = base
                    .jobs()
                    .iter()
                    .map(|j| {
                        Job::new(
                            j.release * HORIZON_SCALE,
                            j.deadline * HORIZON_SCALE,
                            j.length * HORIZON_SCALE,
                        )
                    })
                    .collect();
                let inst = Instance::new(jobs, cfg.g).expect("scaled jobs stay valid");
                ActiveRequest {
                    text: write_instance(&inst),
                    over_capacity: false,
                }
            })
            .collect();
        ActivePipeline {
            requests,
            corrupt: false,
        }
    }
}

impl Workload for ActivePipeline {
    fn pass_len(&self) -> usize {
        self.requests.len()
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }

    fn run(&mut self, k: usize, t: &mut Tracer, counts: &mut Counts) -> RequestResult {
        let req = &self.requests[k];
        let inst = t
            .call("io.read_instance", || read_instance(&req.text))
            .map_err(|e| err("io", e))?;
        let admitted = t.call("admission.precheck", || admission_precheck(&inst));
        match (admitted, req.over_capacity) {
            (Err(_), true) => {
                counts.add("admission.rejects", 1);
                return Ok(Outcome::Refused);
            }
            (Err(e), false) => return Err(err("admission refused a feasible instance", e)),
            (Ok(()), true) => return Err("admission accepted an over-capacity instance".into()),
            (Ok(()), false) => {}
        }
        let before = lp_telemetry();
        let lp = t
            .call("lp_model.solve", || {
                solve_active_lp_with(&inst, &LpOptions::default())
            })
            .map_err(|e| err("lp_model", e))?;
        counts.add_lp(&lp_telemetry().delta(&before));
        let shifted = t.call("right_shift", || right_shift(&inst, &lp));
        let mut out = t
            .call("rounding", || lp_rounding_from(&inst, &lp))
            .map_err(|e| err("rounding", e))?;
        counts.add("rounding.repair_slots", out.repair_slots as u64);
        counts.add("rounding.anomalies", out.anomalies as u64);
        if self.corrupt {
            out.schedule = drop_busiest_slot(&out.schedule, &inst);
        }
        certify_active(&inst, &lp, &shifted, &out, t)?;
        counts.ratio(out.cost as f64 / lp.objective.to_f64());
        Ok(Outcome::Certified)
    }
}

/// The schedule with its most loaded active slot closed (jobs keep their
/// assignment), which a correct checker must reject.
fn drop_busiest_slot(s: &ActiveSchedule, inst: &Instance) -> ActiveSchedule {
    let loads = s.slot_loads();
    let busiest = loads.iter().max_by_key(|(_, &l)| l).map(|(&t, _)| t);
    let active = s
        .active_slots()
        .iter()
        .copied()
        .filter(|&t| Some(t) != busiest);
    ActiveSchedule::new(
        active,
        (0..inst.len()).map(|j| s.job_slots(j).to_vec()).collect(),
    )
}

/// Every check an active-time answer must pass: a valid schedule whose
/// cost is the reported one, `LP ≤ cost ≤ 2·LP` in exact rationals
/// (Theorem 2), and a right-shift that keeps the LP mass (Lemma 3).
fn certify_active(
    inst: &Instance,
    lp: &ActiveLp,
    shifted: &RightShifted,
    out: &RoundingOutcome,
    t: &mut Tracer,
) -> Result<(), String> {
    t.call("active_schedule.validate", || out.schedule.validate(inst))
        .map_err(|e| err("active_schedule", e))?;
    t.call("harness.check", || {
        if out.schedule.cost() != out.cost {
            return Err(format!(
                "schedule opens {} slots, rounding reported {}",
                out.schedule.cost(),
                out.cost
            ));
        }
        if out.lp_objective != lp.objective {
            return Err("rounding carried a different LP objective".into());
        }
        if !out.within_two_lp() {
            return Err(format!("cost {} exceeds 2·LP", out.cost));
        }
        if lp.objective > Rat::from_int(out.cost) {
            return Err(format!("integral cost {} undercuts the LP bound", out.cost));
        }
        Ok(())
    })?;
    t.call("harness.check", || {
        let mass = shifted
            .segments
            .iter()
            .fold(Rat::ZERO, |acc, s| acc.add(&s.y_sum));
        if mass == lp.objective {
            Ok(())
        } else {
            Err("right-shift changed the LP mass".into())
        }
    })
}

// ---------------------------------------------------------------------------
// arrival_stream: one IncrementalSolver per episode, fed an online-arrivals
// trace with writes mixed in; the episode ends with a cold re-solve.
// ---------------------------------------------------------------------------

enum Op {
    /// A job arrives as instance text; `add_job` then `solve`.
    Arrive(String),
    /// Remove the job that arrived `n`-th in this episode.
    Remove(usize),
    /// Widen the window of the job that arrived `n`-th by `(left, right)`.
    Widen(usize, i64, i64),
}

struct Episode {
    ops: Vec<Op>,
}

pub struct ArrivalStream {
    episodes: Vec<Episode>,
    /// `(episode, op)` of every request of a pass, in order.
    schedule: Vec<(usize, usize)>,
    cfg: OnlineArrivalsConfig,
    solver: Option<IncrementalSolver>,
    /// Handle and current job of every arrival of the running episode.
    arrived: Vec<(usize, Job)>,
    /// The objective of the episode's latest solve; `None` when that
    /// solve found the arrivals infeasible.
    last: Option<Rat>,
    corrupt: bool,
}

/// Episodes per pass of `arrival_stream`.
const EPISODES: usize = 24;
/// One write (remove or widen) after every this many arrivals.
const WRITE_EVERY: usize = 4;

impl ArrivalStream {
    fn new(seed: u64) -> ArrivalStream {
        let cfg = OnlineArrivalsConfig {
            clusters: 16,
            jobs_per_cluster: 6,
            templates: 3,
            g: 3,
            span: 24,
            gap: 4,
            max_len: 5,
        };
        let mut mix = Mix(seed);
        let episodes: Vec<Episode> = (0..EPISODES)
            .map(|_| {
                let trace = online_arrivals(&cfg, mix.next());
                let mut ops = Vec::new();
                let mut live: Vec<usize> = Vec::new();
                let arrivals = trace.jobs.len();
                for (n, job) in trace.jobs.iter().enumerate() {
                    let one = Instance::new(vec![*job], trace.g).expect("one job is valid");
                    ops.push(Op::Arrive(write_instance(&one)));
                    live.push(n);
                    // Writes never come last: an episode ends on a solve.
                    if (n + 1) % WRITE_EVERY == 0 && n + 1 < arrivals {
                        let pick = mix.below(live.len() as u64) as usize;
                        if mix.below(2) == 0 {
                            ops.push(Op::Remove(live.swap_remove(pick)));
                        } else {
                            // Less than the inter-stripe gap, so windows of
                            // different stripes still never meet.
                            let left = mix.below(cfg.gap as u64 / 2) as i64;
                            let right = mix.below(cfg.gap as u64 / 2) as i64;
                            ops.push(Op::Widen(live[pick], left, right));
                        }
                    }
                }
                Episode { ops }
            })
            .collect();
        let schedule = episodes
            .iter()
            .enumerate()
            .flat_map(|(e, ep)| (0..ep.ops.len()).map(move |i| (e, i)))
            .collect();
        ArrivalStream {
            episodes,
            schedule,
            cfg,
            solver: None,
            arrived: Vec::new(),
            last: None,
            corrupt: false,
        }
    }

    /// After the last op of an episode, its answer must equal a cold solve
    /// of the final instance bit for bit, or both must find it infeasible.
    fn end_episode(
        &mut self,
        e: usize,
        i: usize,
        t: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(), String> {
        if i + 1 != self.episodes[e].ops.len() {
            return Ok(());
        }
        let solver = self.solver.as_ref().ok_or("episode has no solver")?;
        let inst = solver.instance().map_err(|e| err("incremental", e))?;
        let before = lp_telemetry();
        let cold = t.call("lp_model.solve", || {
            solve_active_lp_with(&inst, &LpOptions::default())
        });
        counts.add_lp(&lp_telemetry().delta(&before));
        let got = self.last;
        match (got, cold) {
            (Some(got), Ok(cold)) => {
                t.call("harness.check", || {
                    if got == cold.objective {
                        Ok(())
                    } else {
                        Err(format!(
                            "incremental objective {got:?} differs from cold {:?}",
                            cold.objective
                        ))
                    }
                })?;
                counts.ratio(got.to_f64() / cold.objective.to_f64());
                Ok(())
            }
            (None, Err(Error::Infeasible(_))) => Ok(()),
            (None, Ok(_)) => Err("incremental found infeasible what a cold solve solved".into()),
            (_, Err(e)) => Err(err("lp_model", e)),
        }
    }
}

/// Whether an infeasible verdict is right: a max-flow check of the
/// instance with every slot of its horizon open, independent of LP1.
fn check_infeasible(inst: &Instance) -> Result<(), String> {
    if feasible_on(inst, &horizon_slots(inst)) {
        Err("LP1 called a feasible instance infeasible".into())
    } else {
        Ok(())
    }
}

impl Workload for ArrivalStream {
    fn pass_len(&self) -> usize {
        self.schedule.len()
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }

    fn run(&mut self, k: usize, t: &mut Tracer, counts: &mut Counts) -> RequestResult {
        let (e, i) = self.schedule[k];
        if i == 0 {
            self.solver =
                Some(IncrementalSolver::new(self.cfg.g).map_err(|e| err("incremental", e))?);
            self.arrived.clear();
        }
        let solver = self.solver.as_mut().ok_or("episode has no solver")?;
        let episode = &self.episodes[e];
        match &episode.ops[i] {
            Op::Arrive(text) => {
                let one = t
                    .call("io.read_instance", || read_instance(text))
                    .map_err(|e| err("io", e))?;
                let job = *one.jobs().first().ok_or("arrival text holds no job")?;
                let h = t.call("incremental.mutate", || solver.add_job(job));
                self.arrived.push((h, job));
                let before = lp_telemetry();
                let solved = t.call("incremental.solve", || solver.solve());
                counts.add("incremental.pivots", lp_telemetry().delta(&before).pivots);
                // `online_arrivals` promises feasible prefixes, but its
                // length caps check only g × width per window interval, so
                // a few arrivals do overload their stripe. Refusing those
                // is the right answer, once a flow check confirms it.
                let mut rep = match solved {
                    Ok(rep) => rep,
                    Err(Error::Infeasible(_)) => {
                        let inst = solver.instance().map_err(|e| err("incremental", e))?;
                        t.call("harness.check", || check_infeasible(&inst))?;
                        self.last = None;
                        return self.end_episode(e, i, t, counts).map(|()| Outcome::Refused);
                    }
                    Err(e) => return Err(err("incremental", e)),
                };
                counts.add("incremental.components", rep.components as u64);
                counts.add("incremental.reused", rep.reused as u64);
                counts.add("incremental.warm_attempts", rep.warm_attempts as u64);
                counts.add("incremental.warm_hits", rep.warm_hits as u64);
                counts.add("incremental.cold_solves", rep.cold_solves as u64);
                if self.corrupt {
                    rep.lp.objective = rep.lp.objective.add(&Rat::new(1, 1000));
                }
                t.call("harness.check", || {
                    let total_length: i64 = solver.jobs().iter().map(|j| j.length).sum();
                    check_lp_shape(&rep.lp, total_length, self.cfg.g as i64)
                })?;
                self.last = Some(rep.lp.objective);
            }
            Op::Remove(n) => {
                let h = self.arrived[*n].0;
                t.call("incremental.mutate", || solver.remove_job(h))
                    .map_err(|e| err("incremental", e))?;
            }
            Op::Widen(n, left, right) => {
                let (h, job) = &mut self.arrived[*n];
                let (r, d) = ((job.release - left).max(0), job.deadline + right);
                t.call("incremental.mutate", || solver.update_window(*h, r, d))
                    .map_err(|e| err("incremental", e))?;
                *job = Job::new(r, d, job.length);
            }
        }
        self.end_episode(e, i, t, counts)
            .map(|()| Outcome::Certified)
    }
}

/// Cheap exact checks of an LP1 optimum: `y` covers the slots, each
/// `0 ≤ y_t ≤ 1`, `Σ y_t` is the objective, and the objective is at least
/// the mass bound `P / g`.
fn check_lp_shape(lp: &ActiveLp, total_length: i64, g: i64) -> Result<(), String> {
    if lp.slots.len() != lp.y.len() {
        return Err("LP y does not cover its slots".into());
    }
    let mut sum = Rat::ZERO;
    for y in &lp.y {
        if y.signum() < 0 || y.numer() > y.denom() {
            return Err(format!("LP y value {y:?} outside [0, 1]"));
        }
        sum = sum.add(y);
    }
    if sum != lp.objective {
        return Err("LP objective is not the sum of y".into());
    }
    if lp.objective.numer() * g as i128 >= total_length as i128 * lp.objective.denom() {
        Ok(())
    } else {
        Err("LP objective undercuts the mass bound P/g".into())
    }
}

// ---------------------------------------------------------------------------
// busy_pack: span placement → GreedyTracking, and the busy LP rounding, on
// the same placed instance.
// ---------------------------------------------------------------------------

pub struct BusyPack {
    texts: Vec<String>,
    corrupt: bool,
}

/// Instances per pass of `busy_pack`.
const BUSY_PASS: usize = 200;

impl BusyPack {
    fn new(seed: u64) -> BusyPack {
        let mut mix = Mix(seed);
        let texts = (0..BUSY_PASS)
            .map(|i| {
                let cfg = RandomConfig {
                    n: 100,
                    g: [2, 3, 4][i % 3],
                    horizon: 200,
                    max_len: 10,
                    slack_factor: 1.0,
                };
                write_instance(&random_flexible(&cfg, mix.next()))
            })
            .collect();
        BusyPack {
            texts,
            corrupt: false,
        }
    }
}

impl Workload for BusyPack {
    fn pass_len(&self) -> usize {
        self.texts.len()
    }

    fn corrupt_outputs(&mut self) {
        self.corrupt = true;
    }

    fn run(&mut self, k: usize, t: &mut Tracer, counts: &mut Counts) -> RequestResult {
        let inst = t
            .call("io.read_instance", || read_instance(&self.texts[k]))
            .map_err(|e| err("io", e))?;
        let placement = t.call("span.place", || span_place(&inst));
        let mut gt = t
            .call("greedy_tracking", || {
                solve_with_placement(&inst, &placement, IntervalAlgo::GreedyTracking)
            })
            .map_err(|e| err("greedy_tracking", e))?
            .schedule;
        let placed = t
            .call("span.place", || inst.fix_starts(&placement.starts))
            .map_err(|e| err("span", e))?;
        let before = busy_lp_telemetry();
        let lpr = t
            .call("busy_lp.solve", || lp_rounding_run(&placed))
            .map_err(|e| err("busy_lp", e))?;
        let d = busy_lp_telemetry().delta(&before);
        counts.add("busy_lp.pivots", d.pivots);
        counts.add("busy_lp.demotions", d.demotions);
        if self.corrupt {
            // Drop one job: every job must be scheduled exactly once.
            if let Some(b) = gt.bundles.iter_mut().find(|b| !b.items.is_empty()) {
                b.items.pop();
            }
        }
        let gt_cost = certify_busy(&inst, &placed, &placement, &gt, &lpr, t)?;
        let profile = t.call("harness.check", || busy_lower_bounds(&placed).profile);
        counts.ratio(gt_cost as f64 / profile as f64);
        Ok(Outcome::Certified)
    }
}

/// Every check a busy-time answer must pass: both schedules valid on the
/// original instance, each cost at least the lower bounds, GreedyTracking
/// within 3× (§4) and the LP rounding within 4·LP in exact rationals.
/// Returns the GreedyTracking cost.
fn certify_busy(
    inst: &Instance,
    placed: &Instance,
    placement: &SpanPlacement,
    gt: &BusySchedule,
    lpr: &LpRoundingRun,
    t: &mut Tracer,
) -> Result<i64, String> {
    t.call("busy_schedule.validate", || {
        gt.validate(inst)?;
        lpr.schedule.validate(inst)
    })
    .map_err(|e| err("busy_schedule", e))?;
    t.call("harness.check", || {
        let gt_cost = gt.total_busy_time(inst);
        let lb = busy_lower_bounds(placed)
            .best()
            .max(busy_lower_bounds(inst).best());
        if gt_cost < lb || lpr.cost < lb {
            return Err(format!(
                "a cost undercuts the lower bound {lb}: GreedyTracking {gt_cost}, LP rounding {}",
                lpr.cost
            ));
        }
        if lpr.cost != lpr.schedule.total_busy_time(inst) {
            return Err("LP rounding reported a cost its schedule does not have".into());
        }
        if !within_factor(gt_cost, 3, lb.max(placement.cost)) {
            return Err(format!(
                "GreedyTracking cost {gt_cost} exceeds 3× its bound"
            ));
        }
        if !lpr.within_four_lp() {
            return Err(format!("LP rounding cost {} exceeds 4·LP", lpr.cost));
        }
        Ok(gt_cost)
    })
}
