//! The `BENCH_lp.json` schema (`abt-bench/lp-v3`): a typed writer/parser
//! pair so the CI perf gate ([`crate::gate`]) compares metrics by name,
//! not eyeballed artifacts.
//!
//! # Document layout
//!
//! The document is a single JSON object with exactly three keys:
//!
//! | key          | type   | meaning                                      |
//! |--------------|--------|----------------------------------------------|
//! | `schema`     | string | [`SCHEMA`] (`"abt-bench/lp-v3"`), or [`SCHEMA_V2`] on parse only; any other value is rejected |
//! | `lp_simplex` | object | the headline measurement of the shipping configuration ([`LpSimplexRecord`]) |
//! | `experiments`| array  | one object per experiment that ran ([`ExperimentRecord`]) |
//!
//! # `lp_simplex` — the headline record
//!
//! `solve_active_lp` on one fixed `random_active_feasible` instance under
//! the named shipping *candidate* configuration. Fields:
//!
//! | field          | type   | optional? | gate semantics                  |
//! |----------------|--------|-----------|---------------------------------|
//! | `bench`, `family` | string | written, ignored on parse | human context only |
//! | `n`, `g`, `horizon`, `seed` | number | required | instance identity; not gated directly |
//! | `objective`    | string | required  | exact rational optimum (e.g. `"797/4"`); **any change fails the gate** |
//! | `candidate`    | string | optional, default `"unnamed"` | committed and fresh must name the *same* configuration |
//! | `candidate_ms` | number | required  | wall time; informational        |
//! | `pivots`       | number | optional (0) | basis-changing pivots of one candidate solve; gated against `--max-effort-ratio` × committed, skipped when the committed value is 0 |
//! | `refactorizations` | number | optional (0) | LU refactorizations of one candidate solve; gated like `pivots` |
//! | `fallback`     | bool   | required  | `true` fails the gate           |
//!
//! # `experiments[]` — per-experiment rows
//!
//! | key          | type   | meaning                                      |
//! |--------------|--------|----------------------------------------------|
//! | `id`         | string | experiment id (`e1`…); rows are matched by id across records |
//! | `wall_ms`    | number | wall time; informational |
//! | `speedup`    | number | optional: an experiment-defined headline ratio (`e21`'s Auto-vs-Off LP1 speedup, `e22`'s cold/warm pivot ratio); informational |
//! | `busy_algos` | array  | optional: per-algorithm `{"algo", "cost", "ratio"}` objects ([`BusyAlgoRecord`]) of the busy sweeps `e24`/`e25` |
//! | `metrics`    | object | metric name → value over the experiment's run |
//!
//! **Naming rule.** A row's `metrics` is the
//! [`abt_core::obs::metrics::window`] delta over that experiment, so its
//! keys are exactly the names `--metrics` prints: counters as-is
//! (`lp.pivots`, `busy.lp.demotions`, span rollups as
//! `span.<name>.nanos` / `span.<name>.count`), gauges as `<gauge>_max`
//! (the exact in-row maximum) and `<gauge>_raises`, histograms as
//! `<hist>_count`, `_p50`, `_p90` and `_p99`. Units are the metric's own
//! (nanoseconds, microseconds, counts). Zero values are left out, and an
//! absent name reads as 0 ([`ExperimentRecord::metric`]). A metric added
//! anywhere in the workspace therefore reaches the rows with no edit
//! here. [`crate::gate`] documents which names the perf gate reads.
//!
//! # Reading `abt-bench/lp-v2` documents
//!
//! A v2 row spelled each metric as its own key. [`V2_METRICS`] maps every
//! v2 key that has a registry counterpart to its v3 name and scale; keys
//! not in the table were derived copies (a ratio of two counters, the
//! headline busy algorithm's cost and ratio) and are dropped. v2 rows
//! summed the active and busy halves into one key, which reads as the
//! `lp.*` name: exact for every gated row, none of which solves on both
//! halves.
//!
//! # Parsing
//!
//! The JSON subset used here (objects, arrays, UTF-8 strings with the
//! common escapes, numbers, booleans) is parsed by a tiny recursive
//! scanner — the offline dependency set has no serde, and the perf gate
//! must not depend on a `jq` binary being installed on the runner.
//! Unknown keys are ignored on parse (forward compatibility); missing
//! *required* keys are hard errors.

use std::collections::BTreeMap;

/// Schema tag written by this module.
pub const SCHEMA: &str = "abt-bench/lp-v3";

/// The previous schema tag, still accepted on parse (see [`V2_METRICS`]).
pub const SCHEMA_V2: &str = "abt-bench/lp-v2";

/// How an `abt-bench/lp-v2` row reads as v3 metrics: `(v2 key, v3 name,
/// scale)`, the v3 value being the v2 value × scale, rounded to the integer
/// every registry metric is.
pub const V2_METRICS: [(&str, &str, f64); 26] = [
    ("lp_solves", "lp.solves", 1.0),
    ("lp_pivots", "lp.pivots", 1.0),
    ("lp_bound_flips", "lp.bound_flips", 1.0),
    ("lp_refactorizations", "lp.refactorizations", 1.0),
    ("lp_certify_ms", "lp.certify_nanos", 1e6),
    ("lp_components", "lp.components", 1.0),
    ("lp_max_component_vars", "lp.max_component_vars_max", 1.0),
    ("warm_hits", "lp.warm_hits", 1.0),
    ("warm_pivots_saved", "lp.warm_pivots_saved", 1.0),
    ("demotions", "lp.demotions", 1.0),
    ("budget_trips", "lp.budget_trips", 1.0),
    ("quarantined", "lp.quarantined", 1.0),
    ("interval_accepts", "lp.interval_accepts", 1.0),
    ("interval_escalations", "lp.interval_escalations", 1.0),
    ("persist_restores", "lp.persist_restores", 1.0),
    ("recoveries", "lp.recoveries", 1.0),
    ("state_corrupt", "lp.state_corrupt", 1.0),
    ("admission_rejects", "lp.admission_rejects", 1.0),
    ("lp_p50_ms", "lp.solve_latency_us_p50", 1e3),
    ("lp_p90_ms", "lp.solve_latency_us_p90", 1e3),
    ("lp_p99_ms", "lp.solve_latency_us_p99", 1e3),
    ("phase_decompose_ms", "span.solve.decompose.nanos", 1e6),
    ("phase_warm_ms", "span.solve.warm.nanos", 1e6),
    ("phase_pivot_ms", "span.solve.pivot.nanos", 1e6),
    ("phase_certify_ms", "span.solve.certify.nanos", 1e6),
    ("phase_stitch_ms", "span.solve.stitch.nanos", 1e6),
];

/// The headline `lp_simplex` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSimplexRecord {
    /// Instance family parameters.
    pub n: u64,
    /// Capacity `g`.
    pub g: u64,
    /// Horizon length.
    pub horizon: i64,
    /// Generator seed.
    pub seed: u64,
    /// Exact LP optimum, rendered as a rational string (e.g. `"797/4"`).
    pub objective: String,
    /// Name of the candidate configuration (e.g. `"vub_implicit"`).
    pub candidate: String,
    /// Candidate wall time, ms.
    pub candidate_ms: f64,
    /// Basis-changing pivots of one candidate solve (0 in older records).
    pub pivots: u64,
    /// LU refactorizations of one candidate solve (0 in older records).
    pub refactorizations: u64,
    /// Whether the candidate solve needed the exact fallback.
    pub fallback: bool,
}

/// One experiment's row: wall time, the experiment's own headline
/// numbers, and every metric the run recorded (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`e1`…).
    pub id: String,
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Experiment-defined headline ratio (e.g. `e21`'s Auto-vs-Off LP1
    /// speedup, `e22`'s cold/warm pivot-effort ratio); `None` for
    /// experiments without one.
    pub speedup: Option<f64>,
    /// Per-algorithm busy summaries (empty for non-busy experiments).
    pub busy_algos: Vec<BusyAlgoRecord>,
    /// Metric name → value over the experiment's run; zeros left out.
    pub metrics: BTreeMap<String, f64>,
}

impl ExperimentRecord {
    /// The value of metric `name` over this row (0 when absent).
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// One algorithm's aggregate over a busy experiment's instance families:
/// total cost and the worst observed cost/lower-bound ratio. Costs are
/// exact integers and the instance streams are seeded, so both values
/// are bit-deterministic and the perf gate can compare them across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BusyAlgoRecord {
    /// `IntervalAlgo::name()` of the algorithm.
    pub algo: String,
    /// Total busy time summed over every instance of the experiment.
    pub cost: u64,
    /// Max over instances of `cost / busy_lower_bounds(inst).best()`.
    pub ratio: f64,
}

/// The whole `BENCH_lp.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Headline measurement.
    pub lp_simplex: LpSimplexRecord,
    /// Per-experiment rows.
    pub experiments: Vec<ExperimentRecord>,
}

/// JSON string escaping for the writer (`"`, `\\`, and control bytes; the
/// strings here are rational literals, experiment ids and metric names,
/// but the writer must never emit invalid JSON whatever it is handed).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchRecord {
    /// Serializes to the canonical [`SCHEMA`] layout.
    pub fn to_json(&self) -> String {
        let s = &self.lp_simplex;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!(
            concat!(
                "  \"lp_simplex\": {{\"bench\": \"solve_active_lp\", ",
                "\"family\": \"random_active_feasible\", ",
                "\"n\": {}, \"g\": {}, \"horizon\": {}, \"seed\": {}, ",
                "\"objective\": \"{}\", ",
                "\"candidate\": \"{}\", \"candidate_ms\": {:.3}, ",
                "\"pivots\": {}, \"refactorizations\": {}, ",
                "\"fallback\": {}}},\n"
            ),
            s.n,
            s.g,
            s.horizon,
            s.seed,
            esc(&s.objective),
            esc(&s.candidate),
            s.candidate_ms,
            s.pivots,
            s.refactorizations,
            s.fallback,
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"wall_ms\": {:.3}",
                esc(&e.id),
                e.wall_ms
            ));
            if let Some(speedup) = e.speedup {
                out.push_str(&format!(", \"speedup\": {speedup:.2}"));
            }
            if !e.busy_algos.is_empty() {
                let entries: Vec<String> = e
                    .busy_algos
                    .iter()
                    .map(|b| {
                        format!(
                            "{{\"algo\": \"{}\", \"cost\": {}, \"ratio\": {:.4}}}",
                            esc(&b.algo),
                            b.cost,
                            b.ratio
                        )
                    })
                    .collect();
                out.push_str(&format!(", \"busy_algos\": [{}]", entries.join(", ")));
            }
            // `{}` on f64 prints the shortest string that parses back to
            // the same value, so integer counts stay integers.
            let metrics: Vec<String> = e
                .metrics
                .iter()
                .map(|(name, v)| format!("\"{}\": {v}", esc(name)))
                .collect();
            out.push_str(&format!(", \"metrics\": {{{}}}}}", metrics.join(", ")));
            out.push_str(if i + 1 < self.experiments.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `BENCH_lp.json` document ([`SCHEMA`], or [`SCHEMA_V2`]
    /// through [`V2_METRICS`]).
    pub fn from_json(text: &str) -> Result<BenchRecord, String> {
        let value = Json::parse(text)?;
        let top = value.as_object("top level")?;
        let schema = get(top, "schema")?.as_str("schema")?;
        let v2 = match schema {
            SCHEMA => false,
            SCHEMA_V2 => true,
            other => return Err(format!("unsupported schema {other:?}, want {SCHEMA:?}")),
        };
        let lp = get(top, "lp_simplex")?.as_object("lp_simplex")?;
        let opt_num = |obj: &BTreeMap<String, Json>, key: &str| -> f64 {
            obj.get(key).and_then(|v| v.as_f64(key).ok()).unwrap_or(0.0)
        };
        let lp_simplex = LpSimplexRecord {
            n: get(lp, "n")?.as_f64("n")? as u64,
            g: get(lp, "g")?.as_f64("g")? as u64,
            horizon: get(lp, "horizon")?.as_f64("horizon")? as i64,
            seed: get(lp, "seed")?.as_f64("seed")? as u64,
            objective: get(lp, "objective")?.as_str("objective")?.to_string(),
            candidate: match lp.get("candidate") {
                Some(v) => v.as_str("candidate")?.to_string(),
                None => "unnamed".to_string(),
            },
            candidate_ms: get(lp, "candidate_ms")?.as_f64("candidate_ms")?,
            pivots: opt_num(lp, "pivots") as u64,
            refactorizations: opt_num(lp, "refactorizations") as u64,
            fallback: get(lp, "fallback")?.as_bool("fallback")?,
        };
        let mut experiments = Vec::new();
        for (i, e) in get(top, "experiments")?
            .as_array("experiments")?
            .iter()
            .enumerate()
        {
            let e = e.as_object(&format!("experiments[{i}]"))?;
            let metrics = if v2 {
                V2_METRICS
                    .iter()
                    .filter_map(|&(key, name, scale)| {
                        let v = e.get(key)?.as_f64(key);
                        Some(v.map(|v| (name.to_string(), (v * scale).round())))
                    })
                    .collect::<Result<_, _>>()?
            } else {
                match e.get("metrics") {
                    None => BTreeMap::new(),
                    Some(m) => m
                        .as_object("metrics")?
                        .iter()
                        .map(|(name, v)| Ok((name.clone(), v.as_f64(name)?)))
                        .collect::<Result<_, String>>()?,
                }
            };
            let mut busy_algos = Vec::new();
            if let Some(v) = e.get("busy_algos") {
                for (k, b) in v.as_array("busy_algos")?.iter().enumerate() {
                    let b = b.as_object(&format!("busy_algos[{k}]"))?;
                    busy_algos.push(BusyAlgoRecord {
                        algo: get(b, "algo")?.as_str("algo")?.to_string(),
                        cost: opt_num(b, "cost") as u64,
                        ratio: opt_num(b, "ratio"),
                    });
                }
            }
            experiments.push(ExperimentRecord {
                id: get(e, "id")?.as_str("id")?.to_string(),
                wall_ms: get(e, "wall_ms")?.as_f64("wall_ms")?,
                speedup: e.get("speedup").and_then(|v| v.as_f64("speedup").ok()),
                busy_algos,
                metrics,
            });
        }
        Ok(BenchRecord {
            lp_simplex,
            experiments,
        })
    }
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// A minimal JSON value (the subset `BENCH_lp.json` uses).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Object(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }
    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(v) => Ok(v),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }
    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }
    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }
    fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(v) => Ok(*v),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }

    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(out));
            }
            loop {
                out.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {s:?} at byte {start}: {e}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    // Accumulate raw bytes and decode as UTF-8 at the end, so multi-byte
    // characters survive the round trip.
    let mut out: Vec<u8> = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|e| format!("invalid UTF-8 in string: {e}"))
            }
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs are outside this subset.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| format!("unsupported \\u codepoint {code:#x}"))?;
                        out.extend_from_slice(ch.to_string().as_bytes());
                    }
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        let metrics = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        BenchRecord {
            lp_simplex: LpSimplexRecord {
                n: 200,
                g: 4,
                horizon: 400,
                seed: 7,
                objective: "797/4".into(),
                candidate: "vub_implicit".into(),
                candidate_ms: 46.811,
                pivots: 5123,
                refactorizations: 87,
                fallback: false,
            },
            experiments: vec![
                ExperimentRecord {
                    id: "e1".into(),
                    wall_ms: 0.091,
                    speedup: None,
                    busy_algos: Vec::new(),
                    metrics: BTreeMap::new(),
                },
                ExperimentRecord {
                    id: "e3".into(),
                    wall_ms: 3.351,
                    speedup: Some(3.75),
                    busy_algos: vec![
                        BusyAlgoRecord {
                            algo: "LpRounding".into(),
                            cost: 321,
                            ratio: 1.25,
                        },
                        BusyAlgoRecord {
                            algo: "FirstFit".into(),
                            cost: 400,
                            ratio: 2.5,
                        },
                    ],
                    metrics: metrics(&[
                        ("lp.solves", 16.0),
                        ("lp.pivots", 420.0),
                        ("lp.certify_nanos", 1_250_000.0),
                        ("lp.max_component_vars_max", 96.0),
                        ("lp.solve_latency_us_p99", 2751.0),
                        ("span.solve.stitch.nanos", 62_500.0),
                        ("busy.lp.demotions", 2.0),
                        ("scaled.value", 0.1 + 0.2),
                    ]),
                },
            ],
        }
    }

    #[test]
    fn roundtrips() {
        let rec = sample();
        let json = rec.to_json();
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        let back = BenchRecord::from_json(&json).unwrap();
        assert_eq!(back, rec, "metric values round-trip bit for bit");
        assert_eq!(back.experiments[1].metric("lp.pivots"), 420.0);
        assert_eq!(back.experiments[1].metric("lp.never_recorded"), 0.0);
    }

    #[test]
    fn parses_records_without_telemetry_fields() {
        // An earlier lp-v2 document (no counter fields, no candidate
        // name, no effort counts, a legacy baseline/speedup pair) still
        // parses, with defaults; the counters it has read as v3 names.
        let txt = r#"{ "schema": "abt-bench/lp-v2",
            "lp_simplex": {"n": 1, "g": 1, "horizon": 2, "seed": 0,
                "objective": "0", "baseline_ms": 1.0, "candidate_ms": 0.5,
                "speedup": 2.0, "fallback": false},
            "experiments": [
                {"id": "e1", "wall_ms": 3.0, "lp_solves": 4,
                 "fallback_rate": 0.0, "lp_certify_ms": 1.5, "lp_p99_ms": 0.25,
                 "busy_cost": 835, "busy_ratio": 1.7391}
            ] }"#;
        let rec = BenchRecord::from_json(txt).unwrap();
        assert_eq!(rec.lp_simplex.candidate, "unnamed");
        assert_eq!(rec.lp_simplex.pivots, 0);
        assert_eq!(rec.lp_simplex.refactorizations, 0);
        let row = &rec.experiments[0];
        assert_eq!(row.speedup, None);
        assert!(row.busy_algos.is_empty());
        assert_eq!(row.metric("lp.solves"), 4.0);
        assert_eq!(row.metric("lp.pivots"), 0.0);
        assert_eq!(row.metric("lp.certify_nanos"), 1.5e6);
        assert_eq!(row.metric("lp.solve_latency_us_p99"), 250.0);
        // Derived copies have no v3 name and are dropped.
        assert_eq!(row.metrics.len(), 3);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        let json = sample().to_json().replace(SCHEMA, "abt-bench/lp-v1");
        assert!(BenchRecord::from_json(&json).is_err());
        assert!(BenchRecord::from_json("{").is_err());
        assert!(BenchRecord::from_json("not json").is_err());
        assert!(BenchRecord::from_json("{\"schema\": \"abt-bench/lp-v3\"}").is_err());
        let bad_metric = sample()
            .to_json()
            .replace("\"lp.pivots\": 420", "\"lp.pivots\": \"420\"");
        assert!(BenchRecord::from_json(&bad_metric).is_err());
    }

    #[test]
    fn escapes_and_utf8_roundtrip() {
        let mut rec = sample();
        rec.experiments[0].id = "e\"1\\π".into();
        rec.experiments[0].metrics.insert("µ\"s".into(), 7.0);
        rec.lp_simplex.objective = "7/4 µs".into();
        let back = BenchRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.experiments[0], rec.experiments[0]);
        assert_eq!(back.lp_simplex.objective, rec.lp_simplex.objective);
    }

    #[test]
    fn parses_whitespace_and_empty_collections() {
        let txt = r#"{ "schema": "abt-bench/lp-v3",
            "lp_simplex": {"n": 1, "g": 1, "horizon": 2, "seed": 0,
                "objective": "0", "candidate_ms": 0.5, "fallback": false},
            "experiments": [ {"id": "e1", "wall_ms": 1.0, "metrics": { }} ] }"#;
        let rec = BenchRecord::from_json(txt).unwrap();
        assert!(rec.experiments[0].metrics.is_empty());
        assert_eq!(rec.lp_simplex.candidate_ms, 0.5);
        let txt = txt.replace(r#"{"id": "e1", "wall_ms": 1.0, "metrics": { }}"#, "");
        assert!(BenchRecord::from_json(&txt).unwrap().experiments.is_empty());
    }
}
