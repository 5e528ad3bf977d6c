#![forbid(unsafe_code)]

//! The benchmark harness and its shared fixtures.
//!
//! Each bench target regenerates one experiment from DESIGN.md's
//! per-experiment index (E2–E10); EXPERIMENTS.md records the measured
//! numbers next to the paper's qualitative claims. Every target is a plain
//! `fn main()` on top of this module: it times with [`time_ms`], reduces
//! with [`best`] or [`median`], pins the rayon pool with
//! [`with_rayon_threads`], and writes one [`Artifact`], `BENCH_<name>.json`
//! at the workspace root, whose provenance says which box and which pool
//! produced the numbers.
//!
//! The one knob is `DV3D_BENCH_SMOKE=1` ([`smoke`]): benches that have a
//! reduced configuration run it, and record `"smoke": true`.

use cdms::synth::SynthesisSpec;
use cdms::{Dataset, Variable};
use dv3d::translation::{translate_scalar, TranslationOptions};
use rvtk::ImageData;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

pub use serde::Serialize;
pub use serde_json::Value;

/// The standard bench dataset: 8 timesteps, 6 levels, 24×48 horizontal.
pub fn bench_dataset() -> Dataset {
    SynthesisSpec::new(8, 6, 24, 48).seed(2012).build()
}

/// A larger dataset for scaling sweeps.
pub fn bench_dataset_sized(nlat: usize, nlon: usize) -> Dataset {
    SynthesisSpec::new(4, 6, nlat, nlon).seed(2012).build()
}

/// Temperature at t=0 as image data.
pub fn ta_image(ds: &Dataset) -> ImageData {
    let ta = ds.variable("ta").expect("ta").time_slab(0).expect("slab");
    translate_scalar(&ta, &TranslationOptions::default()).expect("translate")
}

/// A scalar variable at t=0.
pub fn slab(ds: &Dataset, name: &str) -> Variable {
    ds.variable(name).expect("variable").time_slab(0).expect("slab")
}

/// True only when `DV3D_BENCH_SMOKE=1`: run the reduced CI configuration.
pub fn smoke() -> bool {
    std::env::var("DV3D_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Hardware threads the OS grants this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One timed call, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Smallest sample: the interference-resistant estimator on a shared box,
/// where medians of short timings can swing 2×.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Upper median (`sorted[len / 2]`); NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len() / 2).copied().unwrap_or(f64::NAN)
}

const RAYON_ENV: &str = "RAYON_NUM_THREADS";

/// Puts the caller's `RAYON_NUM_THREADS` back, set or unset, when dropped —
/// including while unwinding from a panic.
struct RestoreRayonEnv(Option<String>);

impl Drop for RestoreRayonEnv {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var(RAYON_ENV, v),
            None => std::env::remove_var(RAYON_ENV),
        }
    }
}

/// Runs `f` with `RAYON_NUM_THREADS=n` (the vendored rayon reads it at
/// dispatch time) and returns `f`'s result with the pool size rayon
/// actually resolved, so a box that cannot honour the request says so.
pub fn with_rayon_threads<T>(n: usize, f: impl FnOnce() -> T) -> (T, usize) {
    let _restore = RestoreRayonEnv(std::env::var(RAYON_ENV).ok());
    std::env::set_var(RAYON_ENV, n.to_string());
    let pool = rayon::current_num_threads();
    (f(), pool)
}

/// Builds an ordered JSON object: `object! { "key": value, ... }`, where
/// every value is [`Serialize`].
#[macro_export]
macro_rules! object {
    ($($k:literal: $v:expr),* $(,)?) => {
        $crate::Value::Object(vec![$(($k.to_string(), $crate::Serialize::to_value(&$v))),*])
    };
}

/// The pass condition of a gate.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    AtLeast(f64),
    Above(f64),
    Below(f64),
    AtMost(f64),
    Exactly(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::Above(b) => value > b,
            Bound::Below(b) => value < b,
            Bound::AtMost(b) => value <= b,
            Bound::Exactly(b) => value == b,
        }
    }

    fn describe(self) -> String {
        match self {
            Bound::AtLeast(b) => format!(">= {b}"),
            Bound::Above(b) => format!("> {b}"),
            Bound::Below(b) => format!("< {b}"),
            Bound::AtMost(b) => format!("<= {b}"),
            Bound::Exactly(b) => format!("== {b}"),
        }
    }
}

#[derive(Debug)]
struct Gate {
    name: String,
    value: f64,
    bound: Bound,
    asserted: bool,
    passed: bool,
    message: String,
}

/// One bench's results: an ordered JSON object with provenance first, the
/// bench's own fields, its `cases` (if any) and its `gates` last.
#[derive(Debug)]
pub struct Artifact {
    name: String,
    fields: Vec<(String, Value)>,
    cases: Vec<Value>,
    gates: Vec<Gate>,
}

/// Timed runs per case, after one untimed warm-up.
pub const CASE_SAMPLES: usize = 10;

impl Artifact {
    /// Starts `BENCH_<name>.json`. `smoke` says whether the bench ran its
    /// reduced configuration; the rest of the provenance is read here.
    pub fn new(name: &str, smoke: bool) -> Artifact {
        let mut a = Artifact {
            name: name.to_string(),
            fields: Vec::new(),
            cases: Vec::new(),
            gates: Vec::new(),
        };
        a.set("bench", name);
        a.set("smoke", smoke);
        a.set("hardware_threads", hardware_threads());
        a.set("rayon_num_threads_env", std::env::var(RAYON_ENV).ok());
        a.set("effective_pool", rayon::current_num_threads());
        a
    }

    /// Sets `key`, replacing an earlier value in place.
    pub fn set(&mut self, key: &str, value: impl Serialize) {
        let value = value.to_value();
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.fields.push((key.to_string(), value)),
        }
    }

    /// Times `f` with one untimed warm-up, then the median of
    /// [`CASE_SAMPLES`] timed runs, and appends a
    /// `{group, id, median_ms, samples}` row to `cases`.
    pub fn case<T>(&mut self, group: &str, id: impl Display, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        let runs: Vec<f64> = (0..CASE_SAMPLES).map(|_| time_ms(&mut f)).collect();
        let median_ms = median(&runs);
        println!("bench {group}/{id}: median {median_ms:.3} ms ({CASE_SAMPLES} samples)");
        self.cases.push(object! {
            "group": group,
            "id": id.to_string(),
            "median_ms": median_ms,
            "samples": CASE_SAMPLES,
        });
    }

    /// Records gate `name`: `value` must satisfy `bound`. An asserted gate
    /// that fails panics with `message` in [`Artifact::finish`], after the
    /// artifact is on disk. A gate checked again keeps its first failure.
    pub fn gate(&mut self, name: &str, value: f64, bound: Bound, asserted: bool, message: String) {
        let gate = Gate {
            name: name.to_string(),
            value,
            bound,
            asserted,
            passed: bound.holds(value),
            message,
        };
        match self.gates.iter_mut().find(|g| g.name == name) {
            Some(old) if old.passed => *old = gate,
            Some(_) => {}
            None => self.gates.push(gate),
        }
    }

    /// The artifact as pretty JSON text.
    pub fn to_json(&self) -> String {
        let mut fields = self.fields.clone();
        if !self.cases.is_empty() {
            fields.push(("cases".to_string(), Value::Array(self.cases.clone())));
        }
        let gates = self.gates.iter().map(|g| {
            let record = object! {
                "value": g.value,
                "bound": g.bound.describe(),
                "asserted": g.asserted,
                "passed": g.passed,
            };
            (g.name.clone(), record)
        });
        fields.push(("gates".to_string(), Value::Object(gates.collect())));
        pretty(&rounded(Value::Object(fields)), 0) + "\n"
    }

    /// Writes `BENCH_<name>.json` at the workspace root, echoes it, then
    /// panics on the first failed asserted gate.
    pub fn finish(self) {
        let json = self.to_json();
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, &json).expect("write artifact");
        println!("{json}");
        if let Some(g) = self.gates.iter().find(|g| g.asserted && !g.passed) {
            panic!("{}", g.message);
        }
    }
}

/// JSON with the root object and its direct children one entry per line;
/// anything deeper stays on one line.
fn pretty(v: &Value, depth: usize) -> String {
    let indent = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    let lines: Vec<String> = match v {
        Value::Array(items) if depth < 2 && !items.is_empty() => {
            items.iter().map(|x| format!("{indent}{}", pretty(x, depth + 1))).collect()
        }
        Value::Object(entries) if depth < 2 && !entries.is_empty() => entries
            .iter()
            .map(|(k, x)| format!("{indent}{}: {}", compact(&k.as_str()), pretty(x, depth + 1)))
            .collect(),
        _ => return compact(v),
    };
    let (open, end) = if matches!(v, Value::Array(_)) { ('[', ']') } else { ('{', '}') };
    format!("{open}\n{}\n{close}{end}", lines.join(",\n"))
}

/// Floats rounded to 6 decimals (1 ns in milliseconds), so the artifact
/// shows no binary noise such as `0.031009000000000002`.
fn rounded(v: Value) -> Value {
    match v {
        Value::Float(x) => Value::Float((x * 1e6).round() / 1e6),
        Value::Array(items) => Value::Array(items.into_iter().map(rounded).collect()),
        Value::Object(entries) => {
            Value::Object(entries.into_iter().map(|(k, x)| (k, rounded(x))).collect())
        }
        other => other,
    }
}

fn compact(v: &impl Serialize) -> String {
    serde_json::to_string(v).expect("JSON value")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_and_median_on_known_inputs() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), f64::INFINITY);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // upper median: sorted[len / 2]
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn artifact_round_trips_with_provenance_and_gates() {
        let mut a = Artifact::new("unit", false);
        a.set("reps", 3);
        a.set("sweep", vec![object! { "requested": 2, "ms": 1.25 }]);
        a.set("reps", 4);
        a.gate("fast", 2.0, Bound::AtLeast(1.5), true, "too slow".into());
        a.gate("lean", 30.0, Bound::Below(15.0), false, "too fat".into());
        a.gate("count", 1.0, Bound::Exactly(1.0), true, "first".into());
        a.gate("count", 2.0, Bound::Exactly(1.0), true, "second".into());
        a.gate("count", 1.0, Bound::Exactly(1.0), true, "third".into());
        let v: Value = serde_json::from_str(&a.to_json()).expect("valid JSON");
        for key in ["bench", "smoke", "hardware_threads", "rayon_num_threads_env", "effective_pool"]
        {
            assert!(v.get(key).is_some(), "provenance key {key} missing");
        }
        assert_eq!(v.get("bench"), Some(&Value::Str("unit".into())));
        assert_eq!(v.get("smoke"), Some(&Value::Bool(false)));
        assert_eq!(v.get("reps"), Some(&Value::Int(4)));
        assert!(v.get("cases").is_none());
        let gates = v.get("gates").expect("gates");
        let fast = gates.get("fast").expect("fast gate");
        assert_eq!(fast.get("value"), Some(&Value::Float(2.0)));
        assert_eq!(fast.get("bound"), Some(&Value::Str(">= 1.5".into())));
        assert_eq!(fast.get("passed"), Some(&Value::Bool(true)));
        let lean = gates.get("lean").expect("lean gate");
        assert_eq!(lean.get("asserted"), Some(&Value::Bool(false)));
        assert_eq!(lean.get("passed"), Some(&Value::Bool(false)));
        // a failed gate is sticky: the later pass does not hide it
        let count = gates.get("count").expect("count gate");
        assert_eq!(count.get("value"), Some(&Value::Float(2.0)));
        assert_eq!(count.get("passed"), Some(&Value::Bool(false)));
    }

    #[test]
    fn cases_record_the_stub_estimator() {
        let mut a = Artifact::new("unit", false);
        let mut runs = 0;
        a.case("group", "id", || runs += 1);
        assert_eq!(runs, CASE_SAMPLES + 1, "one warm-up plus the samples");
        let v: Value = serde_json::from_str(&a.to_json()).expect("valid JSON");
        let Some(Value::Array(cases)) = v.get("cases") else { panic!("cases array") };
        assert_eq!(cases[0].get("group"), Some(&Value::Str("group".into())));
        assert_eq!(cases[0].get("samples"), Some(&Value::Int(CASE_SAMPLES as i64)));
    }

    /// Every assertion that touches environment variables lives here:
    /// test threads share the process environment.
    #[test]
    fn environment_knobs() {
        std::env::remove_var("DV3D_BENCH_SMOKE");
        assert!(!smoke(), "unset");
        for (v, want) in [("", false), ("0", false), ("1", true)] {
            std::env::set_var("DV3D_BENCH_SMOKE", v);
            assert_eq!(smoke(), want, "DV3D_BENCH_SMOKE={v:?}");
        }
        std::env::remove_var("DV3D_BENCH_SMOKE");

        let caller = std::env::var(RAYON_ENV).ok();
        std::env::set_var(RAYON_ENV, "3");
        let (inner, pool) = with_rayon_threads(5, || std::env::var(RAYON_ENV).ok());
        assert_eq!((inner.as_deref(), pool), (Some("5"), 5));
        assert_eq!(std::env::var(RAYON_ENV).as_deref(), Ok("3"), "restores a set value");

        std::env::remove_var(RAYON_ENV);
        with_rayon_threads(2, || ());
        assert!(std::env::var(RAYON_ENV).is_err(), "restores an unset value");

        std::env::set_var(RAYON_ENV, "4");
        let unwound = std::panic::catch_unwind(|| with_rayon_threads(7, || panic!("inside f")));
        assert!(unwound.is_err());
        assert_eq!(std::env::var(RAYON_ENV).as_deref(), Ok("4"), "restores after a panic");

        match caller {
            Some(v) => std::env::set_var(RAYON_ENV, v),
            None => std::env::remove_var(RAYON_ENV),
        }
    }
}
