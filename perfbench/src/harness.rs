//! What every workload shares: run settings, the seeded generator, the
//! outcome a workload hands back, and the statistics over it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A deliberate corruption of one output, so the benchmark's own tests
/// can show that its correctness checks count a bad output as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Flip one byte of every encoded frame on the wire.
    Frame,
    /// Expect a different digest for every service reply.
    Digest,
    /// Flip one value of the ensemble mean before it is checked and saved.
    Ensemble,
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; the reported set-up time is their median.
    pub setup_reps: usize,
    /// Working directory for the `.ncr` files a workload writes.
    pub work_dir: PathBuf,
    pub tamper: Tamper,
}

impl Config {
    /// Whether operation `i` runs traced: about half the operations of a
    /// traced run, so the untraced half measures the tracing overhead.
    /// The half is a seeded coin per operation, not every other one, so
    /// it shares no period with the workload's own cycles (chunk windows,
    /// keyframes) and both halves see the same mix of operations.
    pub fn traced_op(&self, i: u64) -> bool {
        self.trace
            && Rng::new(self.seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64() & 1 == 0
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so a seed always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every attempted operation, ms; a failed operation is
    /// recorded as infinitely slow, so it misses every latency limit.
    pub latencies_ms: Vec<f64>,
    /// Which operations ran traced (parallel to `latencies_ms`).
    pub traced: Vec<bool>,
    pub failed: u64,
    /// Units of useful work completed (frames, members, responses).
    pub work_units: f64,
    /// Wall time of the measured pass, s.
    pub wall_s: f64,
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics the workload computes itself (counts, ratios,
    /// times the program reports). Span self-times are added by `main`.
    pub layers: BTreeMap<&'static str, f64>,
    /// The reported tail when it is not the plain percentile of all
    /// samples: `(value, windows it is the median over)`.
    pub windowed_tail: Option<(f64, usize)>,
    /// Provenance and sample details, printed with the results.
    pub info: Vec<(String, String)>,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn push(&mut self, ms: f64, traced: bool) {
        self.latencies_ms.push(ms);
        self.traced.push(traced);
    }

    pub fn fail(&mut self, traced: bool, why: String) {
        self.failed += 1;
        self.push(f64::INFINITY, traced);
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

/// Runs `setup` `reps` times and records each duration in `out`;
/// returns the last set-up after handing every earlier one to `retire`.
pub fn timed_setups<S>(
    out: &mut Outcome,
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<S, String>,
    retire: impl Fn(S),
) -> Result<S, String> {
    let mut last = None;
    for rep in 0..reps.max(1) {
        if let Some(old) = last.take() {
            retire(old);
        }
        let t0 = Instant::now();
        last = Some(setup(rep)?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The median over `windows` stretches of the pass of the `q`-th
/// percentile within each stretch, so a host stall that lands in one
/// stretch moves only that stretch's percentile. Each log is in time
/// order and is cut into `windows` contiguous, equal parts; stretch `w`
/// is part `w` of every log.
pub fn windowed_percentile(logs: &[&[f64]], q: f64, windows: usize) -> f64 {
    let windows = windows.max(1);
    let per_window: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let part: Vec<f64> = logs
                .iter()
                .flat_map(|l| &l[l.len() * w / windows..l.len() * (w + 1) / windows])
                .copied()
                .collect();
            (!part.is_empty()).then(|| percentile(&part, q))
        })
        .collect();
    median(&per_window)
}

/// Samples strictly above the `q`-th percentile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&x| x > p).count()
}

/// The highest whole percentile with at least ten samples beyond it.
pub fn highest_tail(samples: &[f64]) -> Option<u32> {
    (50..100)
        .rev()
        .find(|&q| samples.len() as f64 * (1.0 - f64::from(q) / 100.0) >= 10.0)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Maps an error to a message naming the step that failed.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}
