//! The dv3d-rs benchmark: three workloads driven through the public API
//! of the workspace crates, each in a process of its own.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload playback|ensemble|service|all --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every layer call of about half
//! the operations (a seeded coin per operation) and prints the per-layer
//! metrics. Both check every output and end with one JSON line:
//! `correct`, `attempted`, `failed` and `metrics`. Results, provenance
//! and spans are written under `perfbench/out/`.

mod ensemble;
mod harness;
mod heap;
mod playback;
mod service;
#[cfg(test)]
mod tests;
mod timed_storage;
mod trace;

use harness::{beyond, highest_tail, median, percentile, Config, Outcome, Tamper};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["playback", "ensemble", "service"];

/// End-to-end metrics (untraced runs), as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), as listed in `BENCHMARK.json`.
/// Times are per traced operation; `count/op` and `B/op` per attempted
/// operation; service counters are totals over the measured pass.
const PER_LAYER: [(&str, &str); 47] = [
    ("cdms.storage.read_ms", "ms"),
    ("cdms.storage.read_calls", "count/op"),
    ("cdms.storage.read_bytes", "B/op"),
    ("cdms.storage.write_ms", "ms"),
    ("cdms.storage.fsync_ms", "ms"),
    ("cdms.storage.write_bytes", "B/op"),
    ("cdms.stream.self_ms", "ms"),
    ("cdms.stream.hit_ratio", "ratio"),
    ("cdms.stream.evictions", "count/op"),
    ("cdms.stream.chunk_reads", "count/op"),
    ("cdms.stream.peak_cache_bytes", "B"),
    ("cdms.format_v3.encode_ms", "ms"),
    ("cdat.regrid.apply_ms", "ms"),
    ("cdat.plan_cache.hits", "count/op"),
    ("cdat.plan_cache.misses", "count/op"),
    ("cdat.plan_cache.dedups", "count/op"),
    ("cdat.reduce.spatial_mean_ms", "ms"),
    ("cdat.taskgraph.wall_ms", "ms"),
    ("cdat.taskgraph.task_sum_ms", "ms"),
    ("cdat.taskgraph.workers", "count"),
    ("cdat.taskgraph.utilization", "ratio"),
    ("cdat.taskgraph.idle_ms", "ms"),
    ("cdat.ensemble.regrid_batch_ms", "ms"),
    ("cdat.ensemble.quantiles_ms", "ms"),
    ("cdat.ensemble.extremes_ms", "ms"),
    ("cdat.ensemble.regions_ms", "ms"),
    ("dv3d.translate_ms", "ms"),
    ("rvtk.render_ms", "ms"),
    ("hyperwall.frame_delta.encode_ms", "ms"),
    ("hyperwall.frame_delta.apply_ms", "ms"),
    ("hyperwall.frame_delta.dirty_tile_ratio", "ratio"),
    ("hyperwall.frame_delta.keyframes", "count/op"),
    ("hyperwall.protocol.encode_ms", "ms"),
    ("hyperwall.protocol.decode_ms", "ms"),
    ("hyperwall.protocol.wire_bytes_per_frame", "B"),
    ("hyperwall.service.compute_ms", "ms"),
    ("hyperwall.service.wait_ms", "ms"),
    ("hyperwall.service.responses", "count"),
    ("hyperwall.service.degraded", "count"),
    ("hyperwall.service.busies", "count"),
    ("hyperwall.service.retry_afters", "count"),
    ("hyperwall.service.deadline_drops", "count"),
    ("hyperwall.service.mux_rounds", "count"),
    ("hyperwall.service.shed", "count"),
    ("harness.gen_late_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.unattributed_pct", "%"),
];

/// Span name → the per-layer metric carrying its mean self time.
const SPAN_METRICS: [(&str, &str); 17] = [
    ("cdms.storage.read", "cdms.storage.read_ms"),
    ("cdms.storage.write", "cdms.storage.write_ms"),
    ("cdms.storage.fsync", "cdms.storage.fsync_ms"),
    ("cdms.stream", "cdms.stream.self_ms"),
    ("cdms.format_v3", "cdms.format_v3.encode_ms"),
    ("cdat.regrid", "cdat.regrid.apply_ms"),
    ("cdat.reduce", "cdat.reduce.spatial_mean_ms"),
    ("cdat.taskgraph", "cdat.taskgraph.wall_ms"),
    ("dv3d.translate", "dv3d.translate_ms"),
    ("rvtk.render", "rvtk.render_ms"),
    (
        "hyperwall.frame_delta.encode",
        "hyperwall.frame_delta.encode_ms",
    ),
    (
        "hyperwall.frame_delta.apply",
        "hyperwall.frame_delta.apply_ms",
    ),
    ("hyperwall.protocol.encode", "hyperwall.protocol.encode_ms"),
    ("hyperwall.protocol.decode", "hyperwall.protocol.decode_ms"),
    ("hyperwall.service.compute", "hyperwall.service.compute_ms"),
    ("hyperwall.service.wait", "hyperwall.service.wait_ms"),
    ("harness.gen_late", "harness.gen_late_ms"),
];

/// Root span of each workload's operation; its self time is the part of
/// the operation no layer span covers.
const ROOTS: [&str; 3] = ["playback.frame", "ensemble.request", "service.request"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Stand-in for a non-finite value (a tail made of failed operations).
const NOT_FINITE: f64 = 1e12;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One workload's results.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the run's kind, in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed ahead of the JSON line.
    lines: Vec<String>,
    /// Provenance and sample details, also written to the results file.
    info: Vec<(String, String)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{NOT_FINITE}")
    }
}

/// Where results, spans and working files go: `perfbench/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(r) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..40.min(l.len())].into())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// How one workload names its latency and throughput metrics in the
/// printed table.
struct Names {
    p50: &'static str,
    /// Percentiles printed in the table; the first is `tail_ms`.
    tails: &'static [(f64, &'static str)],
    rate: &'static str,
    rate_unit: &'static str,
}

fn named(workload: &str) -> Names {
    match workload {
        "playback" => Names {
            p50: "frame_p50_ms",
            tails: &[(playback::TAIL, "frame_p90_ms")],
            rate: "playback_fps",
            rate_unit: "frames/s",
        },
        "ensemble" => Names {
            p50: "ens_p50_ms",
            tails: &[(ensemble::TAIL, "ens_p90_ms")],
            rate: "ens_members_per_s",
            rate_unit: "members/s",
        },
        _ => Names {
            p50: "svc_p50_ms",
            tails: &[(service::TAIL, "svc_p99_ms"), (95.0, "svc_p95_ms")],
            rate: "svc_responses_per_s",
            rate_unit: "responses/s",
        },
    }
}

fn end_to_end(workload: &str, o: &Outcome, r: &mut Report) {
    let lat = &o.latencies_ms;
    let names = named(workload);
    let tail_q = names.tails[0].0;
    let tail = o
        .windowed_tail
        .map_or_else(|| percentile(lat, tail_q), |(v, _)| v);
    let values = [
        median(&o.setup_s),
        heap::peak_mb(),
        median(lat),
        tail,
        o.work_units / o.wall_s.max(1e-9),
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        r.metrics.push((name, v, unit));
    }
    let n = lat.len();
    r.lines.push(format!(
        "  setup_s              {:>12.4} s   (median of {} set-ups)",
        values[0],
        o.setup_s.len()
    ));
    let rss = harness::peak_rss_mb();
    r.lines.push(format!(
        "  peak_heap_mb         {:>12.2} MB  (most bytes allocated at once)",
        values[1]
    ));
    r.lines
        .push(format!("  peak_rss_mb          {rss:>12.2} MB  (VmHWM)"));
    r.info.push(("peak_rss_mb".into(), num(rss)));
    r.lines.push(format!(
        "  {:<20} {:>12.4} ms  (n={n})",
        names.p50, values[2]
    ));
    for &(q, name) in names.tails {
        r.lines.push(format!(
            "  {name:<20} {:>12.4} ms  (n={n}, {} beyond)",
            percentile(lat, q),
            beyond(lat, q)
        ));
        r.info.push((name.into(), num(percentile(lat, q))));
    }
    if let Some((v, windows)) = o.windowed_tail {
        r.lines.push(format!(
            "  {:<20} {v:>12.4} ms  (median of the p{tail_q} of {windows} equal stretches, ~{} samples each)",
            "tail_ms",
            n / windows.max(1)
        ));
        r.info.push(("tail_windows".into(), windows.to_string()));
    }
    r.lines.push(format!(
        "  {:<20} {:>12.3} {}",
        names.rate, values[4], names.rate_unit
    ));
    r.lines.push(format!(
        "  samples: {n}; tail_ms is p{tail_q}; highest percentile with >=10 samples beyond: {}",
        highest_tail(lat).map_or("none".into(), |q| format!("p{q}"))
    ));
    r.info.push(("samples".into(), n.to_string()));
    r.info.push(("tail_percentile".into(), tail_q.to_string()));
    r.info.push((
        "samples_beyond_tail".into(),
        beyond(lat, tail_q).to_string(),
    ));
    r.info.push((names.p50.into(), num(values[2])));
    r.info.push((names.rate.into(), num(values[4])));
}

fn per_layer(o: &Outcome, spans: &[trace::Span], r: &mut Report) {
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for &(i, ns) in &selfs {
        *by_name.entry(spans[i].name).or_default() += ns;
    }
    let roots: Vec<&trace::Span> = spans.iter().filter(|s| ROOTS.contains(&s.name)).collect();
    let n_traced = roots.len().max(1) as f64;
    let root_ns: u64 = roots.iter().map(|s| s.dur_ns()).sum();
    let root_self_ns: u64 = ROOTS.iter().filter_map(|n| by_name.get(n)).sum();
    let latencies = |traced: bool| -> Vec<f64> {
        let pairs = o.latencies_ms.iter().zip(&o.traced);
        pairs.filter(|p| *p.1 == traced).map(|p| *p.0).collect()
    };
    let (traced, untraced) = (latencies(true), latencies(false));

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, metric) in SPAN_METRICS {
        if let Some(&ns) = by_name.get(span) {
            values.insert(metric, ns as f64 / 1e6 / n_traced);
        }
    }
    values.insert(
        "harness.unattributed_pct",
        root_self_ns as f64 / (root_ns as f64).max(1.0) * 100.0,
    );
    values.insert(
        "harness.trace_overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );
    for (&k, &v) in &o.layers {
        values.insert(k, v);
    }
    for (name, unit) in PER_LAYER {
        let v = values.remove(name).unwrap_or(0.0);
        r.metrics.push((name, v, unit));
        r.lines.push(format!("  {name:<40} {:>14.4} {unit}", v));
    }
    assert!(
        values.is_empty(),
        "metrics missing from PER_LAYER: {:?}",
        values.keys()
    );
    let attributed_ns: u64 = by_name
        .iter()
        .filter(|(n, _)| !ROOTS.contains(n))
        .map(|(_, v)| v)
        .sum();
    r.lines.push(format!(
        "  breakdown over {} traced operations: layer self times {:.4} ms + unattributed {:.4} ms = {:.4} ms; traced operation time {:.4} ms",
        roots.len(),
        attributed_ns as f64 / 1e6 / n_traced,
        root_self_ns as f64 / 1e6 / n_traced,
        (attributed_ns + root_self_ns) as f64 / 1e6 / n_traced,
        root_ns as f64 / 1e6 / n_traced,
    ));
    r.info
        .push(("traced_operations".into(), roots.len().to_string()));
    r.info
        .push(("untraced_operations".into(), untraced.len().to_string()));
}

/// Runs one workload in this process.
fn run_workload(args: &Args, tamper: Tamper, setup_reps: usize) -> Result<Report, String> {
    let out_dir = out_dir();
    let work_dir = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_reps,
        work_dir: work_dir.clone(),
        tamper,
    };
    trace::take();
    let result = match args.workload.as_str() {
        "playback" => playback::run(&cfg),
        "ensemble" => ensemble::run(&cfg),
        "service" => service::run(&cfg),
        w => Err(format!("unknown workload {w}")),
    };
    std::fs::remove_dir_all(&work_dir).ok();
    let o = result?;
    let spans = trace::take();

    let mut r = Report {
        correct: o.failed == 0 && o.attempted() > 0,
        attempted: o.attempted(),
        failed: o.failed,
        metrics: Vec::new(),
        lines: Vec::new(),
        info: vec![
            ("workload".into(), args.workload.clone()),
            ("seed".into(), args.seed.to_string()),
            ("seconds".into(), args.seconds.to_string()),
            ("trace".into(), u8::from(args.trace).to_string()),
            (
                "nproc".into(),
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .to_string(),
            ),
            (
                "rayon_threads".into(),
                rayon::current_num_threads().to_string(),
            ),
            ("git_commit".into(), git_commit()),
        ],
    };
    r.info.extend(o.info.iter().cloned());
    if args.trace {
        per_layer(&o, &spans, &mut r);
        std::fs::create_dir_all(&out_dir).ok();
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&spans, &path).map_err(|e| format!("writing spans: {e}"))?;
        r.info
            .push(("spans_file".into(), path.display().to_string()));
    } else {
        end_to_end(&args.workload, &o, &mut r);
    }
    for why in &o.failures {
        r.lines.push(format!("  FAILED: {why}"));
    }
    Ok(r)
}

fn write_results(args: &Args, r: &Report) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let info: Vec<String> = r
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    std::fs::write(
        &path,
        format!(
            "{{\"info\": {{{}}}, \"result\": {}}}\n",
            info.join(", "),
            r.json()
        ),
    )?;
    Ok(path)
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        match out {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let last = text.lines().last().unwrap_or("");
                if !out.status.success() || !last.contains("\"correct\": true") {
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("error: running {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload playback|ensemble|service|all --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let r = match run_workload(&args, Tamper::None, SETUP_REPS) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} workload: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let prov: Vec<String> = r.info.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("provenance: {}", prov.join(" "));
    for l in &r.lines {
        println!("{l}");
    }
    match write_results(&args, &r) {
        Ok(p) => println!("results: {}", p.display()),
        Err(e) => eprintln!("warning: results file not written: {e}"),
    }
    println!("{}", r.json());
}
