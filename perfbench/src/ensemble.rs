//! `ensemble`: one analyst issues diagnostic requests back to back. Each
//! request opens the member `.ncr` v3 files written at set-up and
//! materializes them, builds the `cdat::ensemble` DAG, runs it on a pool
//! of `nproc` workers and saves the six ensemble fields with an atomic,
//! fsynced v3 write.

use crate::harness::{ctx, ms_since, timed_setups, Config, Outcome, Tamper};
use crate::timed_storage::TimedStorage;
use crate::trace;
use cdat::ensemble::{self, Region};
use cdat::regrid_plan::RegridMethod;
use cdat::taskgraph::TaskReport;
use cdms::format_v3::{self, V3Options};
use cdms::{Dataset, RectGrid, StreamOptions, StreamReport, StreamingDataset, Variable};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Percentile reported as the tail.
pub const TAIL: f64 = 90.0;

/// Members per request: the ensemble size `crates/bench/benches/ensemble.rs`
/// and EXPERIMENTS.md E10 document for this member shape, inside the
/// regime where the batched regrid applies.
const MEMBERS: usize = 48;
/// Member shape (time, level, lat, lon).
const SHAPE: (usize, usize, usize, usize) = (12, 2, 24, 48);
/// Analysis grid (lat, lon) the members are regridded onto.
const TARGET: (usize, usize) = (32, 64);
const METHOD: RegridMethod = RegridMethod::Conservative;
const V3: V3Options = V3Options {
    window: 4,
    levels: 1,
    compress: false,
};
/// The fields a request saves.
const SAVED: [&str; 6] = [
    "ens_mean", "ens_p10", "ens_p50", "ens_p90", "ens_lo", "ens_hi",
];
const WARMUP: usize = 3;

fn regions() -> [Region; 3] {
    [
        Region::new("tropics", (-20.0, 20.0), (0.0, 360.0)),
        Region::new("north", (30.0, 80.0), (0.0, 360.0)),
        Region::new("south", (-80.0, -30.0), (0.0, 360.0)),
    ]
}

struct Session {
    storage: TimedStorage,
    members: Vec<(PathBuf, String)>,
    out_path: PathBuf,
    target: RectGrid,
    workers: usize,
    /// Digest of every DAG output of `run_serial`, taken at set-up.
    want: u64,
}

/// One request's products, before they are checked.
struct Request {
    ms: f64,
    report: TaskReport,
    saved: Dataset,
    stream: StreamReport,
}

/// FNV-1a over the name, shape, data bits and mask of every DAG output.
fn digest_outputs(report: &TaskReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, var) in &report.outputs {
        eat(name.as_bytes());
        for &d in var.shape() {
            eat(&(d as u64).to_le_bytes());
        }
        for v in var.array.data() {
            eat(&v.to_bits().to_le_bytes());
        }
        for &m in var.array.mask() {
            eat(&[u8::from(m)]);
        }
    }
    h
}

fn add_stream(acc: &mut StreamReport, r: &StreamReport) {
    acc.chunk_reads += r.chunk_reads;
    acc.cache_hits += r.cache_hits;
    acc.cache_misses += r.cache_misses;
    acc.evictions += r.evictions;
    acc.peak_cache_bytes = acc.peak_cache_bytes.max(r.peak_cache_bytes);
    acc.degraded += r.degraded;
    acc.salvaged += r.salvaged;
    acc.failed_chunks += r.failed_chunks;
}

fn setup(cfg: &Config, dir: PathBuf, workers: usize) -> Result<Session, String> {
    std::fs::create_dir_all(&dir).map_err(ctx("work dir"))?;
    let storage = TimedStorage::default();
    let mut members = Vec::with_capacity(MEMBERS);
    for var in ensemble::synth_members(MEMBERS, SHAPE, cfg.seed).map_err(ctx("synth"))? {
        let path = dir.join(format!("{}.ncr", var.id));
        let id = var.id.clone();
        let mut ds = Dataset::new(&id);
        ds.add_variable(var);
        format_v3::write_dataset_v3_with(&storage, &ds, &path, &V3).map_err(ctx("write"))?;
        members.push((path, id));
    }
    let mut s = Session {
        storage,
        members,
        out_path: dir.join("ensemble.ncr"),
        target: RectGrid::uniform(TARGET.0, TARGET.1).map_err(ctx("grid"))?,
        workers,
        want: 0,
    };
    let (vars, _) = s.read_members()?;
    let serial = ensemble::build_graph(vars, s.target.clone(), METHOD, &regions())
        .map_err(ctx("build_graph"))?
        .run_serial()
        .map_err(ctx("run_serial"))?;
    s.want = digest_outputs(&serial);
    for _ in 0..WARMUP {
        let r = s.request(Tamper::None)?;
        if let Some(why) = s.check(&r) {
            return Err(format!("warm-up request: {why}"));
        }
    }
    Ok(s)
}

impl Session {
    /// Opens every member file for streaming and materializes it.
    fn read_members(&self) -> Result<(Vec<Variable>, StreamReport), String> {
        let mut vars = Vec::with_capacity(self.members.len());
        let mut stream = StreamReport::default();
        for (path, id) in &self.members {
            let _s = trace::span("cdms.stream");
            let opts = StreamOptions {
                prefetch_windows: 0,
                ..StreamOptions::default()
            };
            let sd = StreamingDataset::open_with(Arc::new(self.storage.clone()), path, opts)
                .map_err(ctx("open member"))?;
            vars.push(
                sd.variable(id)
                    .and_then(|v| v.materialize())
                    .map_err(ctx("materialize"))?,
            );
            add_stream(&mut stream, &sd.report());
        }
        Ok((vars, stream))
    }

    fn request(&self, tamper: Tamper) -> Result<Request, String> {
        let t0 = Instant::now();
        let root = trace::span("ensemble.request");
        let (vars, stream) = self.read_members()?;
        let mut report = {
            let _s = trace::span("cdat.taskgraph");
            ensemble::build_graph(vars, self.target.clone(), METHOD, &regions())
                .map_err(ctx("build_graph"))?
                .run_with_pool(self.workers)
                .map_err(ctx("run_with_pool"))?
        };
        if tamper == Tamper::Ensemble {
            if let Some(v) = report.outputs.get_mut("ens_mean") {
                if let Some(x) = Arc::make_mut(v).array.data_mut().first_mut() {
                    *x += 1.0;
                }
            }
        }
        let saved = {
            let _s = trace::span("cdms.format_v3");
            let mut ds = Dataset::new("ensemble");
            for name in SAVED {
                let out = report
                    .outputs
                    .get(name)
                    .ok_or_else(|| format!("no output {name}"))?;
                let mut var = Variable::clone(out);
                var.id = name.to_string();
                ds.add_variable(var);
            }
            format_v3::write_dataset_v3_with(&self.storage, &ds, &self.out_path, &V3)
                .map_err(ctx("save"))?;
            ds
        };
        drop(root);
        Ok(Request {
            ms: ms_since(t0),
            report,
            saved,
            stream,
        })
    }

    /// Why a request's products are wrong, if they are.
    fn check(&self, r: &Request) -> Option<String> {
        if digest_outputs(&r.report) != self.want {
            return Some("DAG outputs differ from the run_serial digest".into());
        }
        if r.stream.degraded + r.stream.salvaged + r.stream.failed_chunks > 0 {
            return Some("healthy storage served a degraded, salvaged or failed chunk".into());
        }
        let back = match Dataset::open(&self.out_path) {
            Ok(ds) => ds,
            Err(e) => return Some(format!("saved file does not read back: {e}")),
        };
        for want in r.saved.variables() {
            match back.variable(&want.id) {
                Some(got) if got.shape() == want.shape() && got.array == want.array => {}
                _ => return Some(format!("saved field {} reads back different", want.id)),
            }
        }
        None
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Outcome::default();
    let s = timed_setups(
        &mut out,
        cfg.setup_reps,
        |rep| setup(cfg, cfg.work_dir.join(format!("ensemble-{rep}")), workers),
        drop,
    )?;

    let io0 = s.storage.counts();
    let mut stream = StreamReport::default();
    let mut tasks: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut report_workers = 0usize;
    let (mut members_done, mut requests_ok) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.traced_op(i);
        trace::set_request(i);
        i += 1;
        trace::set_enabled(traced);
        let req = s.request(cfg.tamper);
        trace::set_enabled(false);
        let r = match req {
            Ok(r) => r,
            Err(e) => {
                out.fail(traced, e);
                continue;
            }
        };
        if let Some(why) = s.check(&r) {
            out.fail(traced, why);
            continue;
        }
        out.push(r.ms, traced);
        add_stream(&mut stream, &r.stream);
        members_done += s.members.len() as u64;
        requests_ok += 1;
        report_workers = r.report.workers;
        let wall_ms = r.report.total.as_secs_f64() * 1e3;
        let mut task_sum = 0.0;
        for (name, d) in &r.report.timings {
            let ms = d.as_secs_f64() * 1e3;
            task_sum += ms;
            let group = match name.as_str() {
                "ens" => "cdat.ensemble.regrid_batch_ms",
                "ens_p10" | "ens_p50" | "ens_p90" => "cdat.ensemble.quantiles_ms",
                "ens_lo" | "ens_hi" => "cdat.ensemble.extremes_ms",
                n if n.starts_with("clip_")
                    || n.starts_with("normals_")
                    || n.starts_with("series_") =>
                {
                    "cdat.ensemble.regions_ms"
                }
                _ => continue,
            };
            *tasks.entry(group).or_default() += ms;
        }
        let capacity = wall_ms * r.report.workers.max(1) as f64;
        *tasks.entry("cdat.taskgraph.task_sum_ms").or_default() += task_sum;
        *tasks.entry("cdat.taskgraph.idle_ms").or_default() += (capacity - task_sum).max(0.0);
        *tasks.entry("cdat.taskgraph.utilization").or_default() += task_sum / capacity.max(1e-9);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.work_units = members_done as f64;

    let n = (out.attempted() as f64).max(1.0);
    let ok = (requests_ok as f64).max(1.0);
    let io = s.storage.counts().since(io0);
    let lookups = stream.cache_hits + stream.cache_misses;
    let l = &mut out.layers;
    for (k, v) in tasks {
        l.insert(k, v / ok);
    }
    l.insert("cdat.taskgraph.workers", report_workers as f64);
    l.insert("cdms.storage.read_calls", io.read_calls as f64 / n);
    l.insert("cdms.storage.read_bytes", io.read_bytes as f64 / n);
    l.insert("cdms.storage.write_bytes", io.write_bytes as f64 / n);
    l.insert(
        "cdms.stream.hit_ratio",
        stream.cache_hits as f64 / (lookups as f64).max(1.0),
    );
    l.insert("cdms.stream.evictions", stream.evictions as f64 / ok);
    l.insert("cdms.stream.chunk_reads", stream.chunk_reads as f64 / ok);
    l.insert(
        "cdms.stream.peak_cache_bytes",
        stream.peak_cache_bytes as f64,
    );

    out.info("members", MEMBERS);
    out.info("member_shape", format!("{SHAPE:?} (time, lev, lat, lon)"));
    out.info("analysis_grid", format!("{}x{}", TARGET.0, TARGET.1));
    out.info("taskgraph_workers", report_workers);
    out.info(
        "storage_calls_per_request",
        format!(
            "read {:.1}, write/rename {:.1}, fsync {:.1}",
            io.read_calls as f64 / n,
            io.write_calls as f64 / n,
            io.fsync_calls as f64 / n
        ),
    );
    Ok(out)
}
