//! `playback`: one viewer steps through a seeded `.ncr` v3 series in a
//! closed loop. Each frame follows the wall client's path: stream the
//! time slab, regrid to the display grid, reduce, translate, render,
//! encode a dirty-tile delta, frame it for the wire, then decode and
//! assemble it on the receiving side. The frame's latency runs from the
//! request for frame *t* to the receiver holding its verified pixels.

use crate::harness::{ctx, ms_since, timed_setups, Config, Outcome, Tamper};
use crate::timed_storage::TimedStorage;
use crate::trace;
use cdat::regrid_plan::RegridMethod;
use cdms::format_v3::{self, V3Options};
use cdms::synth::SynthesisSpec;
use cdms::{Dataset, RectGrid, StreamOptions, StreamReport, StreamingDataset, StreamingVariable};
use dv3d::cell::Dv3dCell;
use dv3d::plots::PlotSpec;
use dv3d::translation::{translate_scalar, TranslationOptions};
use hyperwall::frame_delta::{EncodedKind, FrameAssembler, FrameStreamer, DEFAULT_KEYFRAME_EVERY};
use hyperwall::protocol::{encode_frame, read_message, Message};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Percentile reported as the tail.
pub const TAIL: f64 = 90.0;

/// Series shape (time, level, lat, lon); its decoded size is
/// `CACHE_SHARE` times the stream's cache budget.
const SERIES: (usize, usize, usize, usize) = (48, 4, 48, 96);
const CACHE_SHARE: usize = 4;
/// Time steps per `.ncr` chunk window.
const WINDOW: usize = 4;
/// Display grid (lat, lon) the slab is regridded onto.
const DISPLAY: (usize, usize) = (90, 180);
/// Panel size in pixels.
const PANEL: (usize, usize) = (480, 360);
const WARMUP_FRAMES: usize = 8;

/// One frame as it left the pipeline, before it is checked.
#[derive(Debug)]
struct Frame {
    ms: f64,
    rgba: Vec<u8>,
    kind: EncodedKind,
    wire_bytes: usize,
    applied: Result<(), String>,
}

/// A playback session: the open stream, the live cell and both ends of
/// the frame transport.
struct Session {
    storage: TimedStorage,
    sd: StreamingDataset,
    sv: StreamingVariable,
    display: RectGrid,
    opts: TranslationOptions,
    cell: Dv3dCell,
    streamer: FrameStreamer,
    assembler: FrameAssembler,
    frame: u64,
}

fn setup(cfg: &Config, dir: &Path) -> Result<Session, String> {
    std::fs::create_dir_all(dir).map_err(ctx("work dir"))?;
    let (nt, nlev, nlat, nlon) = SERIES;
    let synth = SynthesisSpec::new(nt, nlev, nlat, nlon)
        .seed(cfg.seed)
        .build();
    let mut ds = Dataset::new("playback");
    ds.add_variable(synth.require("ta").map_err(ctx("synth"))?.clone());
    let path = dir.join("series.ncr");
    let v3 = V3Options {
        window: WINDOW,
        levels: 2,
        compress: false,
    };
    let storage = TimedStorage::default();
    format_v3::write_dataset_v3_with(&storage, &ds, &path, &v3).map_err(ctx("write"))?;

    // decoded level-0 bytes: f32 data plus a one-byte mask per value
    let decoded = nt * nlev * nlat * nlon * 5;
    let stream_opts = StreamOptions {
        cache_bytes: decoded / CACHE_SHARE,
        prefetch_windows: 1,
        max_retries: 3,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        deadline_ms: None,
    };
    let sd = StreamingDataset::open_with(Arc::new(storage.clone()), &path, stream_opts)
        .map_err(ctx("open"))?;
    let sv = sd.variable("ta").map_err(ctx("variable"))?;
    let display = RectGrid::uniform(DISPLAY.0, DISPLAY.1).map_err(ctx("grid"))?;
    let opts = TranslationOptions::default();
    let first = cdat::regrid::regrid(
        &sv.time_slab_degraded(0).map_err(ctx("stream"))?,
        &display,
        RegridMethod::Bilinear,
    )
    .map_err(ctx("regrid"))?;
    let image = translate_scalar(&first, &opts).map_err(ctx("translate"))?;
    let cell = Dv3dCell::try_new("ta", PlotSpec::slicer(image)).map_err(ctx("cell"))?;
    let mut s = Session {
        storage,
        sd,
        sv,
        display,
        opts,
        cell,
        streamer: FrameStreamer::new(PANEL.0, PANEL.1, DEFAULT_KEYFRAME_EVERY),
        assembler: FrameAssembler::new(PANEL.0, PANEL.1),
        frame: 0,
    };
    for _ in 0..WARMUP_FRAMES {
        let f = s.step(Tamper::None)?;
        f.applied?;
    }
    Ok(s)
}

/// Flips one byte of the frame's pixel payload on the wire.
fn tamper_frame(msg: &mut Message) {
    match msg {
        Message::FrameKey { payload, .. } => {
            if let Some(b) = payload.get_mut(1) {
                *b ^= 0x40;
            }
        }
        Message::FrameDelta { tiles, .. } => {
            if let Some(b) = tiles.first_mut().and_then(|t| t.data.get_mut(1)) {
                *b ^= 0x40;
            }
        }
        _ => {}
    }
}

impl Session {
    /// Produces, ships and assembles the next frame.
    fn step(&mut self, tamper: Tamper) -> Result<Frame, String> {
        let n_times = self.sv.n_times() as u64;
        let frame = self.frame;
        self.frame += 1;
        let t = (frame % n_times) as usize;
        trace::set_request(frame);
        let t0 = Instant::now();
        let root = trace::span("playback.frame");
        let slab = {
            let _s = trace::span("cdms.stream");
            self.sv.time_slab_degraded(t).map_err(ctx("stream"))?
        };
        let disp = {
            let _s = trace::span("cdat.regrid");
            cdat::regrid::regrid(&slab, &self.display, RegridMethod::Bilinear)
                .map_err(ctx("regrid"))?
        };
        let mean = {
            let _s = trace::span("cdat.reduce");
            cdat::averager::spatial_mean(&disp).map_err(ctx("spatial_mean"))?
        };
        std::hint::black_box(mean);
        {
            let _s = trace::span("dv3d.translate");
            let image = translate_scalar(&disp, &self.opts).map_err(ctx("translate"))?;
            self.cell
                .plot_mut()
                .set_image(image)
                .map_err(ctx("set_image"))?;
        }
        let rgba = {
            let _s = trace::span("rvtk.render");
            self.cell
                .render(PANEL.0, PANEL.1)
                .map_err(ctx("render"))?
                .to_rgba8()
        };
        let (mut msg, kind) = {
            let _s = trace::span("hyperwall.frame_delta.encode");
            self.streamer
                .encode(0, frame, &rgba)
                .map_err(ctx("delta encode"))?
        };
        if tamper == Tamper::Frame {
            tamper_frame(&mut msg);
        }
        let wire = {
            let _s = trace::span("hyperwall.protocol.encode");
            encode_frame(&msg).map_err(ctx("wire encode"))?
        };
        let decoded = {
            let _s = trace::span("hyperwall.protocol.decode");
            read_message(&mut wire.as_slice()).map_err(ctx("wire decode"))
        };
        let applied = decoded.and_then(|m| {
            let _s = trace::span("hyperwall.frame_delta.apply");
            self.assembler.apply(&m).map(|_| ()).map_err(ctx("apply"))
        });
        drop(root);
        Ok(Frame {
            ms: ms_since(t0),
            rgba,
            kind,
            wire_bytes: wire.len(),
            applied,
        })
    }
}

fn unhealthy(r: &StreamReport) -> u64 {
    r.degraded + r.salvaged + r.failed_chunks
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = timed_setups(
        &mut out,
        cfg.setup_reps,
        |rep| setup(cfg, &cfg.work_dir.join(format!("playback-{rep}"))),
        drop,
    )?;

    let io0 = s.storage.counts();
    let stream0 = s.sd.report();
    let plans0 = cdat::plan_cache::global_stats();
    let tiles_per_frame = rvtk::render::TileGrid::with_default_tile(PANEL.0, PANEL.1).len();
    let (mut frames_ok, mut keyframes, mut delta_frames, mut dirty_tiles, mut wire_bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.traced_op(i);
        i += 1;
        trace::set_enabled(traced);
        let before = unhealthy(&s.sd.report());
        let step = s.step(cfg.tamper);
        trace::set_enabled(false);
        let f = match step {
            Ok(f) => f,
            Err(e) => {
                out.fail(traced, e);
                continue;
            }
        };
        // checks, outside the timed region
        let problem = if let Err(e) = f.applied {
            Some(e)
        } else if s.assembler.frame() != Some(f.rgba.as_slice()) {
            Some("assembled frame differs from the rendered pixels".to_string())
        } else if unhealthy(&s.sd.report()) != before {
            Some("healthy storage served a degraded, salvaged or failed chunk".to_string())
        } else {
            None
        };
        if let Some(why) = problem {
            out.fail(traced, why);
            continue;
        }
        out.push(f.ms, traced);
        frames_ok += 1;
        wire_bytes += f.wire_bytes as u64;
        match f.kind {
            EncodedKind::Key => keyframes += 1,
            EncodedKind::Delta { tiles } => {
                delta_frames += 1;
                dirty_tiles += tiles as u64;
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.work_units = frames_ok as f64;

    let n = (out.attempted() as f64).max(1.0);
    let io = s.storage.counts().since(io0);
    let stream = s.sd.report();
    let plans = cdat::plan_cache::global_stats();
    let hits = stream.cache_hits - stream0.cache_hits;
    let lookups = hits + stream.cache_misses - stream0.cache_misses;
    let l = &mut out.layers;
    l.insert("cdms.storage.read_calls", io.read_calls as f64 / n);
    l.insert("cdms.storage.read_bytes", io.read_bytes as f64 / n);
    l.insert(
        "cdms.stream.hit_ratio",
        hits as f64 / (lookups as f64).max(1.0),
    );
    l.insert(
        "cdms.stream.evictions",
        (stream.evictions - stream0.evictions) as f64 / n,
    );
    l.insert(
        "cdms.stream.chunk_reads",
        (stream.chunk_reads - stream0.chunk_reads) as f64 / n,
    );
    l.insert(
        "cdms.stream.peak_cache_bytes",
        stream.peak_cache_bytes as f64,
    );
    l.insert(
        "cdat.plan_cache.hits",
        (plans.hits - plans0.hits) as f64 / n,
    );
    l.insert(
        "cdat.plan_cache.misses",
        (plans.misses - plans0.misses) as f64 / n,
    );
    l.insert(
        "cdat.plan_cache.dedups",
        (plans.dedups - plans0.dedups) as f64 / n,
    );
    l.insert(
        "hyperwall.frame_delta.dirty_tile_ratio",
        dirty_tiles as f64 / ((delta_frames * tiles_per_frame as u64) as f64).max(1.0),
    );
    l.insert("hyperwall.frame_delta.keyframes", keyframes as f64 / n);
    l.insert(
        "hyperwall.protocol.wire_bytes_per_frame",
        wire_bytes as f64 / (frames_ok as f64).max(1.0),
    );

    out.info(
        "series",
        format!("{SERIES:?} (time, lev, lat, lon), window {WINDOW}"),
    );
    out.info(
        "cache_budget_share",
        format!("1/{CACHE_SHARE} of the decoded series"),
    );
    out.info("panel", format!("{}x{}", PANEL.0, PANEL.1));
    out.info("display_grid", format!("{}x{}", DISPLAY.0, DISPLAY.1));
    Ok(out)
}
