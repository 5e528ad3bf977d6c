//! Fused analysis-pipeline bench: the canonical paper chain
//! anomaly → standardize → spatial_mean on a CMIP-shaped monthly field,
//! fused through `cdat::pipeline` versus the frozen pre-fusion eager
//! reference (`cdat::eager_ref`). Emits `BENCH_analysis.json`.
//!
//! The design claim under test: compiling the chain into a virtual-field
//! pass (one elementwise sweep feeding deterministic blocked reductions,
//! ~3 full-array passes instead of ~10 with intermediate materialization)
//! makes the end-to-end chain at least 2× faster single-threaded. The CI
//! assertion uses a 1.5× floor so shared-box jitter can't flake the run.
//!
//! Also reports serial-vs-parallel scaling of the fused pipeline with the
//! *effective* rayon pool size per row — single-core CI boxes resolve
//! every request to a pool of 1, and the artifact should say so rather
//! than look like a scaling failure. RAYON_NUM_THREADS is honoured: an
//! externally pinned value wins over hardware detection for the wide row.
//!
//! `DV3D_BENCH_SMOKE=1` shrinks reps and the field for CI smoke runs.

use cdat::pipeline::{run, AnalysisStep};
use cdat::{averager, climatology, eager_ref, statistics};
use cdms::synth::SynthesisSpec;
use cdms::Variable;
use dv3d_bench::{best, object, smoke, time_ms, with_rayon_threads, Artifact, Bound};

const CHAIN: [AnalysisStep; 3] =
    [AnalysisStep::Anomaly, AnalysisStep::Standardize, AnalysisStep::SpatialMean];

/// Frozen pre-fusion reference: every step materializes its output.
fn eager_chain(var: &Variable) -> Variable {
    let anom = eager_ref::anomaly(var).expect("eager anomaly");
    let std = eager_ref::standardize(&anom).expect("eager standardize");
    eager_ref::spatial_mean(&std).expect("eager spatial mean")
}

/// Fused stepwise path: each step uses the expression/reduction engine but
/// still materializes between steps. Separates fusion-within-a-step gains
/// from cross-step virtual-field gains in the artifact.
fn stepwise_fused(var: &Variable) -> Variable {
    let anom = climatology::anomaly(var).expect("fused anomaly");
    let std = statistics::standardize(&anom).expect("fused standardize");
    averager::spatial_mean(&std).expect("fused spatial mean")
}

/// Best-of-reps ms of the fused pipeline under a requested worker count,
/// with the pool size the dispatcher actually resolved.
fn fused_ms_at(var: &Variable, threads: usize, reps: usize) -> (f64, usize) {
    with_rayon_threads(threads, || {
        let runs: Vec<f64> =
            (0..reps).map(|_| time_ms(|| run(var, &CHAIN).expect("fused pipeline"))).collect();
        best(&runs)
    })
}

fn main() {
    let smoke = smoke();
    // 12 months x 17 levels x 73 lat x 144 lon: the 2.5-degree reanalysis
    // shape the paper's exploratory sessions page through.
    let (reps, spec, shape) = if smoke {
        (5, SynthesisSpec::new(12, 3, 24, 48).seed(41), "12x3x24x48")
    } else {
        (12, SynthesisSpec::new(12, 17, 73, 144).seed(41), "12x17x73x144")
    };
    let ds = spec.build();
    let ta = ds.variable("ta").expect("ta");

    // Sanity: the three paths agree on the headline scalar before timing.
    let fused_out = run(ta, &CHAIN).expect("fused pipeline");
    let eager_out = eager_chain(ta);
    for (f, e) in fused_out.array.data().iter().zip(eager_out.array.data()) {
        assert!((f - e).abs() <= 1e-4 * e.abs().max(1.0), "fused {f} vs eager {e}");
    }

    // Single-threaded contest: eager reference vs stepwise fused vs the
    // cross-step fused pipeline, interleaved rep-by-rep so drift on a
    // shared box hits all contenders equally.
    let ((eager, stepwise, fused), _) = with_rayon_threads(1, || {
        let (mut eager, mut stepwise, mut fused) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            eager = eager.min(time_ms(|| eager_chain(ta)));
            stepwise = stepwise.min(time_ms(|| stepwise_fused(ta)));
            fused = fused.min(time_ms(|| run(ta, &CHAIN).expect("fused pipeline")));
        }
        (eager, stepwise, fused)
    });

    // Scaling rows: serial vs whatever the box (or RAYON_NUM_THREADS) offers.
    let wide = rayon::current_num_threads();
    // Full sweep at 1/2/4/8 requested workers (the BENCH_render.json
    // convention), plus the legacy serial / wide rows.
    let sweep: Vec<(usize, f64, usize)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            let (ms, pool) = fused_ms_at(ta, t, reps);
            (t, ms, pool)
        })
        .collect();
    let (serial_ms, pool1) = (sweep[0].1, sweep[0].2);
    let (wide_ms, pool_n) = fused_ms_at(ta, wide, reps);

    let speedup = eager / fused;
    let stepwise_speedup = eager / stepwise;
    let mut art = Artifact::new("analysis", smoke);
    art.set("reps", reps);
    art.set("shape", shape);
    art.set("eager_chain_ms", eager);
    art.set("stepwise_fused_ms", stepwise);
    art.set("fused_pipeline_ms", fused);
    art.set("stepwise_over_eager_speedup", stepwise_speedup);
    art.set("fused_over_eager_speedup", speedup);
    art.set("fused_serial_ms", serial_ms);
    art.set("fused_parallel_ms", wide_ms);
    art.set("effective_pool_one_thread", pool1);
    art.set("effective_pool_all_threads", pool_n);
    art.set("requested_threads", wide);
    let rows = sweep.iter().map(|&(t, ms, pool)| {
        object! { "requested": t, "effective_pool": pool, "fused_ms": ms }
    });
    art.set("thread_sweep", rows.collect::<Vec<_>>());
    art.gate(
        "fused_over_eager_speedup",
        speedup,
        Bound::AtLeast(1.5),
        true,
        format!(
            "fused pipeline must be >= 1.5x faster than the eager chain \
             single-threaded, got {speedup:.2}x (eager {eager:.4} ms, fused {fused:.4} ms)"
        ),
    );
    println!(
        "bench analysis: fused pipeline {speedup:.1}x faster than eager chain \
         single-threaded (stepwise fused {stepwise_speedup:.1}x)"
    );
    art.finish();
}
