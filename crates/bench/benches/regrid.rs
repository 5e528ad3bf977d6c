//! Plan/apply regridding bench: cold (plan + apply every timestep) versus
//! warm (plan once from the cache, sparse-apply per timestep), plus thread
//! scaling of the parallel apply. Emits `BENCH_regrid.json`.
//!
//! The design claim under test: amortising the stencil/overlap search into
//! a cached CSR weight matrix makes steady-state regridding (animation
//! frames, repeated pipeline runs) at least 5× cheaper per timestep than
//! re-deriving the weights each call.
//!
//! `DV3D_BENCH_SMOKE=1` shrinks reps for CI smoke runs.

use cdat::plan_cache;
use cdat::regrid::regrid;
use cdat::regrid_plan::{RegridMethod, RegridPlan};
use cdms::synth::SynthesisSpec;
use cdms::{RectGrid, Variable};
use dv3d_bench::{best, object, smoke, time_ms, with_rayon_threads, Artifact, Bound};

const N_TIMES: usize = 8;

/// Per-timestep cold latency: every timestep re-plans and applies, exactly
/// what a per-call regridder pays. Best of `reps` runs, ms.
fn cold_ms_per_step(var: &Variable, target: &RectGrid, method: RegridMethod, reps: usize) -> f64 {
    let (lat, lon) = (&var.axes[var.rank() - 2], &var.axes[var.rank() - 1]);
    let slabs: Vec<Variable> =
        (0..N_TIMES).map(|t| var.time_slab(t).expect("slab")).collect();
    let step = || {
        for slab in &slabs {
            let plan = RegridPlan::build(method, lat, lon, target).expect("plan");
            std::hint::black_box(plan.apply(slab).expect("apply"));
        }
    };
    let runs: Vec<f64> = (0..reps).map(|_| time_ms(step) / N_TIMES as f64).collect();
    best(&runs)
}

/// Per-timestep warm latency: the plan is built once (cache hit in steady
/// state) and only the sparse apply runs per timestep.
fn warm_ms_per_step(var: &Variable, target: &RectGrid, method: RegridMethod, reps: usize) -> f64 {
    let (lat, lon) = (&var.axes[var.rank() - 2], &var.axes[var.rank() - 1]);
    let plan = RegridPlan::build(method, lat, lon, target).expect("plan");
    let slabs: Vec<Variable> =
        (0..N_TIMES).map(|t| var.time_slab(t).expect("slab")).collect();
    let step = || {
        for slab in &slabs {
            std::hint::black_box(plan.apply(slab).expect("apply"));
        }
    };
    let runs: Vec<f64> = (0..reps).map(|_| time_ms(step) / N_TIMES as f64).collect();
    best(&runs)
}

/// Whole-variable apply (all timesteps in one parallel pass) under a given
/// worker count, ms, with the pool size the dispatcher actually resolved.
fn scaling_ms(var: &Variable, target: &RectGrid, threads: usize, reps: usize) -> (f64, usize) {
    let (lat, lon) = (&var.axes[var.rank() - 2], &var.axes[var.rank() - 1]);
    let plan = RegridPlan::build(RegridMethod::Conservative, lat, lon, target).expect("plan");
    with_rayon_threads(threads, || {
        let runs: Vec<f64> =
            (0..reps).map(|_| time_ms(|| plan.apply(var).expect("apply"))).collect();
        best(&runs)
    })
}

fn main() {
    let smoke = smoke();
    let reps = if smoke { 6 } else { 15 };
    let ds = SynthesisSpec::new(N_TIMES, 6, 24, 48).seed(2012).build();
    let ta = ds.variable("ta").expect("ta");
    let tos = ds.variable("tos").expect("tos");
    // Upsample 24x48 -> 64x128: the shape hyperwall panels ask for.
    let target = RectGrid::uniform(64, 128).expect("grid");

    let bi_cold = cold_ms_per_step(tos, &target, RegridMethod::Bilinear, reps);
    let bi_warm = warm_ms_per_step(tos, &target, RegridMethod::Bilinear, reps);
    let co_cold = cold_ms_per_step(tos, &target, RegridMethod::Conservative, reps);
    let co_warm = warm_ms_per_step(tos, &target, RegridMethod::Conservative, reps);

    // Thread scaling of one whole-variable parallel apply (time*lev planes).
    // An externally-set RAYON_NUM_THREADS wins over hardware detection, so
    // CI can pin the wide row; `scaling_ms` reports what the pool resolved.
    let wide = rayon::current_num_threads();
    // Full sweep at 1/2/4/8 requested workers (the BENCH_render.json
    // convention), plus the legacy one-thread / wide rows derived from it.
    let sweep: Vec<(usize, f64, usize)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            let (ms, pool) = scaling_ms(ta, &target, t, reps);
            (t, ms, pool)
        })
        .collect();
    let (t1, pool1) = (sweep[0].1, sweep[0].2);
    let (tn, pool_n) = scaling_ms(ta, &target, wide, reps);

    // Cache counters over a realistic reuse pattern: two variables, same
    // grid pair, through the public wrapper API.
    plan_cache::clear_global();
    regrid(tos, &target, RegridMethod::Conservative).expect("regrid tos");
    regrid(ta, &target, RegridMethod::Conservative).expect("regrid ta");
    let stats = plan_cache::global_stats();

    let speedup_bi = bi_cold / bi_warm;
    let speedup_co = co_cold / co_warm;
    let headline = speedup_bi.max(speedup_co);
    let mut art = Artifact::new("regrid", smoke);
    art.set("n_times", N_TIMES);
    art.set("reps", reps);
    art.set("src_grid", "24x48");
    art.set("dst_grid", "64x128");
    art.set("bilinear_cold_ms_per_step", bi_cold);
    art.set("bilinear_warm_ms_per_step", bi_warm);
    art.set("bilinear_warm_over_cold_speedup", speedup_bi);
    art.set("conservative_cold_ms_per_step", co_cold);
    art.set("conservative_warm_ms_per_step", co_warm);
    art.set("conservative_warm_over_cold_speedup", speedup_co);
    art.set("warm_over_cold_speedup", headline);
    art.set("apply_one_thread_ms", t1);
    art.set("apply_all_threads_ms", tn);
    art.set("effective_pool_one_thread", pool1);
    art.set("effective_pool_all_threads", pool_n);
    art.set("requested_threads", wide);
    let rows = sweep.iter().map(|&(t, ms, pool)| {
        object! { "requested": t, "effective_pool": pool, "apply_ms": ms }
    });
    art.set("thread_sweep", rows.collect::<Vec<_>>());
    art.set("cache_hits", stats.hits);
    art.set("cache_misses", stats.misses);
    art.gate(
        "warm_over_cold_speedup",
        headline,
        Bound::AtLeast(5.0),
        true,
        format!("warm-cache apply must be >= 5x faster than cold plan+apply, got {headline:.2}x"),
    );
    println!(
        "bench regrid: warm apply {headline:.1}x faster than cold plan+apply \
         (bilinear {speedup_bi:.1}x, conservative {speedup_co:.1}x)"
    );
    art.finish();
}
