//! Ensemble-scale analysis bench: the dependency-counting TaskGraph
//! executor driving the `cdat::ensemble` DAG (N member sources → one
//! batched regrid → ensemble reductions → per-region chains), plus the
//! batched multi-RHS regrid against the per-member loop it replaces.
//! Emits `BENCH_ensemble.json`.
//!
//! Two design claims under test:
//!
//! 1. **Event-driven executor scales.** With inner kernels pinned to one
//!    rayon worker (so all parallelism comes from task-level overlap), the
//!    ensemble DAG at two executor workers must be >= 1.5x faster than
//!    `run_serial`. Asserted only when the box has more than one hardware
//!    thread and the executor actually resolved more than one worker
//!    (`speedup_asserted` in the JSON, the BENCH_render.json convention).
//!    A 1/2/4/8 worker sweep is recorded either way.
//! 2. **Batched regrid beats the member loop.** One cached CSR plan
//!    applied to all members as a blocked multi-RHS SpMM must not lose to
//!    N single applies at >= 32 members (same plan cache warmth, one
//!    rayon worker, so the win is pure CSR-row reuse and cache locality).
//!
//! Both paths are held to bit-identity before any timing: the 2-worker
//! executor against `run_serial` on every DAG output, and the batched
//! regrid against per-member applies. The serial run's per-task
//! milliseconds are always recorded (`serial_task_ms`), heaviest first.
//! `DV3D_BENCH_SMOKE=1` shrinks member count, field shape, and reps for CI
//! smoke runs.

use cdat::ensemble::{self, Region};
use cdat::regrid::{regrid, regrid_batch};
use cdat::regrid_plan::RegridMethod;
use cdms::{RectGrid, Variable};
use dv3d_bench::{best, object, smoke, time_ms, with_rayon_threads, Artifact, Bound, Value};

/// Asserts two variables carry bit-identical data and identical masks.
fn assert_bit_identical(want: &Variable, got: &Variable, what: &str) {
    let wb: Vec<u32> = want.array.data().iter().map(|v| v.to_bits()).collect();
    let gb: Vec<u32> = got.array.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(wb, gb, "{what}: data bits diverged");
    assert_eq!(want.array, got.array, "{what}: arrays diverged");
}

fn main() {
    let smoke = smoke();
    // Members × (time, lev, lat, lon), regridded up to the analysis grid.
    let (n_members, shape, target, reps) = if smoke {
        (32, (12, 1, 12, 24), RectGrid::uniform(16, 32).expect("grid"), 3)
    } else {
        (48, (12, 2, 24, 48), RectGrid::uniform(32, 64).expect("grid"), 7)
    };
    let regions = [
        Region::new("tropics", (-20.0, 20.0), (0.0, 360.0)),
        Region::new("north", (30.0, 80.0), (0.0, 360.0)),
        Region::new("south", (-80.0, -30.0), (0.0, 360.0)),
    ];
    let method = RegridMethod::Conservative;
    let members = ensemble::synth_members(n_members, shape, 2026).expect("members");

    let hardware_threads = dv3d_bench::hardware_threads();
    let mut art = Artifact::new("ensemble", smoke);

    let g = ensemble::build_graph(members.clone(), target.clone(), method, &regions)
        .expect("build graph");

    // ---- bit-identity gates, before any timing ------------------------
    // 1. the 2-worker executor against the serial oracle on every output
    let serial = g.run_serial().expect("serial run");
    let par = g.run_with_pool(2).expect("parallel run");
    assert_eq!(serial.outputs.len(), par.outputs.len(), "output sets differ");
    for (name, want) in &serial.outputs {
        let got = par.outputs.get(name).unwrap_or_else(|| panic!("missing output {name}"));
        assert_bit_identical(want, got, &format!("task '{name}' pool 2 vs serial"));
    }
    // 2. the batched multi-RHS regrid against N single applies
    let member_refs: Vec<&Variable> = members.iter().collect();
    let batched = regrid_batch(&member_refs, &target, method).expect("batch regrid");
    assert_eq!(batched.len(), members.len());
    for (b, m) in batched.iter().zip(&members) {
        let single = regrid(m, &target, method).expect("single regrid");
        assert_bit_identical(&single, b, &format!("batched regrid of '{}'", m.id));
    }
    drop((batched, serial, par));

    // ---- timing: inner kernels pinned to one rayon worker -------------
    // All speedup below must come from executor-level task overlap (claim
    // 1) or from the blocked SpMM's memory behaviour (claim 2), not from
    // the kernels' own data parallelism.
    let ((serial_ms, serial_task_ms, sweep, loop_ms, batch_ms), _) = with_rayon_threads(1, || {
        // serial-oracle baseline
        let runs: Vec<f64> =
            (0..reps).map(|_| time_ms(|| g.run_serial().expect("serial run"))).collect();
        let serial_ms = best(&runs);

        let report = g.run_serial().expect("serial run");
        let mut by_cost: Vec<(String, f64)> = report
            .timings
            .into_iter()
            .map(|(name, d)| (name, d.as_secs_f64() * 1e3))
            .collect();
        by_cost.sort_by(|a, b| b.1.total_cmp(&a.1));
        let serial_task_ms =
            Value::Object(by_cost.into_iter().map(|(name, ms)| (name, Value::Float(ms))).collect());

        // 1/2/4/8 executor-worker sweep
        let sweep: Vec<(usize, f64, usize)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let mut workers = 1;
                let runs: Vec<f64> = (0..reps)
                    .map(|_| {
                        time_ms(|| {
                            let report = g.run_with_pool(w).expect("pooled run");
                            workers = report.workers;
                            report
                        })
                    })
                    .collect();
                (w, best(&runs), workers)
            })
            .collect();

        // batched regrid vs the per-member loop, both plan-cache warm
        let mut loop_runs = Vec::with_capacity(reps);
        let mut batch_runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            loop_runs.push(time_ms(|| {
                for m in &members {
                    std::hint::black_box(regrid(m, &target, method).expect("single regrid"));
                }
            }));
            batch_runs.push(time_ms(|| {
                regrid_batch(&member_refs, &target, method).expect("batch regrid")
            }));
        }
        (serial_ms, serial_task_ms, sweep, best(&loop_runs), best(&batch_runs))
    });

    let (two_ms, two_workers) = sweep
        .iter()
        .find(|&&(w, _, _)| w == 2)
        .map(|&(_, ms, workers)| (ms, workers))
        .unwrap_or((f64::NAN, 1));
    let dag_speedup = serial_ms / two_ms;
    let speedup_asserted = hardware_threads > 1 && two_workers > 1;
    art.gate(
        "dag_two_worker_speedup",
        dag_speedup,
        Bound::AtLeast(1.5),
        speedup_asserted,
        format!(
            "2-worker executor only {dag_speedup:.2}x over run_serial \
             (serial {serial_ms:.2} ms, 2 workers {two_ms:.2} ms)"
        ),
    );
    let batch_speedup = loop_ms / batch_ms;
    art.gate(
        "batch_over_loop_speedup",
        batch_speedup,
        Bound::AtLeast(1.0),
        true,
        format!(
            "batched regrid lost to the per-member loop at {n_members} members: \
             {batch_ms:.2} ms vs {loop_ms:.2} ms"
        ),
    );

    art.set("members", n_members);
    art.set("member_shape", format!("{}x{}x{}x{}", shape.0, shape.1, shape.2, shape.3));
    art.set("dst_grid", format!("{}x{}", target.lat.len(), target.lon.len()));
    art.set("regions", regions.len());
    art.set("reps", reps);
    art.set("dag_serial_ms", serial_ms);
    art.set("dag_two_worker_ms", two_ms);
    art.set("dag_two_worker_speedup", dag_speedup);
    art.set("speedup_asserted", speedup_asserted);
    let rows = sweep.iter().map(|&(w, ms, workers)| {
        object! { "requested": w, "workers": workers, "run_ms": ms }
    });
    art.set("worker_sweep", rows.collect::<Vec<_>>());
    art.set("serial_task_ms", serial_task_ms);
    art.set("regrid_loop_ms", loop_ms);
    art.set("regrid_batch_ms", batch_ms);
    art.set("batch_over_loop_speedup", batch_speedup);
    println!(
        "bench ensemble: DAG serial {serial_ms:.1} ms vs 2 workers {two_ms:.1} ms \
         ({dag_speedup:.2}x, asserted: {speedup_asserted}); batched regrid \
         {batch_speedup:.2}x over the {n_members}-member loop"
    );
    art.finish();
}
