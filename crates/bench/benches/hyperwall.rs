//! E5 / Fig 5: hyperwall scaling — client count sweep, the mirror
//! downsample ablation, and the distributed-vs-single-node comparison.
//! Emits `BENCH_hyperwall.json`.
//!
//! On a host with few cores the distributed numbers mostly show protocol
//! overhead; the *mirror vs full-res* ratio is the hardware-independent
//! shape result.

use dv3d::interaction::{CameraOp, ConfigOp};
use dv3d_bench::Artifact;
use hyperwall::cluster::{run_single_node_baseline, run_wall};
use hyperwall::workflow::WallWorkflowConfig;

fn cfg(n_cells: usize) -> WallWorkflowConfig {
    WallWorkflowConfig { n_cells, synth: (1, 2, 10, 20), cell_px: (64, 48) }
}

fn client_count_sweep(art: &mut Artifact) {
    for n in [1usize, 4, 15] {
        art.case("fig5_wall_clients", n, || run_wall(&cfg(n), 4, 1, &[]).unwrap());
    }
}

fn mirror_downsample_ablation(art: &mut Artifact) {
    let config = WallWorkflowConfig { n_cells: 4, synth: (1, 2, 10, 20), cell_px: (128, 96) };
    for d in [1usize, 2, 4, 8] {
        art.case("fig5_mirror_downsample", d, || run_wall(&config, d, 1, &[]).unwrap());
    }
}

fn distributed_vs_single_node(art: &mut Artifact) {
    let config = cfg(8);
    art.case("fig5_vs_single_node", "single_node_8cells", || {
        run_single_node_baseline(&config, 1).unwrap()
    });
    art.case("fig5_vs_single_node", "distributed_8cells", || {
        run_wall(&config, 4, 1, &[]).unwrap()
    });
}

fn op_broadcast_latency(art: &mut Artifact) {
    let config = cfg(15);
    let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(10.0))];
    art.case("fig5_op_broadcast", "wall_with_interaction", || {
        run_wall(&config, 4, 2, &ops).unwrap()
    });
}

fn main() {
    let mut art = Artifact::new("hyperwall", false);
    client_count_sweep(&mut art);
    mirror_downsample_ablation(&mut art);
    distributed_vs_single_node(&mut art);
    op_broadcast_latency(&mut art);
    art.finish();
}
