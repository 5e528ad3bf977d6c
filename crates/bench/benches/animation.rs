//! E8 / §III.D: 4D animation throughput — frames/sec stepping a plot
//! through time, per plot type. Emits `BENCH_animation.json`.

use dv3d::animation::AnimationController;
use dv3d::cell::Dv3dCell;
use dv3d::plots::PlotSpec;
use dv3d::translation::{translate_scalar, TranslationOptions};
use dv3d_bench::{bench_dataset, Artifact};

fn animation_loop(art: &mut Artifact) {
    let ds = bench_dataset();
    let pr = ds.variable("pr").unwrap();
    let opts = TranslationOptions::default();
    let first = translate_scalar(&pr.time_slab(0).unwrap(), &opts).unwrap();
    art.set("frames_per_loop", pr.n_times());

    for (name, spec) in [
        ("slicer", PlotSpec::slicer(first.clone())),
        ("volume", PlotSpec::volume(first.clone())),
    ] {
        let mut anim = AnimationController::from_variable(pr, &opts).unwrap();
        let mut cell = Dv3dCell::try_new(name, spec).unwrap();
        cell.show_colorbar = false;
        cell.show_labels = false;
        cell.render(96, 72).unwrap();
        art.case("fig_animation", name, || anim.render_loop(&mut cell, 96, 72).unwrap());
    }
}

fn frame_step_only(art: &mut Artifact) {
    // just the data swap + state rescale, no rendering
    let ds = bench_dataset();
    let pr = ds.variable("pr").unwrap();
    let opts = TranslationOptions::default();
    let mut anim = AnimationController::from_variable(pr, &opts).unwrap();
    let first = translate_scalar(&pr.time_slab(0).unwrap(), &opts).unwrap();
    let mut cell = Dv3dCell::new("step", PlotSpec::slicer(first));
    art.case("fig_animation_step", "set_image", || anim.step(cell.plot_mut(), 1).unwrap());
}

fn main() {
    let mut art = Artifact::new("animation", false);
    animation_loop(&mut art);
    frame_step_only(&mut art);
    art.finish();
}
