//! E2 / Fig 2: per-plot-type render cost across resolutions, plus the
//! volume renderer's early-ray-termination ablation. Emits
//! `BENCH_plots.json`.

use dv3d::cell::Dv3dCell;
use dv3d::plots::{Plot, PlotSpec, VolumePlot};
use dv3d::translation::{translate_vector, TranslationOptions};
use dv3d_bench::{bench_dataset, slab, ta_image, Artifact};
use rvtk::render::{Framebuffer, Renderer};

fn plot_render(art: &mut Artifact) {
    let ds = bench_dataset();
    let ta_img = ta_image(&ds);
    let wind_img = translate_vector(
        &slab(&ds, "ua"),
        &slab(&ds, "va"),
        &TranslationOptions::default(),
    )
    .unwrap();

    for (name, spec) in [
        ("slicer", PlotSpec::slicer(ta_img.clone())),
        ("volume", PlotSpec::volume(ta_img.clone())),
        ("isosurface", PlotSpec::isosurface(ta_img.clone())),
        ("vector_slicer", PlotSpec::vector_slicer(wind_img)),
    ] {
        for (w, h) in [(96usize, 72usize), (192, 144)] {
            let mut cell = Dv3dCell::try_new(name, spec.clone()).unwrap();
            cell.render(w, h).unwrap(); // warm the camera
            art.case("fig2_plot_render", format!("{name}/{w}x{h}"), || cell.render(w, h).unwrap());
        }
    }
}

fn volume_early_termination_ablation(art: &mut Artifact) {
    let ds = bench_dataset();
    let img = ta_image(&ds);
    for (label, early) in [("on", true), ("off", false)] {
        let mut plot = VolumePlot::new(img.clone()).unwrap();
        plot.early_termination = early;
        // make the medium dense so termination matters
        plot.editor.level = plot.editor.data_range.0
            + 0.3 * (plot.editor.data_range.1 - plot.editor.data_range.0);
        let mut renderer = Renderer::new();
        plot.populate(&mut renderer).unwrap();
        renderer.reset_camera();
        art.case("volume_early_termination", label, || {
            let mut fb = Framebuffer::new(96, 72);
            renderer.render(&mut fb);
            fb
        });
    }
}

fn main() {
    let mut art = Artifact::new("plots", false);
    plot_render(&mut art);
    volume_early_termination_ablation(&mut art);
    art.finish();
}
