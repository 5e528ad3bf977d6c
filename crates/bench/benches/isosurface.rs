//! E3 / Fig 3: isosurface extraction and rendering — scaling with grid
//! size, colored-by-second-variable cost, and watertightness overhead.
//! Emits `BENCH_isosurface.json`.

use dv3d::cell::Dv3dCell;
use dv3d::plots::PlotSpec;
use dv3d::translation::{translate_scalar, TranslationOptions};
use dv3d_bench::{bench_dataset_sized, Artifact};
use rvtk::filters::{isosurface, isosurface_colored};

fn extraction_scaling(art: &mut Artifact) {
    for (nlat, nlon) in [(16usize, 32usize), (24, 48), (36, 72)] {
        let ds = bench_dataset_sized(nlat, nlon);
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
        let (lo, hi) = img.scalar_range().unwrap();
        let iso = (lo + hi) / 2.0;
        art.case("fig3_isosurface_extraction", format!("{nlat}x{nlon}"), || {
            isosurface(&img, iso).unwrap()
        });
    }
}

fn colored_vs_plain(art: &mut Artifact) {
    let ds = bench_dataset_sized(24, 48);
    let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
    let hus = ds.variable("hus").unwrap().time_slab(0).unwrap();
    let opts = TranslationOptions::default();
    let ta_img = translate_scalar(&ta, &opts).unwrap();
    let hus_img = translate_scalar(&hus, &opts).unwrap();
    let (lo, hi) = ta_img.scalar_range().unwrap();
    let iso = (lo + hi) / 2.0;
    art.case("fig3_isosurface_coloring", "plain", || isosurface(&ta_img, iso).unwrap());
    art.case("fig3_isosurface_coloring", "colored_by_hus", || {
        isosurface_colored(&ta_img, iso, &hus_img).unwrap()
    });
}

fn full_plot_render(art: &mut Artifact) {
    let ds = bench_dataset_sized(24, 48);
    let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
    let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
    let mut cell = Dv3dCell::try_new("iso", PlotSpec::isosurface(img)).unwrap();
    cell.render(96, 72).unwrap();
    art.case("fig3_isosurface_cell_render", "96x72", || cell.render(96, 72).unwrap());
}

fn main() {
    let mut art = Artifact::new("isosurface", false);
    extraction_scaling(&mut art);
    colored_vs_plain(&mut art);
    full_plot_render(&mut art);
    art.finish();
}
