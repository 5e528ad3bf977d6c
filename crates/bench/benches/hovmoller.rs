//! E4 / Fig 4: Hovmöller extraction, phase-speed measurement and the
//! time-as-vertical renders. Emits `BENCH_hovmoller.json`.

use cdat::hovmoller;
use cdms::synth::SynthesisSpec;
use dv3d::cell::Dv3dCell;
use dv3d::plots::PlotSpec;
use dv3d::translation::{translate_scalar, TranslationOptions};
use dv3d_bench::Artifact;

fn section_extraction(art: &mut Artifact) {
    for nt in [16usize, 32, 64] {
        let ds = SynthesisSpec::new(nt, 1, 24, 72).seed(4).build();
        let wave = ds.variable("wave").unwrap().clone();
        art.case("fig4_hovmoller_section", nt, || {
            hovmoller::lon_time_section(&wave, (-15.0, 15.0)).unwrap()
        });
    }
}

fn phase_speed_measurement(art: &mut Artifact) {
    let ds = SynthesisSpec::new(32, 1, 24, 72).seed(4).build();
    let wave = ds.variable("wave").unwrap();
    let section = hovmoller::lon_time_section(wave, (-15.0, 15.0)).unwrap();
    art.case("fig4_phase_speed", "cross_correlation", || {
        hovmoller::zonal_phase_speed(&section).unwrap()
    });
}

fn hovmoller_renders(art: &mut Artifact) {
    let ds = SynthesisSpec::new(24, 1, 16, 48).seed(4).build();
    let vol = hovmoller::hovmoller_volume(ds.variable("wave").unwrap()).unwrap();
    let img = translate_scalar(&vol, &TranslationOptions::default()).unwrap();
    for (name, spec) in [
        ("slicer", PlotSpec::hovmoller_slicer(img.clone())),
        ("volume", PlotSpec::hovmoller_volume(img.clone())),
    ] {
        let mut cell = Dv3dCell::try_new(name, spec).unwrap();
        cell.render(96, 72).unwrap();
        art.case("fig4_hovmoller_render", name, || cell.render(96, 72).unwrap());
    }
}

fn main() {
    let mut art = Artifact::new("hovmoller", false);
    section_extraction(&mut art);
    phase_speed_measurement(&mut art);
    hovmoller_renders(&mut art);
    art.finish();
}
