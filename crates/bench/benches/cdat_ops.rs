//! E7 / §III.G: the CDAT operation suite — regridding (both schemes),
//! climatology/anomaly, averagers, and the parallel task graph ablation.
//! Emits `BENCH_cdat_ops.json`.

use cdat::{averager, climatology, regrid, statistics, taskgraph::TaskGraph};
use cdms::RectGrid;
use dv3d_bench::{bench_dataset, bench_dataset_sized, Artifact};
use std::sync::Arc;

fn regrid_schemes(art: &mut Artifact) {
    for (nlat, nlon) in [(24usize, 48usize), (48, 96)] {
        let ds = bench_dataset_sized(nlat, nlon);
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let target = RectGrid::uniform(nlat / 2, nlon / 2).unwrap();
        art.case("cdat_regrid", format!("bilinear/{nlat}x{nlon}"), || {
            regrid::bilinear(&ta, &target).unwrap()
        });
        art.case("cdat_regrid", format!("conservative/{nlat}x{nlon}"), || {
            regrid::conservative(&ta, &target).unwrap()
        });
    }
}

fn analysis_suite(art: &mut Artifact) {
    let ds = bench_dataset();
    let ta = ds.variable("ta").unwrap();
    let group = "cdat_analysis";
    art.case(group, "anomaly", || climatology::anomaly(ta).unwrap());
    art.case(group, "spatial_mean", || averager::spatial_mean(ta).unwrap());
    art.case(group, "zonal_mean", || averager::zonal_mean(ta).unwrap());
    art.case(group, "linear_trend", || statistics::linear_trend(ta).unwrap());
    art.case(group, "correlation_self", || statistics::correlation(ta, ta).unwrap());
    art.case(group, "pressure_interp", || {
        regrid::pressure_interp(ta, &[925.0, 775.0, 550.0]).unwrap()
    });
}

fn build_graph() -> TaskGraph {
    let ds = bench_dataset();
    let ta = ds.variable("ta").unwrap().clone();
    let mut g = TaskGraph::new();
    g.add_source("ta", ta).unwrap();
    g.add_task("anom", &["ta"], |d| climatology::anomaly(&d["ta"])).unwrap();
    g.add_task("zonal", &["ta"], |d| averager::zonal_mean(&d["ta"])).unwrap();
    g.add_task("regrid", &["ta"], |d| {
        let t = RectGrid::uniform(12, 24).unwrap();
        regrid::bilinear(&d["ta"], &t)
    })
    .unwrap();
    g.add_task("trend", &["ta"], |d| statistics::linear_trend(&d["ta"])).unwrap();
    g.add_task("series", &["anom"], |d| averager::spatial_mean(&d["anom"])).unwrap();
    g.add_task("summary", &["series", "zonal"], |d| {
        Ok(Arc::unwrap_or_clone(d["series"].clone()))
    })
    .unwrap();
    g
}

fn taskgraph_serial_vs_parallel(art: &mut Artifact) {
    let g = build_graph();
    art.case("cdat_taskgraph", "serial", || g.run_serial().unwrap());
    let g = build_graph();
    art.case("cdat_taskgraph", "parallel", || g.run_parallel().unwrap());
}

fn main() {
    let mut art = Artifact::new("cdat_ops", false);
    regrid_schemes(&mut art);
    analysis_suite(&mut art);
    taskgraph_serial_vs_parallel(&mut art);
    art.finish();
}
