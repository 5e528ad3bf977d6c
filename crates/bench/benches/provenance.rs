//! E6 / §III.F: provenance costs — per-action recording overhead,
//! materialization vs tree depth, serialization, and the executor's
//! result-cache ablation. Emits `BENCH_provenance.json`.

use dv3d::modules::prebuilt_plot_workflow;
use dv3d_bench::Artifact;
use vistrails::executor::Executor;
use vistrails::module::ModuleRegistry;
use vistrails::provenance::{Action, Vistrail};
use vistrails::value::ParamValue;

fn deep_vistrail(depth: usize) -> (Vistrail, u64) {
    let mut vt = Vistrail::new("deep");
    let mut head = vt
        .add_action(Vistrail::ROOT, Action::AddModule { id: 1, type_name: "m".into() })
        .unwrap();
    for i in 0..depth {
        head = vt
            .add_action(
                head,
                Action::SetParameter {
                    module: 1,
                    name: format!("p{}", i % 8),
                    value: ParamValue::Int(i as i64),
                },
            )
            .unwrap();
    }
    (vt, head)
}

fn action_recording(art: &mut Artifact) {
    for depth in [10usize, 100, 400] {
        art.case("provenance_record", depth, || deep_vistrail(depth));
    }
}

fn materialize_vs_depth(art: &mut Artifact) {
    for depth in [10usize, 100, 400] {
        let (vt, head) = deep_vistrail(depth);
        art.case("provenance_materialize", depth, || vt.materialize(head).unwrap());
    }
}

fn serialization(art: &mut Artifact) {
    let (vt, _) = deep_vistrail(200);
    let json = vt.to_json().unwrap();
    art.case("provenance_serde", "to_json_200", || vt.to_json().unwrap());
    art.case("provenance_serde", "from_json_200", || Vistrail::from_json(&json).unwrap());
}

fn executor_cache_ablation(art: &mut Artifact) {
    let wf = prebuilt_plot_workflow("slicer", "ta", (1, 3, 12, 24)).unwrap();
    let pipeline = wf.vistrail.materialize(wf.version).unwrap();
    let registry = {
        let mut r = ModuleRegistry::new();
        dv3d::modules::register_all(&mut r);
        r
    };
    let mut exec = Executor::new(registry.clone());
    exec.execute(&pipeline).unwrap(); // warm
    art.case("executor_cache", "caching_on_warm", || exec.execute(&pipeline).unwrap());
    let mut exec = Executor::new(registry);
    exec.caching_enabled = false;
    art.case("executor_cache", "caching_off", || exec.execute(&pipeline).unwrap());
}

fn main() {
    let mut art = Artifact::new("provenance", false);
    action_recording(&mut art);
    materialize_vs_depth(&mut art);
    serialization(&mut art);
    executor_cache_ablation(&mut art);
    art.finish();
}
