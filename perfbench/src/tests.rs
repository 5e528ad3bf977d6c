//! Tests of the benchmark itself: a tampered output must count as a
//! failed operation, and a short run must emit every metric
//! `BENCHMARK.json` declares. Run with
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use super::*;
use std::sync::Mutex;

/// Workload runs share the process-wide span store and plan cache.
static SERIAL: Mutex<()> = Mutex::new(());

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.into(),
        seed: 7,
        seconds: 0.4,
        trace,
    }
}

fn short_run(workload: &str, trace: bool, tamper: Tamper) -> Report {
    let _one = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    run_workload(&args(workload, trace), tamper, 1).expect("workload runs")
}

fn assert_all_failed(r: &Report) {
    assert!(r.attempted > 0, "nothing attempted");
    assert_eq!(r.failed, r.attempted, "a tampered output passed a check");
    assert!(!r.correct);
}

#[test]
fn tampered_frame_counts_as_failure() {
    assert_all_failed(&short_run("playback", false, Tamper::Frame));
}

#[test]
fn tampered_digest_counts_as_failure() {
    assert_all_failed(&short_run("service", false, Tamper::Digest));
}

#[test]
fn tampered_ensemble_output_counts_as_failure() {
    assert_all_failed(&short_run("ensemble", false, Tamper::Ensemble));
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
            (
                name,
                unit[..unit.find('"').expect("unit closes")].to_string(),
            )
        })
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn short_runs_emit_every_declared_metric() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!(e2e.len(), END_TO_END.len());
    assert_eq!(layers.len(), PER_LAYER.len());
    for w in WORKLOADS {
        let plain = short_run(w, false, Tamper::None);
        assert!(plain.correct && plain.failed == 0, "{w}: {:?}", plain.lines);
        assert_eq!(emitted(&plain), e2e, "{w} end-to-end metrics");
        assert!(
            plain.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
            "{w}: {:?}",
            plain.metrics
        );
        let names = named(w);
        let text = plain.lines.join("\n");
        let tails = names.tails.iter().map(|t| t.1);
        for name in tails.chain([
            names.p50,
            names.rate,
            "setup_s",
            "peak_heap_mb",
            "peak_rss_mb",
        ]) {
            assert!(text.contains(name), "{w}: {name} not printed");
        }

        let traced = short_run(w, true, Tamper::None);
        assert!(traced.correct, "{w} traced: {:?}", traced.lines);
        assert_eq!(emitted(&traced), layers, "{w} per-layer metrics");
        let json = traced.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

#[test]
fn self_times_and_root_remainder_add_up_to_the_operation() {
    let span = |id, parent, name, start_ns, end_ns| trace::Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req: 0,
    };
    let spans = vec![
        span(0, trace::NO_PARENT, "playback.frame", 0, 100),
        span(1, 0, "cdms.stream", 10, 40),
        span(2, 1, "cdms.storage.read", 15, 25),
        span(3, 0, "rvtk.render", 50, 90),
    ];
    let selfs: Vec<u64> = trace::self_times(&spans)
        .into_iter()
        .map(|(_, ns)| ns)
        .collect();
    assert_eq!(selfs, vec![30, 20, 10, 40]);
    assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
}

#[test]
fn failed_operations_stay_in_the_latency_sample() {
    let mut o = Outcome::default();
    for ms in 1..=9 {
        o.push(f64::from(ms), false);
    }
    o.fail(false, "timeout".into());
    assert_eq!(o.attempted(), 10);
    assert_eq!(percentile(&o.latencies_ms, 95.0), f64::INFINITY);
    assert_eq!(median(&o.latencies_ms), 5.0);
}

#[test]
fn traced_half_shares_no_period_with_the_workload() {
    let cfg = Config {
        seed: 3,
        seconds: 1.0,
        trace: true,
        setup_reps: 1,
        work_dir: PathBuf::new(),
        tamper: Tamper::None,
    };
    // playback fetches a window every 4th frame and keys every 16th
    for period in [2u64, 4, 16] {
        for phase in 0..period {
            let ops: Vec<u64> = (0..4000).map(|k| k * period + phase).collect();
            let traced = ops.iter().filter(|&&i| cfg.traced_op(i)).count();
            let share = traced as f64 / ops.len() as f64;
            assert!(
                (0.45..=0.55).contains(&share),
                "period {period} phase {phase}: {share}"
            );
        }
    }
}

#[test]
fn a_stall_in_one_stretch_does_not_set_the_windowed_tail() {
    let mut a = vec![5.0; 600];
    let b = vec![5.0; 600];
    // one stall: the first stretch of session `a` is slow
    for x in &mut a[..40] {
        *x = 80.0;
    }
    assert_eq!(percentile(&[a.clone(), b.clone()].concat(), 99.0), 80.0);
    assert_eq!(harness::windowed_percentile(&[&a, &b], 99.0, 6), 5.0);
}
