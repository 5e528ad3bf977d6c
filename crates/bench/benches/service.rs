//! Multi-tenant service bench: sessions × throughput × p99 across the
//! three load regimes the admission/shedding design targets —
//!
//! * **healthy**: paced conforming sessions within worker capacity;
//! * **overloaded**: 4× the session count, no pacing, queues past the
//!   overload watermark (degraded answers + `Busy` backpressure);
//! * **one misbehaving client**: the healthy population plus a single
//!   scripted quota-storm flooder (seeded [`FaultPlan`]), which the
//!   service must reject/shed while conforming latency holds.
//!
//! Emits `BENCH_service.json`. `DV3D_BENCH_SMOKE=1` shrinks the run
//! for CI smoke checks.

use dv3d_bench::{object, smoke, Artifact, Bound, Value};
use hyperwall::fault::FaultPlan;
use hyperwall::protocol::ServiceWork;
use hyperwall::service::client::{run_faulted_client, ClientRunStats, ServiceClient};
use hyperwall::service::quota::{QuotaConfig, MILLI};
use hyperwall::service::{spawn_service, MuxConfig, ServiceConfig};
use std::time::{Duration, Instant};

const IO: Duration = Duration::from_millis(500);

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        mux: MuxConfig {
            max_sessions: 32,
            inbox_capacity: 12,
            quota: QuotaConfig { burst: 12, refill_milli_per_round: 4 * MILLI },
            quantum: 2,
            overload_watermark: 16,
            shed_watermark: 32,
            misbehave_threshold: 4,
            round_ms: 2,
        },
        workers: 2,
        io_deadline_ms: 250,
        round_interval_ms: 2,
    }
}

fn work(seed: u64) -> ServiceWork {
    ServiceWork::Analysis { seed, len: 256 }
}

/// One scenario's observables.
#[derive(Debug)]
struct Outcome {
    sessions: usize,
    throughput_rps: f64,
    p99_ms: f64,
    degraded: u64,
    retry_afters: u64,
    busies: u64,
    timeouts: u64,
}

fn summarize(sessions: usize, stats: &[ClientRunStats], elapsed: Duration) -> Outcome {
    let answered: u64 = stats.iter().map(|s| s.full_responses + s.degraded_responses).sum();
    Outcome {
        sessions,
        throughput_rps: answered as f64 / elapsed.as_secs_f64().max(1e-9),
        p99_ms: stats.iter().filter_map(|s| s.percentile_ms(99.0)).fold(0.0, f64::max),
        degraded: stats.iter().map(|s| s.degraded_responses).sum(),
        retry_afters: stats.iter().map(|s| s.retry_afters).sum(),
        busies: stats.iter().map(|s| s.busies).sum(),
        timeouts: stats.iter().map(|s| s.timeouts).sum(),
    }
}

impl Outcome {
    /// The artifact row, reporting `population` sessions in total.
    fn row(&self, population: usize) -> Value {
        object! {
            "sessions": population,
            "throughput_rps": self.throughput_rps,
            "p99_ms": self.p99_ms,
            "degraded": self.degraded,
            "busies": self.busies,
            "retry_afters": self.retry_afters,
        }
    }
}

/// Background pressure styles riding alongside the measured sessions.
enum Load {
    /// No extra load: the measured sessions are the whole population.
    None,
    /// `n` open-loop sessions, each blasting its full burst and draining —
    /// aggregate demand ~4× what the conforming population needs.
    OpenLoop(usize),
    /// One scripted quota-storm abuser from a seeded [`FaultPlan`].
    Flooder(u32),
}

/// Runs `n_sessions` conforming closed-loop clients (gap = pacing) plus
/// the scenario's background load, against a fresh service. Latency is
/// measured on the conforming sessions only.
fn run_scenario(n_sessions: usize, requests: usize, gap: Duration, load: Load) -> Outcome {
    let svc = spawn_service(service_cfg()).expect("spawn service");
    let addr = svc.addr();
    let works: Vec<ServiceWork> = (0..requests as u64).map(work).collect();
    let started = Instant::now();
    let stats: Vec<ClientRunStats> = std::thread::scope(|s| {
        let mut background = Vec::new();
        match load {
            Load::None => {}
            Load::OpenLoop(n) => {
                for id in 0..n as u64 {
                    background.push(s.spawn(move || {
                        let mut c = ServiceClient::connect(addr, 500 + id, IO).expect("connect");
                        for round in 0..4u64 {
                            c.flood(12, &work(7_000 + round));
                            c.drain_replies(Duration::from_millis(40));
                        }
                        c.close().ok();
                    }));
                }
            }
            Load::Flooder(storm) => {
                background.push(s.spawn(move || {
                    // seed 1, one session, one storm — deterministically abusive
                    let plan = FaultPlan::seeded_service_storm(1, 1, 1, storm);
                    run_faulted_client(addr, 9_000, &plan.client(0), &[work(999)], IO)
                        .expect("flooder run");
                }));
            }
        }
        let handles: Vec<_> = (0..n_sessions as u64)
            .map(|id| {
                let works = works.clone();
                s.spawn(move || {
                    let mut c = ServiceClient::connect(addr, id, IO).expect("connect");
                    let stats = c.run_closed_loop(&works, Duration::from_secs(2), gap);
                    c.close().ok();
                    stats
                })
            })
            .collect();
        for b in background {
            b.join().expect("background load thread");
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed();
    svc.shutdown();
    summarize(n_sessions, &stats, elapsed)
}

fn main() {
    let smoke = smoke();
    let (sessions, requests, storm) = if smoke { (2, 6, 48) } else { (4, 24, 96) };

    let healthy = run_scenario(sessions, requests, Duration::from_millis(4), Load::None);
    // 4× population: the measured sessions plus 3× open-loop blasters
    let overloaded =
        run_scenario(sessions, requests, Duration::from_millis(4), Load::OpenLoop(sessions * 3));
    let misbehaving =
        run_scenario(sessions, requests, Duration::from_millis(4), Load::Flooder(storm));

    let mut art = Artifact::new("service", smoke);
    art.gate(
        "healthy_timeouts",
        healthy.timeouts as f64,
        Bound::Exactly(0.0),
        true,
        format!("healthy run must not time out: {healthy:?}"),
    );
    art.gate(
        "misbehaving_timeouts",
        misbehaving.timeouts as f64,
        Bound::Exactly(0.0),
        true,
        format!("conforming sessions must be answered despite the flooder: {misbehaving:?}"),
    );
    let pushback = overloaded.degraded + overloaded.retry_afters + overloaded.busies;
    art.gate(
        "overloaded_pushback",
        pushback as f64,
        Bound::Above(0.0),
        true,
        format!("4x load must trigger degradation or backpressure: {overloaded:?}"),
    );

    let p99_ratio = misbehaving.p99_ms / healthy.p99_ms.max(1e-9);
    art.set("requests_per_session", requests);
    art.set("healthy", healthy.row(healthy.sessions));
    // total population: the measured sessions plus the blasters
    art.set("overloaded", overloaded.row(overloaded.sessions * 4));
    art.set("one_misbehaving", misbehaving.row(misbehaving.sessions));
    art.set("misbehaving_over_healthy_p99_ratio", p99_ratio);
    println!(
        "bench service: healthy p99 {:.1} ms, 4x-overload p99 {:.1} ms, \
         with-flooder p99 {:.1} ms (ratio {:.2})",
        healthy.p99_ms, overloaded.p99_ms, misbehaving.p99_ms, p99_ratio
    );
    art.finish();
}
