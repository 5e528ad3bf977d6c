//! `service`: an open loop at one fixed offered rate over at most two
//! sessions against `spawn_service(ServiceConfig::default())`. The
//! seeded mix is `Regrid` over a small fixed set of grid pairs plus
//! `Analysis` and `Render` work; every reply's digest is checked against
//! a local `service::worker::perform`. A request's latency runs from the
//! time it was due, so a stall also delays the requests behind it.

use crate::harness::{
    ctx, ms_since, timed_setups, windowed_percentile, Config, Outcome, Rng, Tamper,
};
use crate::trace;
use hyperwall::protocol::{
    encode_frame, read_message, read_message_deadline, write_message_deadline, Message,
    ResultQuality, ServiceWork, MAX_MESSAGE_BYTES,
};
use hyperwall::service::worker::perform;
use hyperwall::service::{spawn_service, ServiceConfig, ServiceHandle};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Percentile reported as the tail: latencies sit in two modes a
/// scheduler tick apart, and p95 falls between them, so it would move
/// with the share in the slow mode rather than with either mode.
pub const TAIL: f64 = 99.0;
/// The tail is the median of the p99 of this many equal stretches of the
/// pass (5 s each in a 30 s run, 1500 samples, 15 beyond p99): a stall of
/// the host delays every request due during it, and a few such stalls
/// would otherwise set the p99 of the whole pass.
const TAIL_WINDOWS: usize = 6;

/// Offered rate over all sessions, requests/s. Below the per-session
/// quota, so the program's capacity, not admission, sets the latency.
const RATE: f64 = 300.0;
const MAX_SESSIONS: usize = 2;
const REGRID_PAIRS: [((usize, usize), (usize, usize)); 3] = [
    ((24, 48), (32, 64)),
    ((32, 64), (16, 32)),
    ((45, 90), (30, 60)),
];
/// Distinct seeds per work kind, so the set of expected digests is small.
const SEEDS: u64 = 8;
/// Ids of measured requests start here, above the warm-up's.
const FIRST_ID: u64 = 1 << 20;
const IO: Duration = Duration::from_millis(500);
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// Sleep between reads of an idle connection: the resolution of a
/// reply's timestamp.
const POLL: Duration = Duration::from_micros(200);

fn work(rng: &mut Rng) -> ServiceWork {
    let seed = rng.below(SEEDS);
    match rng.below(10) {
        0..=4 => {
            let (src, dst) = REGRID_PAIRS[rng.below(REGRID_PAIRS.len() as u64) as usize];
            ServiceWork::Regrid { src, dst, seed }
        }
        5..=7 => ServiceWork::Analysis { seed, len: 4096 },
        _ => ServiceWork::Render {
            width: 64,
            height: 48,
            seed,
        },
    }
}

/// Every work item the mix can draw.
fn distinct_works() -> Vec<ServiceWork> {
    let mut all = Vec::new();
    for seed in 0..SEEDS {
        for (src, dst) in REGRID_PAIRS {
            all.push(ServiceWork::Regrid { src, dst, seed });
        }
        all.push(ServiceWork::Analysis { seed, len: 4096 });
        all.push(ServiceWork::Render {
            width: 64,
            height: 48,
            seed,
        });
    }
    all
}

/// One session's connection. Replies are read without blocking, so one
/// thread can both send on schedule and timestamp replies as they land
/// (a socket read timeout would be rounded up to the kernel's tick).
struct Conn {
    stream: TcpStream,
    session: u64,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, session: u64) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(ctx("connect"))?;
        stream.set_nodelay(true).map_err(ctx("nodelay"))?;
        let open = Message::SessionOpen {
            session_id: session,
        };
        write_message_deadline(&mut stream, &open, IO, "SessionOpen").map_err(ctx("open"))?;
        match read_message_deadline(&mut stream, IO, "SessionAccepted").map_err(ctx("open"))? {
            Message::SessionAccepted { .. } => {}
            other => return Err(format!("session {session} refused: {other:?}")),
        }
        stream.set_nonblocking(true).map_err(ctx("nonblocking"))?;
        Ok(Conn {
            stream,
            session,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, request: u64, work: ServiceWork) -> Result<(), String> {
        self.write(&Message::Request {
            session_id: self.session,
            request,
            work,
        })
    }

    fn close(mut self) -> Result<(), String> {
        self.write(&Message::SessionClose {
            session_id: self.session,
        })
    }

    fn write(&mut self, msg: &Message) -> Result<(), String> {
        let frame = encode_frame(msg).map_err(ctx("encode"))?;
        let deadline = Instant::now() + IO;
        let mut rest = frame.as_slice();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Every complete message that has arrived, without waiting.
    fn try_recv(&mut self) -> Result<Vec<Message>, String> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("service closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        let mut out = Vec::new();
        while let Some(len) = self
            .buf
            .get(..4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        {
            let end = 4 + len as usize;
            if len as usize > MAX_MESSAGE_BYTES {
                return Err(format!("implausible reply length {len}"));
            }
            if self.buf.len() < end {
                break;
            }
            out.push(read_message(&mut &self.buf[..end]).map_err(ctx("decode"))?);
            self.buf.drain(..end);
        }
        Ok(out)
    }

    /// Sends one request and waits for its reply (set-up only).
    fn call(&mut self, request: u64, work: ServiceWork) -> Result<Message, String> {
        self.send(request, work)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while Instant::now() < deadline {
            for m in self.try_recv()? {
                match &m {
                    Message::Response { request: r, .. }
                    | Message::RetryAfter { request: r, .. }
                        if *r == request =>
                    {
                        return Ok(m)
                    }
                    _ => {}
                }
            }
            std::thread::sleep(POLL);
        }
        Err(format!("request {request} timed out"))
    }
}

/// Checks one reply against the local `perform` digest.
fn check_reply(quality: ResultQuality, digest: u64, want: Option<u64>) -> Result<(), &'static str> {
    if quality != ResultQuality::Full {
        Err("degraded reply")
    } else if want != Some(digest) {
        Err("digest mismatch")
    } else {
        Ok(())
    }
}

/// Drives one session's share of the open loop: request `k` is due at
/// `start + k * interval`, plus the session's share of one interval, and its work is the `k`-th draw from
/// `rng`; replies are collected between sends. Work is drawn as it is
/// sent, so the generator holds only the requests in flight. Across all
/// `sessions`, request `k` of this session is operation
/// `k * sessions + session`: the id its spans and trace choice use.
fn drive(
    conn: &mut Conn,
    sessions: u64,
    mut rng: Rng,
    expected: &HashMap<ServiceWork, u64>,
    start: Instant,
    interval: Duration,
    cfg: &Config,
) -> Outcome {
    let session = conn.session;
    let op = |k: u64| k * sessions + session;
    // sessions take turns: each is offset by its share of the interval
    let offset = interval.mul_f64(session as f64 / sessions as f64);
    let mut log = Outcome::default();
    let end = start + Duration::from_secs_f64(cfg.seconds);
    // request index → (due, sent, work)
    let mut pending: BTreeMap<u64, (Instant, Instant, ServiceWork)> = BTreeMap::new();
    let mut next = 0u64;
    loop {
        let now = Instant::now();
        let due = start + offset + interval * u32::try_from(next).unwrap_or(u32::MAX);
        let sending = due < end;
        if sending && now >= due {
            let k = next;
            next += 1;
            let w = work(&mut rng);
            let sent = Instant::now();
            match conn.send(FIRST_ID + k, w.clone()) {
                Ok(()) => {
                    pending.insert(k, (due, sent, w));
                }
                Err(e) => log.fail(cfg.traced_op(op(k)), e),
            }
            continue;
        }
        if !sending && pending.is_empty() {
            break;
        }
        if now > end + REPLY_TIMEOUT {
            for k in std::mem::take(&mut pending).into_keys() {
                log.fail(cfg.traced_op(op(k)), format!("request {k} timed out"));
            }
            break;
        }
        let msgs = match conn.try_recv() {
            Ok(m) => m,
            Err(e) => {
                for k in std::mem::take(&mut pending).into_keys() {
                    log.fail(cfg.traced_op(op(k)), e.clone());
                }
                break;
            }
        };
        if msgs.is_empty() {
            let wait = if sending {
                due.saturating_duration_since(now)
            } else {
                POLL
            };
            std::thread::sleep(wait.min(POLL));
            continue;
        }
        let received = Instant::now();
        for msg in msgs {
            match msg {
                Message::Response {
                    request,
                    quality,
                    digest,
                    compute_ms,
                    ..
                } => {
                    let k = request.wrapping_sub(FIRST_ID);
                    let Some((due, sent, w)) = pending.remove(&k) else {
                        continue;
                    };
                    let traced = cfg.traced_op(op(k));
                    let mut want = expected.get(&w).copied();
                    if cfg.tamper == Tamper::Digest {
                        want = want.map(|d| d ^ 1);
                    }
                    match check_reply(quality, digest, want) {
                        Ok(()) => {
                            log.push((received - due).as_secs_f64() * 1e3, traced);
                            if traced {
                                record_spans(op(k), due, sent, received, compute_ms);
                            }
                        }
                        Err(why) => log.fail(traced, format!("request {k}: {why}")),
                    }
                }
                Message::RetryAfter { request, .. } => {
                    let k = request.wrapping_sub(FIRST_ID);
                    if pending.remove(&k).is_some() {
                        log.fail(cfg.traced_op(op(k)), format!("request {k}: RetryAfter"));
                    }
                }
                Message::Busy { .. } => {
                    // backpressure fails the oldest request still waiting
                    if let Some((k, _)) = pending.pop_first() {
                        log.fail(cfg.traced_op(op(k)), format!("request {k}: Busy"));
                    }
                }
                _ => {}
            }
        }
    }
    log
}

/// The request's spans: the generator's lateness, then the service's
/// wait (queue, scheduler and wire) and compute. Wait is the remainder
/// of the latency, so a service request leaves nothing unattributed.
fn record_spans(request: u64, due: Instant, sent: Instant, received: Instant, compute_ms: f64) {
    let (due, sent, end) = (
        trace::ns_at(due),
        trace::ns_at(sent),
        trace::ns_at(received),
    );
    let compute_start = end.saturating_sub((compute_ms * 1e6) as u64).max(sent);
    let root = trace::record("service.request", due, end, trace::NO_PARENT, request);
    trace::record("harness.gen_late", due, sent, root, request);
    trace::record("hyperwall.service.wait", sent, compute_start, root, request);
    trace::record(
        "hyperwall.service.compute",
        compute_start,
        end,
        root,
        request,
    );
}

struct Session {
    svc: ServiceHandle,
    conns: Vec<Conn>,
    expected: HashMap<ServiceWork, u64>,
}

fn setup(sessions: usize) -> Result<Session, String> {
    let warm = distinct_works();
    let expected = warm
        .iter()
        .map(|w| perform(w, ResultQuality::Full).map(|o| (w.clone(), o.digest)))
        .collect::<Result<HashMap<_, _>, _>>()
        .map_err(ctx("perform"))?;
    let svc = spawn_service(ServiceConfig::default()).map_err(ctx("spawn_service"))?;
    let mut conns = Vec::with_capacity(sessions);
    for id in 0..sessions as u64 {
        conns.push(Conn::open(svc.addr(), id)?);
    }
    // warm-up: every distinct work item once per session, checked
    for c in &mut conns {
        for (i, w) in warm.iter().enumerate() {
            match c.call(i as u64, w.clone())? {
                Message::Response {
                    quality, digest, ..
                } => {
                    check_reply(quality, digest, expected.get(w).copied())
                        .map_err(|why| format!("warm-up {w:?}: {why}"))?;
                }
                other => return Err(format!("warm-up {w:?}: {other:?}")),
            }
        }
    }
    Ok(Session {
        svc,
        conns,
        expected,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = nproc.clamp(1, MAX_SESSIONS);
    let mut out = Outcome::default();
    let Session {
        svc,
        mut conns,
        expected,
    } = timed_setups(
        &mut out,
        cfg.setup_reps,
        |_| setup(sessions),
        |old| {
            old.svc.shutdown();
        },
    )?;

    // the seeded schedule: one work generator per session
    let interval = Duration::from_secs_f64(sessions as f64 / RATE);
    let mut seeds = Rng::new(cfg.seed);
    let rngs: Vec<Rng> = (0..sessions).map(|_| Rng::new(seeds.next_u64())).collect();

    let counters0 = svc.counters();
    let mux0 = svc.mux_stats();
    let plans0 = cdat::plan_cache::global_stats();
    let start = Instant::now() + Duration::from_millis(5);
    let logs: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(rngs)
            .map(|(conn, rng)| {
                let expected = &expected;
                s.spawn(move || drive(conn, sessions as u64, rng, expected, start, interval, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    out.wall_s = ms_since(start) / 1e3;
    let counters = svc.counters();
    let mux = svc.mux_stats();
    let plans = cdat::plan_cache::global_stats();
    for c in conns {
        c.close().ok();
    }
    svc.shutdown();

    let in_order: Vec<&[f64]> = logs.iter().map(|l| l.latencies_ms.as_slice()).collect();
    out.windowed_tail = Some((
        windowed_percentile(&in_order, TAIL, TAIL_WINDOWS),
        TAIL_WINDOWS,
    ));
    for log in logs {
        out.latencies_ms.extend(log.latencies_ms);
        out.traced.extend(log.traced);
        out.failed += log.failed;
        out.failures.extend(log.failures);
    }
    out.failures.truncate(8);
    out.work_units = (out.attempted() - out.failed) as f64;
    let n = (out.attempted() as f64).max(1.0);
    let l = &mut out.layers;
    l.insert(
        "cdat.plan_cache.hits",
        (plans.hits - plans0.hits) as f64 / n,
    );
    l.insert(
        "cdat.plan_cache.misses",
        (plans.misses - plans0.misses) as f64 / n,
    );
    l.insert(
        "cdat.plan_cache.dedups",
        (plans.dedups - plans0.dedups) as f64 / n,
    );
    l.insert(
        "hyperwall.service.responses",
        (counters.responses - counters0.responses) as f64,
    );
    l.insert(
        "hyperwall.service.degraded",
        (counters.degraded_responses - counters0.degraded_responses) as f64,
    );
    l.insert(
        "hyperwall.service.busies",
        (counters.busies - counters0.busies) as f64,
    );
    l.insert(
        "hyperwall.service.retry_afters",
        (counters.retry_afters - counters0.retry_afters) as f64,
    );
    l.insert(
        "hyperwall.service.deadline_drops",
        (counters.deadline_drops - counters0.deadline_drops) as f64,
    );
    l.insert(
        "hyperwall.service.mux_rounds",
        (mux.rounds - mux0.rounds) as f64,
    );
    l.insert("hyperwall.service.shed", (mux.shed - mux0.shed) as f64);

    out.info("sessions", sessions);
    out.info("offered_rate_per_s", RATE);
    out.info("service_workers", ServiceConfig::default().workers);
    Ok(out)
}
