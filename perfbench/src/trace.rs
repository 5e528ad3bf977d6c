//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name, start and end (ns since the recorder started), the span that
//! was open on the same thread when it began (its parent) and the id of
//! the frame or request it belongs to. Spans are kept in memory and
//! written out once the run ends ([`write_jsonl`]). Recording is switched
//! on per operation with [`set_enabled`]; while off, [`span`] costs one
//! atomic load.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQ: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since the recorder's epoch at `t`.
pub fn ns_at(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags spans opened on this thread with frame or request id `req`.
pub fn set_request(req: u64) {
    REQ.with(|r| r.set(req));
}

/// Records a span whose bounds were measured elsewhere (a duration the
/// program reported, or a wait the benchmark timed itself). Returns its id.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, req: u64) -> u32 {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let span = Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        req,
    };
    SPANS
        .lock()
        .expect("span store poisoned by a panicking thread")
        .push(span);
    id
}

/// An open span; recorded when dropped.
#[derive(Debug)]
pub struct Guard {
    open: Option<(u32, u32, &'static str, u64, u64)>,
}

/// Opens a span named `name` under the innermost span open on this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(NO_PARENT);
        s.push(id);
        parent
    });
    let req = REQ.with(Cell::get);
    Guard {
        open: Some((id, parent, name, req, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                req,
            });
        }
    }
}

/// Removes and returns every recorded span, and starts the recorder's
/// clock if it has not started, so spans of a run that follows never
/// begin before it.
pub fn take() -> Vec<Span> {
    epoch();
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking thread"),
    )
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span run one after another on its thread, so
/// their durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<(usize, u64)> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.dur_ns().saturating_sub(child_ns[i])))
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
