//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer of the program in
//! [`span`]. With tracing off (the untraced run that measures end-to-end
//! metrics) a span is just the call. With tracing on, the recorder keeps
//! `(name, start, end, parent, request id)` in memory; parents come from a
//! per-thread stack, so a span's children are the spans the same thread
//! opened inside it. [`self_times`] turns the spans into per-layer self
//! time: a span's duration minus the part of it its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Serializes the tests that switch the process-wide recorder.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` (`layer.operation`) for request
/// `request` (0 when the call serves no single request).
pub fn span<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let id = {
        let mut spans = SPANS.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span recorder poisoned")[id].end_ns = now_ns();
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span.
pub fn span_self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in milliseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(span_self_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // root [0,100) has children [10,30) and [20,50) (overlapping: union
        // 40) and [90,120) (clipped to 10); the first child has a grandchild
        // [12,18).
        let spans = vec![
            sp("bench.round", 0, 100, None),
            sp("solver.linbp", 10, 30, Some(0)),
            sp("kernel.fused", 12, 18, Some(1)),
            sp("server.submit", 20, 50, Some(0)),
            sp("net.encode", 90, 120, Some(0)),
        ];
        assert_eq!(span_self_ns(&spans), vec![50, 14, 6, 30, 30]);
        let layers = self_times(&spans);
        assert_eq!(layers["bench"], 50.0 / 1e6);
        assert_eq!(layers["solver"], 14.0 / 1e6);
        assert_eq!(layers["kernel"], 6.0 / 1e6);
        assert_eq!(layers["net"], 30.0 / 1e6);
        // Self times add up to the root's wall time, plus the 10 ns the two
        // overlapping siblings share, plus the 20 ns of the clipped child
        // that lie outside the root.
        let total: u64 = span_self_ns(&spans).iter().sum();
        assert_eq!(total, 100 + 10 + 20);
    }

    #[test]
    fn spans_nest_per_thread() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        span("bench.outer", 7, || {
            span("solver.inner", 7, || std::hint::black_box(1 + 1));
        });
        set_enabled(false);
        span("bench.ignored", 0, || ());
        let spans: Vec<Span> = take().into_iter().filter(|s| s.request == 7).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "bench.outer");
        assert!(spans[1].parent.is_some());
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
