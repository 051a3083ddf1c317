//! The traced run's instruments: spans recorded around calls into each
//! layer, and a counting global allocator.
//!
//! Both are off unless the run passes `--trace 1`; while off, a span costs
//! one relaxed load and no clock read, and an allocation one relaxed load.
//! Spans are kept in memory and written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

const SHARDS: usize = 8;
static SPANS: [Mutex<Vec<Span>>; SHARDS] = [const { Mutex::new(Vec::new()) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// One recorded span: a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.hit`.
    pub name: &'static str,
    /// This span's id.
    pub id: u64,
    /// The span that caused it on the same thread (0 = none).
    pub parent: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh span id (for callers that link children to a parent).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The start instant of a span, or `None` while tracing is off.
pub fn start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Records `name` from `start` to now under `parent`; a no-op when
/// `start` is `None`. Returns the span id (0 when nothing was recorded).
pub fn finish(name: &'static str, parent: u64, start: Option<Instant>) -> u64 {
    match start {
        Some(s) => record(name, next_id(), parent, s, Instant::now()),
        None => 0,
    }
}

/// Records a span with an id chosen by the caller.
pub fn record(name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let span = Span {
        name,
        id,
        parent,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    let shard = SHARD.with(|s| *s);
    SPANS[shard]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
    id
}

/// Takes every span recorded so far, ordered by start.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for shard in &SPANS {
        all.append(&mut shard.lock().unwrap_or_else(PoisonError::into_inner));
    }
    all.sort_by_key(|s| s.start_ns);
    all
}

/// Writes `spans` as tab-separated lines (name, id, parent, start_ns,
/// end_ns) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Starts or stops counting allocations.
pub fn count_allocs(on: bool) {
    COUNT_ALLOCS.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The system allocator plus a counter that runs only while
/// [`count_allocs`] is on.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
