//! `lexcache-trace` — always-compiled, off-by-default structured
//! tracing: per-thread fixed-capacity ring buffers of begin/end/instant
//! events with monotonic ticks from the workspace clock boundary
//! ([`crate::Stopwatch`]).
//!
//! # Design
//!
//! * **Off is free.** Every record entry point starts with one relaxed
//!   atomic load and returns — the same convention as the sink gate in
//!   the crate root. Instrumented hot paths pay nothing measurable
//!   until `--trace`/`LEXCACHE_TRACE=1` flips the switch.
//! * **Zero allocation on the hot path.** Span names are interned to
//!   `u32` ids through a per-thread memo (one allocation the first
//!   time a thread sees a name, none afterwards), and events land in a
//!   pre-allocated per-thread ring. A full ring overwrites its oldest
//!   events and counts the drops — recording never blocks and never
//!   grows.
//! * **Deterministic merge.** Every event is stamped with a *track*:
//!   `(sweep epoch, cell)` routed by the same thread-local cell id the
//!   runner's sharded registries use ([`crate::set_current_cell`]
//!   calls [`note_cell`]). Because each cell executes on exactly one
//!   worker, its events sit contiguously in one ring; [`collect`]
//!   stable-sorts by `(epoch, cell)`, so the exported trace is
//!   identical no matter how many workers ran. Under zeroed timings
//!   (`TraceConfig::zero_timings`, set from `LEXCACHE_ZERO_TIMINGS=1`)
//!   the export is **byte-identical** across thread counts — the
//!   invariant the trace-smoke CI job diffs.
//!
//! The exporters ([`TraceSnapshot::to_chrome_json`],
//! [`TraceSnapshot::to_folded`], [`TraceSnapshot::render_decide_summary`])
//! turn one collected snapshot into a Chrome Trace Format / Perfetto
//! JSON document, `stack;stack count` flame-fold lines, and a
//! per-policy decide-phase attribution table. Writing the files is the
//! caller's job (the bench layer routes them through `atomic_write` —
//! lexlint rule LX12).

use crate::hist::Histogram;
use crate::Stopwatch;
use lexcache_runner::mini_json::quote;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel cell id for events recorded outside any sweep cell (bin
/// setup, table rendering, profile episodes). Sorts after every real
/// cell of the same epoch.
pub const MAIN_TRACK: u32 = u32::MAX;

/// Default per-thread ring capacity (events). Generous enough that a
/// smoke sweep never wraps — a wrap would drop events and is reported
/// loudly — while bounding memory at ~8 MiB per recording thread.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;
const KIND_INSTANT: u8 = 2;

/// Tracing configuration, fixed at [`enable`] time.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Record every tick and value as 0 so exports are byte-comparable
    /// across runs and thread counts (`LEXCACHE_ZERO_TIMINGS=1`).
    pub zero_timings: bool,
    /// Per-thread ring capacity in events.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            zero_timings: false,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

/// One recorded event: 32 bytes, no heap payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceEvent {
    kind: u8,
    name: u32,
    epoch: u32,
    cell: u32,
    tick_ns: u64,
    value_ns: u64,
}

/// Fixed-capacity overwrite-oldest event ring.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in recording order (oldest surviving first).
    fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Shape of one sweep: how flat cell ids decompose into
/// `(series, repeat)` and what the series are called.
#[derive(Debug, Clone, Default)]
struct SweepShape {
    repeats: usize,
    labels: Vec<String>,
}

#[derive(Debug)]
struct Shared {
    rings: Vec<Arc<Mutex<Ring>>>,
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
    origin: Option<Stopwatch>,
    capacity: usize,
    shapes: BTreeMap<u32, SweepShape>,
    pending_labels: Option<Vec<String>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static ZERO: AtomicBool = AtomicBool::new(false);
/// Bumped by every [`enable`] so stale per-thread handles from an
/// earlier tracing session re-register instead of writing into
/// orphaned rings.
static GEN: AtomicU32 = AtomicU32::new(0);
/// Current sweep epoch; 0 = before the first sweep.
static EPOCH: AtomicU32 = AtomicU32::new(0);
static SHARED: Mutex<Shared> = Mutex::new(Shared {
    rings: Vec::new(),
    names: Vec::new(),
    ids: BTreeMap::new(),
    origin: None,
    capacity: DEFAULT_CAPACITY,
    shapes: BTreeMap::new(),
    pending_labels: None,
});

struct Local {
    gen: u32,
    ring: Arc<Mutex<Ring>>,
    origin: Stopwatch,
    memo: BTreeMap<String, u32>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    static TRACK: Cell<(u32, u32)> = const { Cell::new((0, MAIN_TRACK)) };
}

/// Whether tracing is on. One relaxed load — the entire cost of every
/// record entry point while tracing is off.
#[inline]
pub fn is_on() -> bool {
    // lexlint: why gating only — a stale read skips or keeps one trace event, never a result
    ON.load(Ordering::Relaxed)
}

fn shared_lock() -> std::sync::MutexGuard<'static, Shared> {
    SHARED.lock().unwrap_or_else(|p| p.into_inner())
}

/// Turns tracing on with `cfg`, discarding any previously recorded
/// events. The tick origin restarts at zero.
pub fn enable(cfg: TraceConfig) {
    let mut shared = shared_lock();
    shared.rings.clear();
    shared.names.clear();
    shared.ids.clear();
    shared.shapes.clear();
    shared.pending_labels = None;
    shared.origin = Some(Stopwatch::start());
    shared.capacity = cfg.capacity.max(1);
    drop(shared);
    ZERO.store(cfg.zero_timings, Ordering::SeqCst);
    EPOCH.store(0, Ordering::SeqCst);
    GEN.fetch_add(1, Ordering::SeqCst);
    TRACK.with(|t| t.set((0, MAIN_TRACK)));
    ON.store(true, Ordering::SeqCst);
}

/// Turns tracing off. Recorded events stay available to [`collect`].
pub fn disable() {
    ON.store(false, Ordering::SeqCst);
}

fn register_local(gen: u32) -> Local {
    let mut shared = shared_lock();
    let ring = Arc::new(Mutex::new(Ring::new(shared.capacity)));
    shared.rings.push(ring.clone());
    let origin = shared.origin.unwrap_or_else(Stopwatch::start);
    Local {
        gen,
        ring,
        origin,
        memo: BTreeMap::new(),
    }
}

fn intern(name: &str) -> u32 {
    let mut shared = shared_lock();
    if let Some(&id) = shared.ids.get(name) {
        return id;
    }
    let id = shared.names.len() as u32;
    shared.names.push(name.to_string());
    shared.ids.insert(name.to_string(), id);
    id
}

fn record(kind: u8, name: &str, value_ns: u64) {
    if !is_on() {
        return;
    }
    // `try_with`: events emitted from drops during thread teardown are
    // silently lost rather than panicking in a TLS destructor.
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        // lexlint: why stale generation re-registers one event late; rings are append-only
        let gen = GEN.load(Ordering::Relaxed);
        if slot.as_ref().map(|l| l.gen) != Some(gen) {
            *slot = Some(register_local(gen));
        }
        let Some(local) = slot.as_mut() else {
            return;
        };
        let id = match local.memo.get(name) {
            Some(&id) => id,
            None => {
                let id = intern(name);
                local.memo.insert(name.to_string(), id);
                id
            }
        };
        // lexlint: why zeroing is fixed at enable(); a stale read cannot occur mid-run
        let zero = ZERO.load(Ordering::Relaxed);
        let tick_ns = if zero {
            0
        } else {
            local.origin.elapsed_ns() as u64
        };
        let (epoch, cell) = TRACK.with(Cell::get);
        local
            .ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(TraceEvent {
                kind,
                name: id,
                epoch,
                cell,
                tick_ns,
                value_ns: if zero { 0 } else { value_ns },
            });
    });
}

/// Records a span-begin event. Pair with [`end`] (the crate-root
/// [`crate::span`] guard does this automatically for every existing
/// instrumentation site).
#[inline]
pub fn begin(name: &str) {
    record(KIND_BEGIN, name, 0);
}

/// Records a span-end event.
#[inline]
pub fn end(name: &str) {
    record(KIND_END, name, 0);
}

/// Records a point event.
#[inline]
pub fn instant(name: &str) {
    record(KIND_INSTANT, name, 0);
}

/// Records a point event carrying a duration-like value (e.g. the
/// queue-wait gap before a cell started executing).
#[inline]
pub fn instant_ns(name: &str, value_ns: u64) {
    record(KIND_INSTANT, name, value_ns);
}

/// Declares the series labels of the *next* sweep (policy names), so
/// the decide-phase summary and track names can attribute cells.
pub fn label_next_sweep(labels: Vec<String>) {
    if !is_on() {
        return;
    }
    shared_lock().pending_labels = Some(labels);
}

/// Opens a new sweep epoch of `n_series × repeats` cells and moves the
/// calling thread onto the epoch's main track. Returns the epoch id
/// (0 when tracing is off).
pub fn begin_sweep(n_series: usize, repeats: usize) -> u32 {
    if !is_on() {
        return 0;
    }
    let epoch = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    let mut shared = shared_lock();
    let labels = shared.pending_labels.take().unwrap_or_default();
    let _ = n_series;
    shared.shapes.insert(epoch, SweepShape { repeats, labels });
    drop(shared);
    TRACK.with(|t| t.set((epoch, MAIN_TRACK)));
    epoch
}

/// Moves the calling thread's track to `cell` within the current
/// epoch. Routed automatically through [`crate::set_current_cell`], so
/// the runner's existing per-cell sharding also shards the trace.
pub fn note_cell(cell: usize) {
    if !is_on() {
        return;
    }
    // lexlint: why sweeps are sequential; the epoch is stable while any cell runs
    let epoch = EPOCH.load(Ordering::Relaxed);
    TRACK.with(|t| t.set((epoch, cell.min(MAIN_TRACK as usize - 1) as u32)));
}

/// Returns the calling thread to the current epoch's main track — the
/// sweep orchestrator calls this after the pool joins, so serial and
/// pooled runs leave the main thread on the same track.
pub fn end_sweep() {
    if !is_on() {
        return;
    }
    // lexlint: why sweeps are sequential; the epoch is stable between sweeps
    let epoch = EPOCH.load(Ordering::Relaxed);
    TRACK.with(|t| t.set((epoch, MAIN_TRACK)));
}

/// An immutable, canonically ordered copy of everything recorded so
/// far. Events are stable-sorted by `(epoch, cell)` with main-track
/// events after the cells of their epoch — the order is independent of
/// worker count because each cell records on exactly one thread.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    names: Vec<String>,
    events: Vec<TraceEvent>,
    shapes: BTreeMap<u32, SweepShape>,
    dropped: u64,
}

fn cell_sort_key(e: &TraceEvent) -> (u32, u32) {
    (e.epoch, e.cell)
}

/// Collects a [`TraceSnapshot`]. Tracing stays on; call at the end of
/// a bin (or from tests) to export what has been recorded.
pub fn collect() -> TraceSnapshot {
    let shared = shared_lock();
    let rings: Vec<Arc<Mutex<Ring>>> = shared.rings.clone();
    let names = shared.names.clone();
    let shapes = shared.shapes.clone();
    drop(shared);
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in &rings {
        let ring = ring.lock().unwrap_or_else(|p| p.into_inner());
        events.extend(ring.ordered());
        dropped += ring.dropped;
    }
    events.sort_by_key(cell_sort_key);
    TraceSnapshot {
        names,
        events,
        shapes,
        dropped,
    }
}

/// One completed (begin/end-paired) span occurrence.
#[derive(Debug, Clone)]
struct PairedSpan {
    epoch: u32,
    cell: u32,
    name: u32,
    /// Full `a;b;c` stack path (interned names joined).
    path: String,
    dur_ns: u64,
    self_ns: u64,
}

impl TraceSnapshot {
    /// Number of recorded events in the snapshot.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Events lost to ring overflow. Non-zero drops break the
    /// cross-thread-count determinism guarantee — raise
    /// `LEXCACHE_TRACE_CAP`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn name(&self, id: u32) -> &str {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// The policy/series label of a cell track, if the sweep declared
    /// labels.
    fn track_label(&self, epoch: u32, cell: u32) -> Option<&str> {
        let shape = self.shapes.get(&epoch)?;
        if cell == MAIN_TRACK || shape.repeats == 0 {
            return None;
        }
        shape
            .labels
            .get(cell as usize / shape.repeats)
            .map(String::as_str)
    }

    fn track_display_name(&self, epoch: u32, cell: u32) -> String {
        if cell == MAIN_TRACK {
            if epoch == 0 {
                "main".to_string()
            } else {
                format!("main (after sweep {epoch})")
            }
        } else {
            let repeat = self
                .shapes
                .get(&epoch)
                .filter(|s| s.repeats > 0)
                .map(|s| cell as usize % s.repeats);
            match (self.track_label(epoch, cell), repeat) {
                (Some(label), Some(r)) => format!("sweep {epoch} cell {cell} — {label} repeat {r}"),
                _ => format!("sweep {epoch} cell {cell}"),
            }
        }
    }

    /// Pairs begin/end events per track into completed spans with
    /// self-time attribution. Unmatched begins (panicked attempts,
    /// ring wrap) are dropped; unmatched ends are ignored.
    fn paired(&self) -> Vec<PairedSpan> {
        struct Frame {
            name: u32,
            start: u64,
            child_ns: u64,
            path: String,
        }
        let mut out = Vec::new();
        let mut stack: Vec<Frame> = Vec::new();
        let mut track: Option<(u32, u32)> = None;
        for e in &self.events {
            let key = (e.epoch, e.cell);
            if track != Some(key) {
                stack.clear();
                track = Some(key);
            }
            match e.kind {
                KIND_BEGIN => {
                    let path = match stack.last() {
                        Some(top) => format!("{};{}", top.path, self.name(e.name)),
                        None => self.name(e.name).to_string(),
                    };
                    stack.push(Frame {
                        name: e.name,
                        start: e.tick_ns,
                        child_ns: 0,
                        path,
                    });
                }
                KIND_END => {
                    let Some(pos) = stack.iter().rposition(|f| f.name == e.name) else {
                        continue;
                    };
                    // Frames above the match never saw an end (their
                    // attempt unwound): discard them.
                    stack.truncate(pos + 1);
                    let Some(frame) = stack.pop() else {
                        continue;
                    };
                    let dur_ns = e.tick_ns.saturating_sub(frame.start);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += dur_ns;
                    }
                    out.push(PairedSpan {
                        epoch: e.epoch,
                        cell: e.cell,
                        name: frame.name,
                        path: frame.path,
                        dur_ns,
                        self_ns: dur_ns.saturating_sub(frame.child_ns),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Encodes the snapshot as a Chrome Trace Format JSON document
    /// (openable in Perfetto / `chrome://tracing`): one synthetic
    /// thread per `(epoch, cell)` track, `B`/`E` duration events,
    /// `i` instants, and `M` metadata rows naming each track. The
    /// encoding is fully deterministic: timestamps are fixed-point
    /// µs (`ns/1000` with three decimals), never free-form floats.
    pub fn to_chrome_json(&self) -> String {
        let mut tids: Vec<(u32, u32)> = self.events.iter().map(cell_sort_key).collect();
        tids.sort_unstable();
        tids.dedup();
        let tid_of = |epoch: u32, cell: u32| -> usize {
            tids.binary_search(&(epoch, cell))
                .map(|i| i + 1)
                .unwrap_or(0)
        };
        let mut out = String::with_capacity(64 + self.events.len() * 64);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |s: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&s);
        };
        for &(epoch, cell) in &tids {
            let name = quote(&self.track_display_name(epoch, cell));
            push_event(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":{name}}}}}",
                    tid_of(epoch, cell)
                ),
                &mut out,
            );
        }
        for e in &self.events {
            let tid = tid_of(e.epoch, e.cell);
            let ts = format!("{}.{:03}", e.tick_ns / 1_000, e.tick_ns % 1_000);
            let name = quote(self.name(e.name));
            let ev = match e.kind {
                KIND_BEGIN => {
                    format!("{{\"name\":{name},\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}")
                }
                KIND_END => {
                    format!("{{\"name\":{name},\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}")
                }
                _ => format!(
                    "{{\"name\":{name},\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                     \"s\":\"t\",\"args\":{{\"value_ns\":{}}}}}",
                    e.value_ns
                ),
            };
            push_event(ev, &mut out);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Folds completed spans into `stack;stack count` lines (self-time
    /// µs per unique stack path, summed across all tracks) — the input
    /// format of `inferno-flamegraph` and speedscope.
    pub fn to_folded(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for span in self.paired() {
            *folded.entry(span.path).or_insert(0) += span.self_ns;
        }
        let mut out = String::new();
        for (path, self_ns) in folded {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&(self_ns / 1_000).to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the per-policy decide-phase attribution table: for each
    /// labelled series, every `decide/*` span's count, total time,
    /// p50/p99 and share of the policy's `sim/decide` total. A second
    /// section counts robustness incidents per label — runner events
    /// (panic/retry/watchdog/timeout) and `faults/*` markers — so
    /// fault-heavy sweep cells are attributable from the same export.
    pub fn render_decide_summary(&self) -> String {
        use std::fmt::Write as _;
        #[derive(Default)]
        struct PhaseStats {
            count: u64,
            total_ns: u64,
            hist_us: Histogram,
        }
        let mut phases: BTreeMap<(String, String), PhaseStats> = BTreeMap::new();
        let mut decide_total_ns: BTreeMap<String, u64> = BTreeMap::new();
        for span in self.paired() {
            let Some(label) = self.track_label(span.epoch, span.cell) else {
                continue;
            };
            let name = self.name(span.name);
            if name == "sim/decide" {
                *decide_total_ns.entry(label.to_string()).or_insert(0) += span.dur_ns;
            }
            if let Some(phase) = name.strip_prefix("decide/") {
                let stats = phases
                    .entry((label.to_string(), phase.to_string()))
                    .or_default();
                stats.count += 1;
                stats.total_ns += span.dur_ns;
                stats.hist_us.record(span.dur_ns as f64 / 1_000.0);
            }
        }
        // Robustness incidents: runner executor events and fault-layer
        // markers, counted per labelled cell. These are instants, not
        // spans, so they never appear in `paired()` above.
        let runner_events = [
            crate::names::RUNNER_EV_PANIC,
            crate::names::RUNNER_EV_RETRY,
            crate::names::RUNNER_EV_WATCHDOG,
            crate::names::RUNNER_EV_TIMEOUT,
        ];
        let mut incidents: BTreeMap<(String, String), u64> = BTreeMap::new();
        for e in &self.events {
            if e.kind != KIND_INSTANT {
                continue;
            }
            let name = self.name(e.name);
            if !(runner_events.contains(&name) || name.starts_with("faults/")) {
                continue;
            }
            let Some(label) = self.track_label(e.epoch, e.cell) else {
                continue;
            };
            *incidents
                .entry((label.to_string(), name.to_string()))
                .or_insert(0) += 1;
        }
        let mut out = String::new();
        if phases.is_empty() && incidents.is_empty() {
            let _ = writeln!(
                out,
                "\n# trace: no decide/* spans recorded (no labelled sweep ran under tracing)"
            );
            return out;
        }
        if phases.is_empty() {
            let _ = writeln!(
                out,
                "\n# trace: no decide/* spans recorded (no labelled sweep ran under tracing)"
            );
            return render_incidents(out, &incidents);
        }
        let _ = writeln!(out, "\n# trace: decide-phase attribution");
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>8} {:>12} {:>10} {:>10} {:>12}",
            "policy", "phase", "count", "total_ms", "p50_us", "p99_us", "pct_decide"
        );
        for ((label, phase), stats) in &phases {
            let total = decide_total_ns.get(label).copied().unwrap_or(0);
            let pct = if total > 0 {
                100.0 * stats.total_ns as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>12.1}",
                label,
                phase,
                stats.count,
                stats.total_ns as f64 / 1e6,
                stats.hist_us.p50(),
                stats.hist_us.p99(),
                pct
            );
        }
        for (label, total) in &decide_total_ns {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>8} {:>12.3}",
                label,
                "(sim/decide)",
                "",
                *total as f64 / 1e6
            );
        }
        render_incidents(out, &incidents)
    }
}

/// Appends the runner-event / fault-marker incident table to a decide
/// summary (no-op on an empty incident map).
fn render_incidents(mut out: String, incidents: &BTreeMap<(String, String), u64>) -> String {
    use std::fmt::Write as _;
    if incidents.is_empty() {
        return out;
    }
    let _ = writeln!(out, "\n# trace: robustness incidents per cell label");
    let _ = writeln!(out, "{:<16} {:<24} {:>8}", "label", "event", "count");
    for ((label, name), count) in incidents {
        let _ = writeln!(out, "{:<16} {:<24} {:>8}", label, name, count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexcache_runner::mini_json;

    fn ev(kind: u8, name: u32, epoch: u32, cell: u32, tick_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name,
            epoch,
            cell,
            tick_ns,
            value_ns: 0,
        }
    }

    fn snapshot(names: &[&str], events: Vec<TraceEvent>) -> TraceSnapshot {
        let mut shapes = BTreeMap::new();
        shapes.insert(
            1,
            SweepShape {
                repeats: 2,
                labels: vec!["OL_GD".to_string(), "Greedy_GD".to_string()],
            },
        );
        let mut events = events;
        events.sort_by_key(cell_sort_key);
        TraceSnapshot {
            names: names.iter().map(|s| s.to_string()).collect(),
            events,
            shapes,
            dropped: 0,
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(ev(KIND_INSTANT, i as u32, 0, 0, i));
        }
        assert_eq!(ring.dropped, 2);
        let names: Vec<u32> = ring.ordered().iter().map(|e| e.name).collect();
        assert_eq!(names, vec![2, 3, 4], "oldest events were overwritten");
    }

    #[test]
    fn pairing_attributes_self_time_and_drops_orphans() {
        // Track (1,0): a{ b{} b{} }, with an orphan begin inside.
        let events = vec![
            ev(KIND_BEGIN, 0, 1, 0, 0),   // a
            ev(KIND_BEGIN, 1, 1, 0, 100), // a;b
            ev(KIND_END, 1, 1, 0, 300),   // b: 200
            ev(KIND_BEGIN, 2, 1, 0, 300), // a;c — never ends (orphan)
            ev(KIND_BEGIN, 1, 1, 0, 400), // pairing recovers: b under c
            ev(KIND_END, 1, 1, 0, 500),   // b: 100
            ev(KIND_END, 0, 1, 0, 1_000), // a: 1000, children 200 + 300*
        ];
        let snap = snapshot(&["a", "b", "c"], events);
        let spans = snap.paired();
        // b, b, a complete; c is discarded when a's end unwinds past it.
        assert_eq!(spans.len(), 3);
        let a = spans.iter().find(|s| s.name == 0).expect("a paired");
        assert_eq!(a.dur_ns, 1_000);
        assert_eq!(a.path, "a");
        let folded = snap.to_folded();
        assert!(folded.contains("a;b "), "nested path folded: {folded}");
        // b self-times: 200 ns + 100 ns... but the second b is nested
        // under the orphan c, whose path survives as a;c;b.
        assert!(
            folded.contains("a;c;b "),
            "orphan parent kept in path: {folded}"
        );
    }

    #[test]
    fn chrome_json_is_deterministic_and_parseable() {
        let events = vec![
            ev(KIND_BEGIN, 0, 1, 0, 1_500),
            ev(KIND_END, 0, 1, 0, 2_500),
            ev(KIND_INSTANT, 1, 1, MAIN_TRACK, 3_000),
        ];
        let snap = snapshot(&["decide/lp_build", "mark \"x\""], events);
        let a = snap.to_chrome_json();
        let b = snap.to_chrome_json();
        assert_eq!(a, b, "export is a pure function of the snapshot");
        let doc = mini_json::parse(&a).expect("chrome export parses as JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(mini_json::Value::as_array)
            .expect("traceEvents array");
        // 2 tracks' metadata + 3 events.
        assert_eq!(evs.len(), 5);
        assert!(a.contains("\"ts\":1.500"), "fixed-point µs timestamps: {a}");
        assert!(a.contains("mark \\\"x\\\""), "names are escaped");
        assert!(a.contains("sweep 1 cell 0 — OL_GD repeat 0"), "{a}");
    }

    #[test]
    fn decide_summary_groups_by_series_label() {
        let events = vec![
            // Cell 0 (OL_GD repeat 0): sim/decide wrapping decide/lp_build.
            ev(KIND_BEGIN, 0, 1, 0, 0),   // sim/decide
            ev(KIND_BEGIN, 1, 1, 0, 100), // decide/lp_build
            ev(KIND_END, 1, 1, 0, 600),
            ev(KIND_END, 0, 1, 0, 1_000),
            // Cell 2 (Greedy_GD repeat 0).
            ev(KIND_BEGIN, 0, 1, 2, 0),
            ev(KIND_BEGIN, 2, 1, 2, 0), // decide/greedy
            ev(KIND_END, 2, 1, 2, 200),
            ev(KIND_END, 0, 1, 2, 400),
        ];
        let snap = snapshot(&["sim/decide", "decide/lp_build", "decide/greedy"], events);
        let table = snap.render_decide_summary();
        assert!(table.contains("OL_GD"), "{table}");
        assert!(table.contains("lp_build"), "{table}");
        assert!(table.contains("Greedy_GD"), "{table}");
        assert!(table.contains("greedy"), "{table}");
    }

    #[test]
    fn decide_summary_attributes_incidents_to_cell_labels() {
        let names = [
            "sim/decide",
            crate::names::RUNNER_EV_PANIC,
            crate::names::RUNNER_EV_RETRY,
            "faults/preempt_notice",
            "runner/queue_wait",
        ];
        let events = vec![
            // Cell 0 (OL_GD repeat 0): one decide span, a panic + retry
            // pair and two preemption notices.
            ev(KIND_BEGIN, 0, 1, 0, 0),
            ev(KIND_END, 0, 1, 0, 500),
            ev(KIND_INSTANT, 1, 1, 0, 600),
            ev(KIND_INSTANT, 2, 1, 0, 700),
            ev(KIND_INSTANT, 3, 1, 0, 800),
            ev(KIND_INSTANT, 3, 1, 0, 900),
            // Queue-wait instants are bookkeeping, not incidents.
            ev(KIND_INSTANT, 4, 1, 0, 950),
            // Cell 2 (Greedy_GD repeat 0): a notice but no runner trouble.
            ev(KIND_INSTANT, 3, 1, 2, 100),
            // An unlabelled main-track instant must be ignored.
            ev(KIND_INSTANT, 1, 1, MAIN_TRACK, 1_000),
        ];
        let snap = snapshot(&names, events);
        let table = snap.render_decide_summary();
        assert!(
            table.contains("robustness incidents per cell label"),
            "{table}"
        );
        assert!(table.contains("runner/panic"), "{table}");
        assert!(table.contains("runner/retry"), "{table}");
        assert!(table.contains("faults/preempt_notice"), "{table}");
        assert!(!table.contains("runner/queue_wait"), "{table}");
        // Both labels keep their own notice counts: OL_GD saw 2,
        // Greedy_GD saw 1.
        let notice_lines: Vec<&str> = table
            .lines()
            .filter(|l| l.contains("faults/preempt_notice"))
            .collect();
        assert_eq!(notice_lines.len(), 2, "{table}");
        assert!(
            notice_lines[1].starts_with("OL_GD") && notice_lines[1].trim_end().ends_with('2'),
            "{table}"
        );
        assert!(
            notice_lines[0].starts_with("Greedy_GD") && notice_lines[0].trim_end().ends_with('1'),
            "{table}"
        );
    }

    // The global enable/record/collect path is exercised in ONE test:
    // trace state is process-wide, and parallel unit tests toggling it
    // would interleave. (Cross-thread determinism is pinned end-to-end
    // by `crates/bench/tests/trace_golden.rs` in its own process.)
    #[test]
    fn global_trace_end_to_end() {
        enable(TraceConfig {
            zero_timings: true,
            capacity: 1 << 10,
        });
        assert!(is_on());
        label_next_sweep(vec!["P0".to_string()]);
        let epoch = begin_sweep(1, 2);
        assert_eq!(epoch, 1);
        note_cell(0);
        begin("sim/decide");
        begin("decide/lp_build");
        end("decide/lp_build");
        end("sim/decide");
        instant_ns("runner/queue_wait", 42);
        note_cell(1);
        instant("runner/retry");
        end_sweep();
        instant("post/sweep");
        let snap = collect();
        disable();
        assert!(!is_on());
        assert_eq!(snap.dropped(), 0);
        assert_eq!(snap.event_count(), 7);
        // Zeroed timings: every tick and value is 0.
        assert!(snap
            .events
            .iter()
            .all(|e| e.tick_ns == 0 && e.value_ns == 0));
        // Canonical order: cell 0, then cell 1, then main track.
        let cells: Vec<u32> = snap.events.iter().map(|e| e.cell).collect();
        assert_eq!(cells, vec![0, 0, 0, 0, 0, 1, MAIN_TRACK]);
        let chrome = snap.to_chrome_json();
        assert!(chrome.contains("P0 repeat 0"), "{chrome}");
        let table = snap.render_decide_summary();
        assert!(table.contains("P0"), "{table}");
        let folded = snap.to_folded();
        assert!(folded.contains("sim/decide;decide/lp_build 0"), "{folded}");

        // Re-enabling discards the previous session.
        enable(TraceConfig::default());
        instant("fresh");
        let snap2 = collect();
        disable();
        assert_eq!(snap2.event_count(), 1);
        assert_eq!(snap2.name(snap2.events[0].name), "fresh");
    }
}
