//! The traced run's instruments, all on the benchmark's side of the
//! stack's public boundary: a [`Traced`] wrapper that times every engine
//! callback of a node, [`Scope`]s the load app opens around its own
//! callbacks and its calls into the stack, log-bucket histograms for all
//! of them, and full span records for one request in [`SAMPLE_EVERY`].
//!
//! Relay-hop callbacks are deliberately *not* joined to a request: relays
//! cannot link them, and neither may the benchmark from outside.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use whisper_net::sim::{Ctx, Protocol};
use whisper_net::{Endpoint, NodeId, Payload};

/// Full span records are kept for requests whose sequence number is a
/// multiple of this.
pub const SAMPLE_EVERY: u64 = 64;

/// Span names; a span's name is its index here.
pub const NAMES: [&str; 9] = [
    "node.on_start",
    "node.on_message",
    "node.on_timer",
    "node.on_crash_restart",
    "app.on_message",
    "app.on_timer",
    "app.on_joined",
    "app.send_call",
    "app.reply_call",
];
pub const NODE_ON_START: usize = 0;
pub const NODE_ON_MESSAGE: usize = 1;
pub const NODE_ON_TIMER: usize = 2;
pub const NODE_ON_CRASH_RESTART: usize = 3;
pub const APP_ON_MESSAGE: usize = 4;
pub const APP_ON_TIMER: usize = 5;
pub const APP_ON_JOINED: usize = 6;
pub const APP_SEND_CALL: usize = 7;
pub const APP_REPLY_CALL: usize = 8;

/// Four buckets per power of two: 19 % resolution up to 2^64 ns.
const BUCKETS: usize = 256;

struct Hist {
    counts: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
}

impl Hist {
    const fn new() -> Self {
        Hist { counts: [const { AtomicU64::new(0) }; BUCKETS], total_ns: AtomicU64::new(0) }
    }
}

// Statistics only: nothing is published through these counters, so
// `Relaxed` is enough (worker threads of the sharded engine share them).
static HISTS: [Hist; NAMES.len()] = [const { Hist::new() }; NAMES.len()];
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Id of the span currently open on this thread (0: none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Request the enclosing node callback served, when it is sampled.
    static KEEP_FOR: Cell<u64> = const { Cell::new(0) };
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: usize,
    pub id: u64,
    /// Span that caused this one (0: an engine event).
    pub parent: u64,
    /// Request nonce (0: not attributable to one request).
    pub request: u64,
    pub node: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn bucket_of(ns: u64) -> usize {
    if ns < 4 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as usize;
    4 * msb + ((ns >> (msb - 2)) & 3) as usize
}

/// Midpoint of bucket `b` in nanoseconds.
fn bucket_mid(b: usize) -> f64 {
    if b < 8 {
        return b as f64;
    }
    let (msb, sub) = (b / 4, (b % 4) as u64);
    let lo = (4 + sub) << (msb - 2);
    lo as f64 + (1u64 << (msb - 2)) as f64 / 2.0
}

fn record(name: usize, ns: u64) {
    HISTS[name].counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    HISTS[name].total_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Clears histograms and span records (between set-up and measurement).
pub fn reset() {
    for h in &HISTS {
        for c in &h.counts {
            c.store(0, Ordering::Relaxed);
        }
        h.total_ns.store(0, Ordering::Relaxed);
    }
    SPANS.lock().expect("no thread panics while holding the span log").clear();
}

/// The `p`-quantile (0..=1) of span durations named `name`, in ns; 0.0
/// when none were recorded.
pub fn quantile_ns(name: usize, p: f64) -> f64 {
    let counts: Vec<u64> = HISTS[name].counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total - 1) as f64 * p).round() as u64;
    let mut seen = 0u64;
    for (b, &c) in counts.iter().enumerate() {
        seen += c;
        if seen > rank {
            return bucket_mid(b);
        }
    }
    bucket_mid(BUCKETS - 1)
}

/// An open span on the load app's side. Closing it records the duration
/// and, for a sampled request, the full record.
pub struct Scope {
    name: usize,
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl Scope {
    /// Opens a span under whatever span is open on this thread.
    pub fn open(name: usize) -> Scope {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.replace(id);
        Scope { name, id, parent, start_ns: now_ns() }
    }

    /// Closes the span. `request` is the nonce it served (0: none);
    /// `seq` decides whether the request is sampled.
    pub fn close(self, node: NodeId, request: u64, seq: u64) {
        let end_ns = now_ns();
        CURRENT.set(self.parent);
        record(self.name, end_ns - self.start_ns);
        if request != 0 && seq.is_multiple_of(SAMPLE_EVERY) {
            KEEP_FOR.set(request);
            SPANS.lock().expect("no thread panics while holding the span log").push(Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                request,
                node: node.0,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Wraps a node so that every engine callback becomes a span. Forwards
/// `as_any`, so `sim.node::<P>()` still finds the wrapped node.
pub struct Traced<P: Protocol>(pub P);

impl<P: Protocol> Traced<P> {
    fn span(&mut self, name: usize, node: NodeId, f: impl FnOnce(&mut P)) {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        CURRENT.set(id);
        KEEP_FOR.set(0);
        let start_ns = now_ns();
        f(&mut self.0);
        let end_ns = now_ns();
        CURRENT.set(0);
        record(name, end_ns - start_ns);
        let request = KEEP_FOR.get();
        if request != 0 {
            SPANS.lock().expect("no thread panics while holding the span log").push(Span {
                name,
                id,
                parent: 0,
                request,
                node: node.0,
                start_ns,
                end_ns,
            });
        }
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.span(NODE_ON_START, ctx.id(), |p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        self.span(NODE_ON_MESSAGE, ctx.id(), |p| p.on_message(ctx, from, from_ep, data));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.span(NODE_ON_TIMER, ctx.id(), |p| p.on_timer(ctx, token));
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.span(NODE_ON_CRASH_RESTART, ctx.id(), |p| p.on_crash_restart(ctx));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.0.as_any_mut()
    }
}

/// Writes the sampled span records as JSON lines and returns how many.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = SPANS.lock().expect("no thread panics while holding the span log");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"node\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            NAMES[s.name], s.id, s.parent, s.request, s.node, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}
