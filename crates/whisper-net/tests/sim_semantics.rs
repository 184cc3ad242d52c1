//! Engine-semantics tests: ordering, loss accounting, node removal
//! mid-flight, and determinism across heterogeneous configurations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use whisper_net::nat::NatType;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread. Every test of this binary
/// runs on it; only the two allocation-budget tests read the counter, and
/// each only its own thread's.
struct CountingAllocator;

fn note_allocation() {
    // `try_with`: a thread tearing its locals down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every request is passed unchanged to `System`, whose contract is
// the one this impl inherits; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Records every delivery with its arrival time.
struct Recorder {
    received: Vec<(SimTime, NodeId, Vec<u8>)>,
}

impl Protocol for Recorder {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _ep: Endpoint, data: &Payload) {
        self.received.push((ctx.now(), from, data.to_vec()));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sends a burst of numbered messages at start.
struct Burst {
    target: NodeId,
    count: u32,
}

impl Protocol for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.count {
            ctx.send_to(Endpoint::public(self.target), i.to_be_bytes().to_vec());
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[test]
fn deliveries_are_time_ordered() {
    let mut sim = Sim::new(SimConfig::planetlab(1));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 200 }), NatType::Public);
    sim.run_for_secs(30);
    let rec: &Recorder = sim.node(sink).unwrap();
    assert!(!rec.received.is_empty());
    // Arrival times are monotone in processing order even though the
    // heavy-tailed latency model reorders messages relative to sending.
    for w in rec.received.windows(2) {
        assert!(w[0].0 <= w[1].0, "event times went backwards");
    }
    // The heavy tail actually reordered something (messages were sent in
    // sequence; payloads arriving out of numeric order prove reordering).
    let payloads: Vec<u32> = rec
        .received
        .iter()
        .map(|(_, _, d)| u32::from_be_bytes(d.as_slice().try_into().unwrap()))
        .collect();
    assert!(
        payloads.windows(2).any(|w| w[0] > w[1]),
        "PlanetLab latencies should reorder a 200-message burst"
    );
}

#[test]
fn loss_rate_matches_profile() {
    let mut sim = Sim::new(SimConfig::planetlab(2)); // 2% loss
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 5000 }), NatType::Public);
    sim.run_for_secs(60);
    let rec: &Recorder = sim.node(sink).unwrap();
    let delivered = rec.received.len();
    let lost = sim.metrics().counter("net.lost");
    assert_eq!(delivered as u64 + lost, 5000);
    let rate = lost as f64 / 5000.0;
    assert!((rate - 0.02).abs() < 0.01, "loss rate {rate}");
}

#[test]
fn cluster_profile_is_lossless() {
    let mut sim = Sim::new(SimConfig::cluster(3));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 2000 }), NatType::Public);
    sim.run_for_secs(60);
    let rec: &Recorder = sim.node(sink).unwrap();
    assert_eq!(rec.received.len(), 2000);
    assert_eq!(sim.metrics().counter("net.lost"), 0);
}

#[test]
fn removing_receiver_mid_flight_drops_cleanly() {
    let mut sim = Sim::new(SimConfig::planetlab(4));
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Burst { target: sink, count: 100 }), NatType::Public);
    // Kill the sink while messages are still in flight.
    sim.run_for(SimDuration::from_millis(10));
    sim.remove_node(sink);
    sim.run_for_secs(30);
    // Nothing panicked; undeliverable messages were counted.
    assert!(sim.metrics().counter("net.drop_dead_target") > 0);
}

/// Removal while deliveries are in flight must keep the accounting
/// identity exact and stay O(1): the removed node's queued messages are
/// attributed to `net.drop_dead_target` when they surface, and the
/// engine's incremental in-flight counter never drifts — including when
/// the removed node lives on a non-zero shard.
#[test]
fn removal_during_in_flight_delivery_keeps_accounting_exact() {
    for shards in [1usize, 4] {
        let mut sim = Sim::new(SimConfig::planetlab(6).with_shards(shards).with_threads(false));
        let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
        sim.add_node(Box::new(Burst { target: sink, count: 300 }), NatType::Public);
        sim.run_for(SimDuration::from_millis(20));
        let in_flight_before = sim.in_flight_msgs();
        assert!(in_flight_before > 0, "burst must still be in flight");
        sim.remove_node(sink);
        assert!(!sim.contains(sink), "removed node is gone");
        assert!(!sim.is_down(sink), "removed is distinct from crashed");
        assert_eq!(
            sim.in_flight_msgs(),
            in_flight_before,
            "removal must not forget queued deliveries ({shards} shards)"
        );
        sim.run_for_secs(60);
        let m = sim.metrics();
        let delivered: u64 = m
            .traffic_snapshot()
            .values()
            .map(|t| t.down_msgs)
            .sum();
        assert_eq!(sim.in_flight_msgs(), 0, "everything drained");
        assert_eq!(
            delivered + m.counter("net.drop_dead_target") + m.counter("net.lost"),
            300,
            "every send delivered, dropped-dead, or lost ({shards} shards)"
        );
        assert!(m.counter("net.drop_dead_target") > 0);
    }
}

#[test]
fn node_ids_are_never_reused() {
    let mut sim = Sim::new(SimConfig::ideal(5));
    let a = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.remove_node(a);
    let b = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    assert_ne!(a, b, "ids are unique across the whole run");
    assert!(b > a);
}

#[test]
fn identical_seeds_replay_identical_arrival_times() {
    fn arrivals(seed: u64) -> Vec<u64> {
        let mut sim = Sim::new(SimConfig::planetlab(seed));
        let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
        sim.add_node(Box::new(Burst { target: sink, count: 50 }), NatType::Public);
        sim.run_for_secs(30);
        let rec: &Recorder = sim.node(sink).unwrap();
        rec.received.iter().map(|(t, _, _)| t.as_micros()).collect()
    }
    assert_eq!(arrivals(42), arrivals(42));
    assert_ne!(arrivals(42), arrivals(43), "different seeds differ");
}

/// Sends one message to `target` every 100 ms, forever.
struct Ticker {
    target: NodeId,
    sent: u64,
}

impl Protocol for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_to(Endpoint::public(self.target), vec![0xAB]);
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Like [`Ticker`] but sends through the pooled wire-encode path, the way
/// real protocols do — this is the hot path the buffer pool serves.
struct WireTicker {
    target: NodeId,
}

impl Protocol for WireTicker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_wire(Endpoint::public(self.target), &0xABAB_CDCD_u64);
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The tentpole claim, asserted deterministically: with pooling on, the
/// engine's honest heap-allocation figure (`net.allocs` for fresh
/// payloads plus `net.pool_misses` for pool refills) collapses to a
/// handful of warm-up allocations, while the delivered traffic is
/// unchanged. Pool-off is the PR 6 baseline: one allocation per send.
#[test]
fn pooling_slashes_allocations_per_event() {
    fn run(pooling: bool) -> (u64, u64, (u64, u64)) {
        let mut sim = Sim::new(SimConfig::cluster(21).with_pooling(pooling));
        let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
        for _ in 0..8 {
            sim.add_node(Box::new(WireTicker { target: sink }), NatType::Public);
        }
        sim.run_for_secs(30);
        let m = sim.metrics();
        let allocs = m.counter("net.allocs") + m.counter("net.pool_misses");
        let bytes = m.counter("net.alloc_bytes") + m.counter("net.pool_miss_bytes");
        (allocs, bytes, traffic_totals(&sim))
    }
    let (allocs_on, bytes_on, traffic_on) = run(true);
    let (allocs_off, bytes_off, traffic_off) = run(false);
    assert_eq!(traffic_on, traffic_off, "pooling must not change delivery");
    let (sent, delivered) = traffic_off;
    assert!(delivered > 4000, "workload too small to mean anything");
    // Every pool-off send allocates; pool-on steady state recycles the
    // delivery's buffer before the next send needs one.
    assert_eq!(allocs_off, sent, "pool-off baseline is one alloc per send");
    assert!(
        allocs_on * 5 <= allocs_off,
        "pooling must cut allocations ≥5×: {allocs_on} vs {allocs_off}"
    );
    assert!(
        bytes_on * 5 <= bytes_off,
        "pooling must cut allocated bytes ≥5×: {bytes_on} vs {bytes_off}"
    );
}

thread_local! {
    /// [`allocations`] when this thread's latest [`BetweenCallbacks`]
    /// callback returned; `None` on a thread that has run none yet.
    static LAST_CALLBACK_END: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Wraps a protocol and adds up what its thread allocated *between* two
/// callbacks — in the engine, that is: popping, dispatching, applying
/// effects, exchanging a window with the other shards.
struct BetweenCallbacks<P> {
    inner: P,
    engine_side: Arc<AtomicU64>,
}

impl<P> BetweenCallbacks<P> {
    fn callback(&mut self, f: impl FnOnce(&mut P)) {
        if let Some(end) = LAST_CALLBACK_END.get() {
            self.engine_side.fetch_add(allocations() - end, Ordering::Relaxed);
        }
        f(&mut self.inner);
        LAST_CALLBACK_END.set(Some(allocations()));
    }
}

impl<P: Protocol + 'static> Protocol for BetweenCallbacks<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.callback(|p| p.on_start(ctx));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, ep: Endpoint, data: &Payload) {
        self.callback(|p| p.on_message(ctx, from, ep, data));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.callback(|p| p.on_timer(ctx, token));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The cross-shard exchange swaps each outbox with the mailbox its
/// destination drained a window earlier, so once both vectors of a shard
/// pair have their capacity it moves events without allocating — pinned
/// here on the threaded driver, whose shard threads run nothing but the
/// engine and these callbacks. The measured run starts new threads; each
/// is counted from its first callback on.
#[test]
fn steady_state_exchange_allocations_are_zero() {
    const SHARDS: u64 = 4;
    let mut sim = Sim::new(
        SimConfig::cluster(33)
            .with_shards(SHARDS as usize)
            .with_threads(true) // also on 1 CPU
            // Sizes every queue bucket for more events than these 13
            // nodes can have due in one, so the queues cannot be what
            // allocates.
            .with_expected_nodes(1 << 16),
    );
    let engine_side = Arc::new(AtomicU64::new(0));
    let sink = sim.add_node(
        Box::new(BetweenCallbacks {
            inner: Recorder { received: Vec::new() },
            engine_side: Arc::clone(&engine_side),
        }),
        NatType::Public,
    );
    for _ in 0..12 {
        sim.add_node(
            Box::new(BetweenCallbacks {
                inner: Ticker { target: sink, sent: 0 },
                engine_side: Arc::clone(&engine_side),
            }),
            NatType::Public,
        );
    }
    sim.run_for_secs(10);
    let (_, delivered_warm) = traffic_totals(&sim);
    engine_side.store(0, Ordering::Relaxed);
    sim.run_for_secs(60);
    let (_, delivered) = traffic_totals(&sim);
    // Three of four tickers live on another shard than the sink.
    assert!(delivered - delivered_warm >= 7000, "measurement epoch must carry traffic");
    // Nothing: the shard's metric sink, too, is handed over at the end of
    // a run with its counter slots and series capacity left in place.
    assert_eq!(
        engine_side.load(Ordering::Relaxed),
        0,
        "steady-state cross-shard exchange must swap batches, not allocate"
    );
}

/// Ticks every 10 ms, sends the sink a pooled message and records a
/// sample in every callback, as a full-stack node does on every packet.
struct SamplingTicker {
    target: NodeId,
}

impl Protocol for SamplingTicker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.metrics().sample("test.callback", 0.0);
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _: NodeId, _: Endpoint, data: &Payload) {
        ctx.metrics().count("test.delivered", 1);
        ctx.metrics().sample("test.callback", data.len() as f64);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.metrics().sample("test.callback", 1.0);
        ctx.send_wire(Endpoint::public(self.target), &0xABAB_CDCD_u64);
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Runs 8 sampling tickers on `shards` shards (sequentially) through six
/// warm-up windows and five measured ones, the harness resetting the
/// master sink after each as the benchmark does; returns what the
/// measured windows allocated in all and between callbacks.
fn warm_sampling_allocations(shards: usize) -> (u64, u64) {
    let mut sim = Sim::new(
        SimConfig::cluster(34)
            .with_shards(shards)
            .with_threads(false)
            .with_expected_nodes(1 << 16),
    );
    let engine_side = Arc::new(AtomicU64::new(0));
    let add = |sim: &mut Sim, target| {
        sim.add_node(
            Box::new(BetweenCallbacks {
                inner: SamplingTicker { target },
                engine_side: Arc::clone(&engine_side),
            }),
            NatType::Public,
        )
    };
    let first = add(&mut sim, NodeId(0));
    for _ in 0..7 {
        add(&mut sim, first);
    }
    // One window: what it delivered and how many samples it recorded.
    let window = |sim: &mut Sim| {
        sim.run_for_secs(2);
        let m = sim.metrics_mut();
        let recorded = (m.counter("test.delivered"), m.samples("test.callback").len() as u64);
        m.reset_counters_and_samples();
        recorded
    };
    // Warm: every copy of the series has grown (the shard sinks and the
    // master's hand them back and forth) and the payload pools hold the
    // most buffers ever in flight.
    for _ in 0..6 {
        window(&mut sim);
    }
    engine_side.store(0, Ordering::Relaxed);
    let before = allocations();
    for _ in 0..5 {
        // 8 nodes × 200 ticks; the deliveries of a few straddle the
        // window's ends.
        let (delivered, samples) = window(&mut sim);
        assert!((1590..=1610).contains(&delivered), "{shards} shard(s): {delivered} deliveries");
        assert_eq!(samples, 1600 + delivered, "a sample per callback");
    }
    (allocations() - before, engine_side.load(Ordering::Relaxed))
}

/// The metric sinks are written once and keep their memory: a run whose
/// every callback records a sample allocates nothing between callbacks
/// once warm, where the end of every `run_for` folds each shard's sink
/// into the master's — on one shard by exchanging the series for the
/// master's empty one, on two by exchanging one and appending the other.
/// On one shard nothing allocates inside the callbacks either (the series
/// has its capacity); on two, a payload sent across shards is recycled
/// into the receiver's pool, so the sender's allocates a fresh one.
#[test]
fn steady_state_sampling_allocations_are_zero_once_warm() {
    for shards in [1, 2] {
        let (total, between) = warm_sampling_allocations(shards);
        if shards == 1 {
            assert_eq!(total, 0, "allocations in five warm windows, callbacks included");
        }
        assert_eq!(between, 0, "of which between callbacks, on {shards} shard(s)");
    }
}

/// Ticks every 100 ms; the armed one panics on its tenth tick.
struct Bomb {
    armed: bool,
    ticks: u32,
}

impl Protocol for Bomb {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.ticks += 1;
        if self.armed && self.ticks == 10 {
            panic!("the callback's own panic");
        }
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Four nodes over `shards` shards, one of which panics a second into
/// the run.
fn run_with_a_panicking_callback(shards: usize, threads: bool) {
    let mut sim = Sim::new(SimConfig::cluster(1).with_shards(shards).with_threads(threads));
    for id in 0..4 {
        sim.add_node(Box::new(Bomb { armed: id == 1, ticks: 0 }), NatType::Public);
    }
    sim.run_for_secs(5);
}

/// A callback that panics on a shard's thread must end the run with that
/// panic in the caller — not leave the other shard's thread (and with it
/// the caller) waiting at a window barrier that nobody will complete.
#[test]
#[should_panic(expected = "the callback's own panic")]
fn a_panicking_callback_ends_a_threaded_run_with_its_panic() {
    run_with_a_panicking_callback(2, true);
}

/// The same with a thread per node: three threads wait for the one that
/// panicked, and with more threads than cores they wait asleep.
#[test]
#[should_panic(expected = "the callback's own panic")]
fn a_panicking_callback_ends_a_four_thread_run_with_its_panic() {
    run_with_a_panicking_callback(4, true);
}

/// Control: on the sequential driver the panic simply unwinds.
#[test]
#[should_panic(expected = "the callback's own panic")]
fn a_panicking_callback_ends_a_sequential_run_with_its_panic() {
    run_with_a_panicking_callback(2, false);
}

/// Ticks every 100 ms and notes the time of every timer it is given.
struct Clock {
    fired: Vec<SimTime>,
}

impl Clock {
    const TICK: u64 = 0;
    const ONCE: u64 = 1;
}

impl Protocol for Clock {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(100), Self::TICK);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Endpoint, _: &Payload) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.fired.push(ctx.now());
        if token == Self::TICK {
            ctx.set_timer(SimDuration::from_millis(100), Self::TICK);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `run_until` with a deadline the clock has already passed — which a
/// driver of absolute instants asks for whenever its first instants
/// precede a warmed-up `now()` — must leave the clock alone. Setting it
/// back let a harness callback read an earlier `now()` than the node's
/// last callback had, and a timer armed there fire "before" it.
#[test]
fn run_until_a_past_deadline_does_not_rewind_the_clock() {
    for (shards, threads) in [(1, false), (2, true)] {
        let mut sim = Sim::new(SimConfig::cluster(5).with_shards(shards).with_threads(threads));
        let node = sim.add_node(Box::new(Clock { fired: Vec::new() }), NatType::Public);
        sim.run_for_secs(5);
        let five_s = sim.now();
        sim.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(sim.now(), five_s, "{shards} shard(s)");
        let mut seen = None;
        sim.with_node_ctx::<Clock>(node, |_, ctx| {
            seen = Some(ctx.now());
            ctx.set_timer(SimDuration::from_millis(100), Clock::ONCE);
        });
        assert_eq!(seen, Some(five_s), "{shards} shard(s)");
        sim.run_for_secs(1);
        let fired = &sim.node::<Clock>(node).unwrap().fired;
        assert_eq!(fired.len(), 50 + 1 + 10, "{shards} shard(s)");
        assert!(
            fired.windows(2).all(|w| w[0] <= w[1]),
            "a callback saw time run backwards ({shards} shard(s)): {fired:?}"
        );
    }
}

/// Returns every packet to its sender with the count in it raised by one,
/// up to [`Bouncer::BOUNCES`]; notes when each arrived.
struct Bouncer {
    /// Whom to send the first packet, for the node that starts.
    serve_to: Option<NodeId>,
    arrivals: Vec<(SimTime, u32)>,
}

impl Bouncer {
    const BOUNCES: u32 = 1000;
}

impl Protocol for Bouncer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.serve_to {
            ctx.send_to(Endpoint::public(peer), 0u32.to_be_bytes().to_vec());
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, from_ep: Endpoint, data: &Payload) {
        let count = u32::from_be_bytes(data.as_slice().try_into().unwrap());
        self.arrivals.push((ctx.now(), count));
        if count < Self::BOUNCES {
            ctx.send_to(from_ep, (count + 1).to_be_bytes().to_vec());
        }
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Two nodes on different shards and no timers: once the receiver has
/// answered, both queues are empty and the only pending event of the whole
/// simulation sits in a mailbox. The threaded driver takes the next
/// window's start from what each shard publishes before the barrier, so
/// here it must come from what a shard *posted*, not from a queue head —
/// or the run ends with the packet undelivered. Runs are 3 ms, about one
/// flight time, so that each ends between a post and its delivery.
#[test]
fn an_event_pending_only_in_a_mailbox_is_still_due() {
    type Stop = (SimTime, u64, usize, usize);
    fn run(shards: usize, threads: bool) -> (Vec<Stop>, Vec<(SimTime, u32)>) {
        let mut sim = Sim::new(SimConfig::cluster(9).with_shards(shards).with_threads(threads));
        let bouncer = |serve_to| Box::new(Bouncer { serve_to, arrivals: Vec::new() });
        let a = sim.add_node(bouncer(None), NatType::Public);
        let b = sim.add_node(bouncer(Some(a)), NatType::Public);
        let arrived = |sim: &Sim, id| sim.node::<Bouncer>(id).unwrap().arrivals.len();
        let mut stops = Vec::new();
        while arrived(&sim, a) + arrived(&sim, b) <= Bouncer::BOUNCES as usize {
            assert!(stops.len() < 10_000, "the packet got stuck ({shards} shards)");
            sim.run_for(SimDuration::from_millis(3));
            stops.push((sim.now(), sim.in_flight_msgs(), arrived(&sim, a), arrived(&sim, b)));
        }
        let mut arrivals = sim.node::<Bouncer>(a).unwrap().arrivals.clone();
        arrivals.extend_from_slice(&sim.node::<Bouncer>(b).unwrap().arrivals);
        (stops, arrivals)
    }
    let one_shard = run(1, false);
    let (stops, arrivals) = &one_shard;
    assert_eq!(arrivals.len(), Bouncer::BOUNCES as usize + 1);
    let (last, earlier) = stops.split_last().unwrap();
    assert!(earlier.len() >= 700 && earlier.iter().all(|stop| stop.1 == 1) && last.1 == 0);
    assert_eq!(one_shard, run(2, false), "2 shards, sequential");
    assert_eq!(one_shard, run(2, true), "2 shards, threaded");
}

/// A WHISPER stack up to the WCL — Nylon underneath, no PPSS on top —
/// that counts the heap allocations of every callback in which it relayed
/// or was delivered a steady-state circuit packet.
struct CircuitHop {
    wcl: whisper_core::Wcl,
    /// Source role: where to send, every [`CircuitHop::SEND_EVERY`].
    dest: Option<whisper_core::PrivateEntry>,
    /// Destination role: whom every delivered packet is echoed to, back
    /// on the circuit it came in on.
    echo_to: Option<whisper_core::PrivateEntry>,
    /// Allocations of each callback that forwarded a circuit packet.
    relayed: Vec<u64>,
    /// Allocations of each callback that was delivered one.
    delivered: Vec<u64>,
}

impl CircuitHop {
    const TIMER_SEND: u64 = 0xF0;
    const SEND_EVERY: SimDuration = SimDuration::from_millis(20);
    const PAYLOAD: [u8; 1024] = [0x5A; 1024];
}

impl Protocol for CircuitHop {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.wcl.nylon_mut().on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        let forwarded = ctx.metrics().counter("wcl.circuit_forwarded");
        let delivered = ctx.metrics().counter("wcl.circuit_delivered");
        let before = allocations();
        // What `WhisperNode::on_message` does, minus the PPSS.
        match self.wcl.nylon_mut().on_app_message(ctx, from, from_ep, data) {
            Some(app) => {
                let prev = (from, from_ep.port == 0);
                if let Some(whisper_core::WclEvent::Delivered { payload, via }) =
                    self.wcl.on_app_payload(ctx, prev, app)
                {
                    assert_eq!(payload, Self::PAYLOAD);
                    if let Some(source) = &self.echo_to {
                        self.wcl.bind_return(ctx.now(), via, source.node);
                        self.wcl.send_untracked(ctx, source, &payload, None);
                    }
                    self.wcl.reclaim(payload);
                }
            }
            None => drop(self.wcl.nylon_mut().on_message(ctx, from, from_ep, data)),
        }
        let allocated = allocations() - before;
        // Room for every sample was reserved up front: recording one
        // must not itself allocate.
        if ctx.metrics().counter("wcl.circuit_forwarded") > forwarded {
            assert!(self.relayed.len() < self.relayed.capacity());
            self.relayed.push(allocated);
        } else if ctx.metrics().counter("wcl.circuit_delivered") > delivered {
            assert!(self.delivered.len() < self.delivered.capacity());
            self.delivered.push(allocated);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != Self::TIMER_SEND {
            self.wcl.nylon_mut().on_timer(ctx, token);
            return;
        }
        let dest = self.dest.as_ref().expect("only the source arms the send timer");
        self.wcl.send_untracked(ctx, dest, &Self::PAYLOAD, None);
        ctx.set_timer(Self::SEND_EVERY, Self::TIMER_SEND);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The circuit data path's allocation budget, on a counting allocator: a
/// node that relays a steady-state circuit packet, either way, and the
/// node a packet is delivered to — the destination, which answers it on
/// the circuit's return direction in the same callback, and the source
/// the answer comes home to — handle it — Nylon decode, circuit lookup,
/// body copy, AES layer, Nylon re-framing, hand-over to the engine —
/// without one heap allocation. Before the path was rebuilt each relayed packet cost
/// six (measured with this test): a `Vec<NylonEvent>`, three copies of
/// the body (`NylonMsg::App`, `CircuitPacket`, its re-encoding), the
/// engine's effect list and the payload's `Arc` box.
///
/// "Zero" used to have one exception: the callbacks record their
/// deterministic cost samples (`crypto.*_us.*`) in
/// series that grew by doubling from nothing in every run window. The
/// shard's sink now keeps the capacity a window gave it, so once a window
/// of this size has run, every callback reads exactly 0.
#[test]
fn steady_state_circuit_forward_allocations_are_zero() {
    use whisper_core::{PrivateEntry, Wcl, WclConfig};
    use whisper_crypto::rsa::KeyPair;
    use whisper_pss::{NylonConfig, NylonCore};
    use whisper_rand::SeedableRng;

    const WINDOW_SECS: u64 = 40;
    let packets = WINDOW_SECS as usize * 1000 / 20;

    let cfg = NylonConfig::default();
    let mut keyrng = whisper_rand::rngs::StdRng::seed_from_u64(0xA110C);
    let mut sim = Sim::new(SimConfig::cluster(71));
    let mut ids = Vec::new();
    let (mut source_key, mut dest_key) = (None, None);
    for i in 0..10u64 {
        let keypair = KeyPair::generate(cfg.rsa, &mut keyrng);
        match i {
            8 => source_key = Some(keypair.public().clone()),
            9 => dest_key = Some(keypair.public().clone()),
            _ => {}
        }
        let mut nylon = NylonCore::new(cfg.clone(), keypair);
        nylon.set_bootstrap([NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect());
        let hop = CircuitHop {
            wcl: Wcl::new(WclConfig::default(), nylon),
            dest: None,
            echo_to: None,
            relayed: Vec::with_capacity(3 * packets),
            delivered: Vec::with_capacity(2 * packets),
        };
        ids.push(sim.add_node(Box::new(hop), NatType::Public));
    }
    // Let the PSS fill the connection backlogs the WCL draws its mixes from.
    sim.run_for_secs(250);
    let (source, dest) = (ids[8], ids[9]);
    let entry = |node, key: Option<_>| PrivateEntry {
        node,
        age: 0,
        public: true,
        key: key.unwrap(),
        gateways: Vec::new(),
    };
    let (source_entry, dest_entry) = (entry(source, source_key), entry(dest, dest_key));
    sim.node_mut::<CircuitHop>(dest).unwrap().echo_to = Some(source_entry);
    sim.with_node_ctx::<CircuitHop>(source, |hop, ctx| {
        hop.dest = Some(dest_entry);
        ctx.set_timer(SimDuration::ZERO, CircuitHop::TIMER_SEND);
    });
    // Warm, two windows like the measured one: the first packet is an RSA
    // onion that installs the circuit; pools, effect lists and the
    // delivery buffer reach their sizes. The master sink has none of the
    // circuit path's series yet and takes the first window's whole, in
    // exchange for nothing; the second window grows the shard's to the
    // size it then keeps.
    for _ in 0..2 {
        sim.run_for_secs(WINDOW_SECS);
        for &id in &ids {
            let hop = sim.node_mut::<CircuitHop>(id).unwrap();
            hop.relayed.clear();
            hop.delivered.clear();
        }
    }
    sim.run_for_secs(WINDOW_SECS);

    let relayed: Vec<u64> =
        ids.iter().flat_map(|&id| sim.node::<CircuitHop>(id).unwrap().relayed.clone()).collect();
    let delivered: Vec<u64> =
        ids.iter().flat_map(|&id| sim.node::<CircuitHop>(id).unwrap().delivered.clone()).collect();
    assert!(delivered.len() + 10 >= 2 * packets, "only {} packets delivered", delivered.len());
    assert!(relayed.len() >= 2 * delivered.len() - 10, "two mixes relay each packet");
    let m = sim.metrics();
    assert_eq!(m.counter("wcl.return_sent"), m.counter("wcl.delivered") - m.counter("wcl.return_delivered"));
    assert!(m.counter("wcl.paths_built") <= 3, "one onion per half TTL, none for the echoes");
    for (what, counts) in [("relayed", &relayed), ("delivered", &delivered)] {
        let allocating = counts.iter().filter(|&&n| n > 0).count();
        let worst = counts.iter().max().copied().unwrap_or(0);
        assert_eq!(
            allocating,
            0,
            "{allocating} of {} {what} circuit packets allocated, up to {worst} times",
            counts.len()
        );
    }
}

/// A PSS node that counts the heap allocations of the three callbacks of
/// a gossip exchange: the initiator's cycle timer, the responder's
/// handling of the request, the initiator's handling of the response.
struct GossipCounter {
    nylon: whisper_pss::NylonCore,
    /// Allocations made inside those callbacks.
    allocated: u64,
    /// Responses handled: exchanges this node initiated and completed.
    completed: u64,
}

impl Protocol for GossipCounter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.nylon.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        // The Nylon tags of a gossip request and of its response.
        let (request, response) = (data[0] == 1, data[0] == 2);
        let before = allocations();
        drop(self.nylon.on_message(ctx, from, from_ep, data));
        if request || response {
            self.allocated += allocations() - before;
            self.completed += response as u64;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let cycles = self.nylon.cycles_run();
        let before = allocations();
        self.nylon.on_timer(ctx, token);
        if self.nylon.cycles_run() != cycles {
            self.allocated += allocations() - before;
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The gossip data path's allocation budget, on the counting allocator:
/// one direct request/response exchange between warmed nodes — building
/// and sending the request, merging it and answering, merging the answer
/// — costs at most [`GOSSIP_EXCHANGE_ALLOCATIONS`] heap allocations on
/// average. Before the path was rebuilt this test measured 55.6: owned
/// entries with a `Vec` per rendezvous chain in buffers, messages and
/// merges, a key parsed and re-serialised per message, the key store's
/// copy of it. It measured 1.04 while `NylonCore::on_message` returned its
/// upcalls in a `Vec` (one allocation for the initiator's
/// `GossipCompleted`), and now measures 0.04: now and then a key parsed
/// when a peer enters a backlog that had evicted it, or a map that grows.
/// The bound is one allocation, so a `Vec` per exchange coming back fails
/// it.
#[test]
fn steady_state_gossip_exchange_allocations_are_bounded() {
    use whisper_crypto::rsa::KeyPair;
    use whisper_pss::{NylonConfig, NylonCore};
    use whisper_rand::SeedableRng;

    const GOSSIP_EXCHANGE_ALLOCATIONS: f64 = 1.0;

    let cfg = NylonConfig::default();
    let mut keyrng = whisper_rand::rngs::StdRng::seed_from_u64(0x6055);
    let mut sim = Sim::new(SimConfig::cluster(72));
    let mut ids = Vec::new();
    // More peers than a view holds, so buffers are full and merges cut;
    // all public, so every exchange is direct.
    for i in 0..16u64 {
        let mut nylon = NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, &mut keyrng));
        nylon.set_bootstrap([NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect());
        let node = GossipCounter { nylon, allocated: 0, completed: 0 };
        ids.push(sim.add_node(Box::new(node), NatType::Public));
    }
    // Warm: views, backlogs, pools, effect lists and metric maps fill.
    sim.run_for_secs(300);
    for &id in &ids {
        let node = sim.node_mut::<GossipCounter>(id).unwrap();
        (node.allocated, node.completed) = (0, 0);
    }
    sim.run_for_secs(300);
    let (allocated, completed) = ids.iter().fold((0, 0), |(a, c), &id| {
        let node = sim.node::<GossipCounter>(id).unwrap();
        (a + node.allocated, c + node.completed)
    });
    assert!(completed >= 16 * 28, "only {completed} exchanges completed");
    let per_exchange = allocated as f64 / completed as f64;
    assert!(
        per_exchange <= GOSSIP_EXCHANGE_ALLOCATIONS,
        "{per_exchange:.1} allocations per gossip exchange ({allocated} over {completed})"
    );
}

/// Sum of all per-node up / down message counts.
fn traffic_totals(sim: &Sim) -> (u64, u64) {
    let t = sim.metrics().traffic_snapshot();
    (
        t.values().map(|t| t.up_msgs).sum(),
        t.values().map(|t| t.down_msgs).sum(),
    )
}

/// Every send must end up delivered, attributed to a *named* drop
/// counter, or still in flight — even with every fault class active at
/// once, at every instant between runs, on one shard or several. This is
/// the accounting identity the chaos suite relies on.
#[test]
fn every_sim_drop_has_a_named_counter() {
    use whisper_net::fault::FaultPlan;
    for shards in [1usize, 4] {
        let mut sim = Sim::new(SimConfig::planetlab(11).with_shards(shards)); // 2% base loss
        let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
        let a = sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
        let b = sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
        let at = |s: u64| SimTime::from_micros(s * 1_000_000);
        sim.install_fault_plan(
            FaultPlan::new()
                .partition([a], at(5), at(10))
                .burst_loss(at(12), at(18))
                .latency_spike(at(20), at(25))
                .crash_restart(sink, at(27), at(33))
                .nat_rebind(b, at(35)),
        );
        for second in 1..=60 {
            sim.run_for_secs(1);
            assert_eq!(sim.unattributed_msgs(), 0, "a message vanished without attribution by {second} s ({shards} shards)");
        }
        // Each fault class left its mark under its own counter.
        for name in [
            "net.lost",
            "net.lost_burst",
            "net.drop_partition",
            "net.drop_crashed",
            "net.delay_spiked",
            "net.fault_crash",
            "net.fault_restart",
            "net.fault_nat_rebind",
        ] {
            assert!(sim.metrics().counter(name) > 0, "expected {name} > 0 ({shards} shards)");
        }
    }
}

/// Partition drops and crash drops are distinct causes: a send across the
/// cut is `net.drop_partition`, a send to a down-but-coming-back node is
/// `net.drop_crashed`, and a send to a removed node is
/// `net.drop_dead_target`.
#[test]
fn drop_causes_are_not_conflated() {
    use whisper_net::fault::FaultPlan;
    let mut sim = Sim::new(SimConfig::cluster(12)); // lossless base
    let sink = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    let gone = sim.add_node(Box::new(Recorder { received: Vec::new() }), NatType::Public);
    sim.add_node(Box::new(Ticker { target: sink, sent: 0 }), NatType::Public);
    sim.add_node(Box::new(Ticker { target: gone, sent: 0 }), NatType::Public);
    let at = |s: u64| SimTime::from_micros(s * 1_000_000);
    sim.install_fault_plan(
        FaultPlan::new()
            .partition([sink], at(5), at(10))
            .crash_restart(sink, at(15), at(20)),
    );
    sim.run_for_secs(12);
    sim.remove_node(gone);
    sim.run_for_secs(18);
    let m = sim.metrics();
    assert!(m.counter("net.drop_partition") > 0);
    assert!(m.counter("net.drop_crashed") > 0);
    assert!(m.counter("net.drop_dead_target") > 0);
    assert_eq!(m.counter("net.lost"), 0, "cluster profile is lossless");
    assert_eq!(m.counter("net.lost_burst"), 0, "no burst window installed");
    // The sink survived its crash: deliveries resumed after restart.
    let rec: &Recorder = sim.node(sink).unwrap();
    assert!(
        rec.received.iter().any(|(t, _, _)| *t >= at(20)),
        "deliveries should resume after the restart"
    );
    assert!(
        !rec.received.iter().any(|(t, _, _)| *t >= at(15) && *t < at(20)),
        "no delivery may reach a crashed node"
    );
}
