//! The window barrier of the threaded engine.
//!
//! A window of the sharded engine holds tens of microseconds of work
//! (DESIGN.md §12), so a barrier that puts every waiter to sleep on a
//! futex and wakes it again — the standard library's — costs more than
//! the window it ends. [`WindowBarrier`] lets a waiter **spin** on a
//! generation word for a bounded count before it sleeps on a
//! `Mutex`/`Condvar`, and it spins only when every party can have a core
//! of its own: with more parties than cores, the thread a spinner waits
//! for may be the one it keeps off the CPU.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How many times a waiter polls the generation word (one
/// [`std::hint::spin_loop`] each) before it sleeps. Set from measurement,
/// not an option: on the 2-core reference host `gossip_scale_mt` reads
/// the same at 4 000, 20 000 and 200 000 polls, a fifth less at 1 000 and
/// two fifths less at 0 (EXPERIMENTS.md § "One barrier per window").
/// 4 000 polls take ≈ 44 µs there, about the length of a window: a shard
/// later than that is not finishing its window, it has lost its core,
/// and this one is better given back too.
const SPIN_POLLS: u32 = 4_000;

/// A reusable barrier for a fixed number of threads: sense-reversing
/// arrival counter plus generation word, spin-then-sleep.
///
/// Everything a thread wrote before [`wait`](Self::wait) number `g` is
/// visible to every thread after its own `wait` number `g` returns.
pub(crate) struct WindowBarrier {
    parties: usize,
    /// [`SPIN_POLLS`], or 0 when the parties outnumber the cores.
    spin_polls: u32,
    /// Threads that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Completed generations; the last thread to arrive bumps it.
    generation: AtomicUsize,
    /// Threads inside the sleeping path (registered under `lock`).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    /// A barrier for one thread per shard, which spins before sleeping
    /// only if the host has a core for each of them.
    pub(crate) fn for_shards(parties: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_spin_polls(parties, if parties <= cores { SPIN_POLLS } else { 0 })
    }

    fn with_spin_polls(parties: usize, spin_polls: u32) -> Self {
        WindowBarrier {
            parties,
            spin_polls,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all `parties` threads have called `wait` in this
    /// generation.
    pub(crate) fn wait(&self) {
        // Cannot change before this thread has arrived.
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            // Last to arrive. Nobody can arrive again before it sees the
            // new generation, so the counter is reset first.
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(generation.wrapping_add(1), Ordering::SeqCst);
            // No lost wake-up: a sleeper registers in `sleepers` and then
            // reads `generation`, this thread writes `generation` and then
            // reads `sleepers`, all `SeqCst` — one of the two sees the
            // other. The sleeper does both under `lock` and keeps it until
            // it waits, so a notification sent under `lock` finds it
            // waiting.
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _registered = self.lock.lock().expect("nothing panics under the barrier lock");
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..self.spin_polls {
            if self.generation.load(Ordering::SeqCst) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("nothing panics under the barrier lock");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = self.wake.wait(guard).expect("nothing panics under the barrier lock");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    /// `threads` threads cross the barrier `GENERATIONS` times. Before
    /// crossing number `g` each publishes `g` in its own cell; after it,
    /// each must read `g` or `g + 1` in every cell — `g` is the write the
    /// barrier orders before the read, `g + 1` the owner's next one, which
    /// it may already have made, and `g + 2` is out of reach until the
    /// reader arrives again. Every 100th generation one thread arrives a
    /// millisecond late, so the others run out of polls and sleep.
    fn every_generation_is_seen_by_all(threads: usize, spin_polls: u32) {
        const GENERATIONS: u64 = 10_000;
        let barrier = WindowBarrier::with_spin_polls(threads, spin_polls);
        let cells: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let (done, watchdog) = mpsc::channel();
        std::thread::scope(|scope| {
            for me in 0..threads {
                let (barrier, cells, done) = (&barrier, &cells, done.clone());
                scope.spawn(move || {
                    for g in 1..=GENERATIONS {
                        if g % 100 == 0 && (g / 100) as usize % threads == me {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        // `Relaxed`: the barrier alone must order it.
                        cells[me].store(g, Ordering::Relaxed);
                        barrier.wait();
                        for (owner, cell) in cells.iter().enumerate() {
                            let seen = cell.load(Ordering::Relaxed);
                            assert!(
                                seen == g || seen == g + 1,
                                "thread {me} read {seen} from thread {owner} after wait {g}"
                            );
                        }
                    }
                    done.send(()).expect("the watchdog outlives the threads");
                });
            }
            // A lost wake-up must fail the test, not hang it: the scope
            // would wait for the stuck threads for ever, so leave the
            // process instead.
            for _ in 0..threads {
                if watchdog.recv_timeout(Duration::from_secs(120)).is_err() {
                    eprintln!("barrier test: a thread never came back from wait()");
                    std::process::abort();
                }
            }
        });
        assert_eq!(barrier.sleepers.load(Ordering::SeqCst), 0);
        assert_eq!(barrier.arrived.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn two_threads_spinning() {
        every_generation_is_seen_by_all(2, SPIN_POLLS);
    }

    #[test]
    fn two_threads_sleeping() {
        every_generation_is_seen_by_all(2, 0);
    }

    #[test]
    fn eight_threads_spinning() {
        every_generation_is_seen_by_all(8, SPIN_POLLS);
    }

    #[test]
    fn eight_threads_sleeping() {
        every_generation_is_seen_by_all(8, 0);
    }
}
