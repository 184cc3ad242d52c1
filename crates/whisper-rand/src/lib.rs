#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # whisper-rand — in-tree deterministic randomness
//!
//! Every random draw in the WHISPER reproduction flows through this crate.
//! It exists for two reasons:
//!
//! 1. **Hermetic builds.** The workspace must build and test offline
//!    (`cargo build --release --offline`) with an empty registry, so we
//!    cannot depend on `rand` / `proptest` / `criterion` from crates.io.
//! 2. **Determinism as a correctness requirement.** The paper's evaluation
//!    (§V) is reproduced by *replaying* seeded simulator runs; a gossip or
//!    onion-route trace must be byte-identical across runs, machines and
//!    thread schedules. That rules out OS entropy anywhere in the stack —
//!    all randomness derives from an explicit `u64` seed.
//!
//! ## What's inside
//!
//! * [`StdRng`] — the workspace generator: **xoshiro256++** state update
//!   seeded through **SplitMix64** ([`SplitMix64`] is also exported for
//!   cheap one-off mixing). The name `StdRng` is kept so call sites read
//!   exactly as they did when the workspace used the `rand` crate.
//! * [`Rng`] / [`RngCore`] / [`SeedableRng`] — trait surface mirroring the
//!   subset of `rand 0.8` the codebase uses: `seed_from_u64`, `gen`,
//!   `gen_range`, `gen_bool`, `fill_bytes`.
//! * [`seq::SliceRandom`] — `shuffle` / `choose` on slices.
//! * Stream splitting — [`StdRng::for_stream`] derives an independent
//!   per-node / per-purpose generator from `(seed, stream)`, and
//!   [`StdRng::split`] forks a child generator; both are the backbone of
//!   reproducible multi-node simulations (node *i* gets stream *i*).
//! * [`check`] — a seeded property-test helper (replaces `proptest`):
//!   random case generation with shrink-on-failure reporting.
//! * [`bench`](mod@bench) — the flat-row recorder behind the
//!   `WHISPER_BENCH_JSON` files of the `whisper-bench` experiments.
//!
//! ## Example
//!
//! ```
//! use whisper_rand::{Rng, SeedableRng, StdRng};
//! use whisper_rand::seq::SliceRandom;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let roll = rng.gen_range(1..=6u32);
//! assert!((1..=6).contains(&roll));
//!
//! // Same seed ⇒ same sequence, always.
//! let a: u64 = StdRng::seed_from_u64(7).gen();
//! let b: u64 = StdRng::seed_from_u64(7).gen();
//! assert_eq!(a, b);
//!
//! // Independent per-node streams from one experiment seed.
//! let mut node3 = StdRng::for_stream(42, 3);
//! let mut deck = [1, 2, 3, 4, 5];
//! deck.shuffle(&mut node3);
//! ```

pub mod bench;
pub mod check;
mod splitmix;
mod uniform;
mod xoshiro;

pub use splitmix::SplitMix64;
pub use uniform::{SampleRange, SampleUniform, Standard};
pub use xoshiro::StdRng;

/// Namespace alias so `use whisper_rand::rngs::StdRng;` reads like the
/// `rand::rngs::StdRng` it replaced.
pub mod rngs {
    pub use crate::xoshiro::StdRng;
}

/// Slice extension traits (`shuffle`, `choose`).
pub mod seq;

/// The raw generator interface: a source of uniformly distributed `u64`s.
///
/// Implementors only provide [`next_u64`](RngCore::next_u64); everything
/// else — including the whole [`Rng`] extension surface — is derived from
/// it, which keeps alternative generators (e.g. the replay tape inside
/// [`check`]) trivial to write.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    ///
    /// Uses the *upper* half of [`next_u64`](RngCore::next_u64): for
    /// xoshiro-family generators the high bits have the best equidistribution.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with uniformly distributed bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            let n = rem.len();
            rem.copy_from_slice(&last[..n]);
        }
    }
}

/// Forwarding impl so a `&mut R` can itself be passed where an
/// `impl RngCore` / [`Rng`] is expected.
impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing extension methods over [`RngCore`], mirroring the `rand 0.8`
/// methods the workspace uses.
///
/// Blanket-implemented for every [`RngCore`]; never implement it manually.
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its [`Standard`] distribution
    /// (uniform over all values for integers, uniform in `[0, 1)` for
    /// floats, fair coin for `bool`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (`lo..hi` half-open, or `lo..=hi`
    /// inclusive). Unbiased for integer types.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        Self: Sized,
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of [0, 1]");
        // `unit_f64` is uniform in [0, 1), so `< p` has probability exactly
        // p for representable p, including the endpoints.
        uniform::unit_f64(self) < p
    }

    /// Fills `dest` with random bytes (alias of [`RngCore::fill_bytes`],
    /// re-exposed here so one `use whisper_rand::Rng;` covers it).
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator constructible from an explicit seed.
///
/// There is deliberately **no** `from_entropy` / `thread_rng` equivalent:
/// WHISPER's reproducibility contract forbids OS entropy (see
/// `DESIGN.md` § "Determinism & randomness"). Every generator in the
/// workspace is rooted in a `u64` the caller chose.
pub trait SeedableRng: Sized {
    /// The raw seed type (full generator state).
    type Seed;

    /// Builds a generator from full state.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds a generator from a single `u64`, expanded to full state via
    /// SplitMix64 — two seeds that differ in one bit yield unrelated
    /// streams.
    fn seed_from_u64(state: u64) -> Self;
}
