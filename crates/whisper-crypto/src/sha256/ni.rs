//! The SHA-NI compression kernel: the hardware counterpart of the portable
//! compression function in the parent module, computing the same state
//! from the same block.
//!
//! With `aes/ni.rs` this is one of the two modules in the workspace's
//! libraries that contain `unsafe` code: every other crate forbids it, and
//! this crate denies it everywhere but in those two (the `#[allow]` sits
//! on the `mod ni` declarations). The module boundary is the safety
//! boundary: [`compress`] is a safe function that checks the CPU features
//! itself before it enters the `#[target_feature]` code, so no caller can
//! reach a `sha256rnds2` on a CPU without one, and the only pointers the
//! kernel forms are derived from slices whose length the surrounding safe
//! code has just established.

use super::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Whether this CPU executes everything the kernel uses: the SHA
/// extensions, `pshufb`/`palignr` (SSSE3) and `pblendw` (SSE4.1) —
/// detected once per process; `std` caches the CPUID probe behind the
/// macro.
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Folds `block` into `state` (FIPS 180-4 §6.2.2).
///
/// Returns `false`, leaving `state` untouched, on a CPU without the SHA
/// extensions.
pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` has just reported `sha`, `ssse3` and `sse4.1`,
    // the only CPU features `compress_sha` enables beyond the x86_64
    // baseline (SSE2).
    unsafe { compress_sha(state, block) };
    true
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_sha(state: &mut [u32; 8], block: &[u8; 64]) {
    // `sha256rnds2` wants the working variables as the two vectors
    // (lane 3 … lane 0) = (a, b, e, f) and (c, d, g, h).
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // Four rounds on the schedule words `w` = W[4g .. 4g + 4] of round
    // group `g`: two from the low half of W + K, two from the high half;
    // the vector not written holds the state of two rounds before.
    let mut rounds = |w: __m128i, group: usize| {
        let k = &K[4 * group..4 * group + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    };
    // The schedule words of a group from the four groups before it, oldest
    // first. W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]: `msg1`
    // adds σ0 to the group sixteen words back, `alignr` picks W[t-7] out
    // of the last two groups, `msg2` adds σ1 (two of its inputs are words
    // of the group it is producing).
    let schedule = |w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i| {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
        _mm_sha256msg2_epu32(partial, w4)
    };

    // The first four groups are the block itself, its words read
    // big-endian. The schedule then lives in four named vectors, each
    // overwritten by the group sixteen words after it — names, not an
    // indexed array, so that it stays in registers.
    let big_endian_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let word_group =
        |g: usize| _mm_shuffle_epi8(load(&block[16 * g..16 * g + 16]), big_endian_words);
    let (mut w0, mut w1, mut w2, mut w3) =
        (word_group(0), word_group(1), word_group(2), word_group(3));
    rounds(w0, 0);
    rounds(w1, 1);
    rounds(w2, 2);
    rounds(w3, 3);
    for group in [4, 8, 12] {
        w0 = schedule(w0, w1, w2, w3);
        rounds(w0, group);
        w1 = schedule(w1, w2, w3, w0);
        rounds(w1, group + 1);
        w2 = schedule(w2, w3, w0, w1);
        rounds(w2, group + 2);
        w3 = schedule(w3, w0, w1, w2);
        rounds(w3, group + 3);
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    // Back to (a, b, c, d) and (e, f, g, h), `a` and `e` in lane 0.
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let (abcd, efgh) = state.split_at_mut(4);
    store(abcd, _mm_blend_epi16(feba, dchg, 0xF0));
    store(efgh, _mm_alignr_epi8(dchg, feba, 8));
}

/// The 16 bytes of `bytes` as a vector, byte 0 lowest.
#[inline(always)]
fn load(bytes: &[u8]) -> __m128i {
    assert_eq!(bytes.len(), 16);
    // SAFETY: the assertion above makes 16 bytes readable at `bytes`'
    // address; `loadu` has no alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) }
}

/// `words = lanes`, lane 0 first.
#[inline(always)]
fn store(words: &mut [u32], lanes: __m128i) {
    assert_eq!(words.len(), 4);
    // SAFETY: the assertion above makes 16 bytes writable at `words`'
    // address, exclusively borrowed through `words`; `storeu` has no
    // alignment requirement.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast::<__m128i>(), lanes) };
}
