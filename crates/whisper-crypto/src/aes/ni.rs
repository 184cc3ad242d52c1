//! The AES-NI CTR kernel: the hardware counterpart of the T-table kernel
//! in the parent module, producing the same keystream from the same
//! expanded key.
//!
//! With `sha256/ni.rs` this is one of the two modules in the workspace's
//! libraries that contain `unsafe` code: every other crate forbids it, and
//! this crate denies it everywhere but in those two (the `#[allow]` sits
//! on the `mod ni` declarations). The module boundary is the safety
//! boundary: [`ctr_xor`] is a safe
//! function that checks the CPU feature itself before it enters the
//! `#[target_feature]` code, so no caller can reach an `aesenc` on a CPU
//! without one, and every pointer the kernel forms is derived from a slice
//! whose length the surrounding safe code has just established.

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi64x,
    _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Counter blocks encrypted together. `aesenc` has a latency of 3–4
/// cycles and a throughput of one or two per cycle on every AES-NI core,
/// so eight independent blocks keep the unit busy where one block would
/// leave it idle three cycles in four.
const LANES: usize = 8;

/// Whether this CPU executes the AES-NI instructions (detected once per
/// process; `std` caches the CPUID probe behind the macro).
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// XORs the CTR keystream of `round_keys` under `nonce` into `data`,
/// block `i` of the stream being `AES(nonce ‖ be64(i))` and `data`
/// starting at block `first_block`.
///
/// Returns `false`, leaving `data` untouched, on a CPU without AES-NI.
pub(super) fn ctr_xor(
    round_keys: &[[u8; 16]; 11],
    nonce: &[u8; 8],
    first_block: u64,
    data: &mut [u8],
) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` has just reported the `aes` CPU feature, the
    // only one `ctr_xor_aes` enables beyond the x86_64 baseline (SSE2).
    unsafe { ctr_xor_aes(round_keys, nonce, first_block, data) };
    true
}

#[target_feature(enable = "aes")]
fn ctr_xor_aes(round_keys: &[[u8; 16]; 11], nonce: &[u8; 8], first_block: u64, data: &mut [u8]) {
    let mut rk = [_mm_setzero_si128(); 11];
    for (slot, bytes) in rk.iter_mut().zip(round_keys) {
        // SAFETY: `bytes` is a `[u8; 16]`, so 16 bytes are readable at its
        // address; `loadu` has no alignment requirement.
        *slot = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
    }
    // The counter block in memory order is `nonce ‖ be64(index)`; as a
    // little-endian 128-bit lane that is (low = nonce read LE, high =
    // index byte-swapped).
    let nonce_lane = i64::from_le_bytes(*nonce);
    let keystream = |index: u64| {
        let mut block = _mm_set_epi64x(index.swap_bytes() as i64, nonce_lane);
        block = _mm_xor_si128(block, rk[0]);
        for key in &rk[1..10] {
            block = _mm_aesenc_si128(block, *key);
        }
        _mm_aesenclast_si128(block, rk[10])
    };

    let mut index = first_block;
    let mut wide = data.chunks_exact_mut(16 * LANES);
    for chunk in &mut wide {
        // Round-major over the lanes: the eight `aesenc` of one round are
        // independent, which is what lets them overlap in the pipeline.
        let mut lanes = [_mm_setzero_si128(); LANES];
        for (j, lane) in lanes.iter_mut().enumerate() {
            let counter =
                _mm_set_epi64x(index.wrapping_add(j as u64).swap_bytes() as i64, nonce_lane);
            *lane = _mm_xor_si128(counter, rk[0]);
        }
        for key in &rk[1..10] {
            for lane in &mut lanes {
                *lane = _mm_aesenc_si128(*lane, *key);
            }
        }
        for (lane, block) in lanes.iter().zip(chunk.chunks_exact_mut(16)) {
            xor_block(block, _mm_aesenclast_si128(*lane, rk[10]));
        }
        index = index.wrapping_add(LANES as u64);
    }
    let mut blocks = wide.into_remainder().chunks_exact_mut(16);
    for block in &mut blocks {
        xor_block(block, keystream(index));
        index = index.wrapping_add(1);
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 16];
        xor_block(&mut last, keystream(index));
        for (byte, k) in tail.iter_mut().zip(last) {
            *byte ^= k;
        }
    }
}

/// `block ^= keystream` for one whole 16-byte block.
#[inline(always)]
fn xor_block(block: &mut [u8], keystream: __m128i) {
    assert_eq!(block.len(), 16);
    let p = block.as_mut_ptr().cast::<__m128i>();
    // SAFETY: the assertion above makes `p` valid for reading and writing
    // 16 bytes, exclusively borrowed through `block`; `loadu`/`storeu`
    // have no alignment requirement.
    unsafe { _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), keystream)) };
}
