//! The SHA-256 hash function (FIPS 180-4), implemented from scratch.
//!
//! # Compression kernels
//!
//! The compression function has two kernels: the portable one below,
//! written index-wise after the standard, and — on x86_64 CPUs with the
//! SHA extensions — the hardware one in the `ni` submodule. Every block
//! goes through one `compress`, which takes the hardware kernel whenever
//! the CPU reports the feature and the portable one otherwise; nothing
//! else selects between them. Both compute the same function, so which
//! one ran is unobservable in any digest (the tests hold the two against
//! each other over every padding shape), and SHA-256 has no row in
//! [`crate::costs`], so no simulated charge depends on it either.
//!
//! ```
//! use whisper_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! # fn hex(d: &[u8]) -> String { d.iter().map(|b| format!("{b:02x}")).collect() }
//! ```

// Beside `aes/ni.rs`, the one place `unsafe` is allowed: `std::arch`
// intrinsics.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// Incremental SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// The input not yet compressed: `buffer[..buffer_len]`, always short
    /// of a whole block.
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// One-shot convenience: hashes `data` and returns the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
        }
        // Whole blocks are compressed where they lie.
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("chunks_exact(64)"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding (FIPS 180-4 §5.1.1): a 0x80 byte, zeros up to the last
        // eight bytes of a block, the message length in bits. The 0x80
        // always fits the current block; the length needs a second one
        // when fewer than eight bytes are left behind it.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        digest_bytes(self.state)
    }
}

/// The digest a final state stands for: its words, big-endian.
fn digest_bytes(state: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Folds one block into `state`: on the SHA extensions where the CPU has
/// them, portably elsewhere.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if ni::compress(state, block) {
        return;
    }
    compress_portable(state, block);
}

/// The compression function as FIPS 180-4 §6.2.2 writes it: the fallback
/// for CPUs without the SHA extensions, and the reference the hardware
/// kernel is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact(4)"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::Rng;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = Sha256::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Known answer for a 55-byte input (padding boundary) is checked
        // for internal consistency: one-shot equals byte-by-byte.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let oneshot = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), oneshot, "len {len}");
        }
    }

    type Kernel = fn(&mut [u32; 8], &[u8; 64]);

    /// The hardware kernel as a plain function; `None`, with a notice on
    /// stderr, where the CPU has none.
    fn hardware_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            return Some(|state, block| assert!(ni::compress(state, block)));
        }
        eprintln!("sha256: NOTICE: no SHA extensions on this CPU, the hardware kernel is untested");
        None
    }

    /// FIPS 180-4 by the book over one kernel: pad a copy of the message,
    /// compress it block by block. Shares nothing with `update` and
    /// `finalize` but the kernel.
    fn digest_by_the_book(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            kernel(&mut state, block.try_into().unwrap());
        }
        digest_bytes(state)
    }

    /// One digest three ways: `Sha256` (whichever kernel it dispatches
    /// to) and the by-the-book padding over each kernel this host has.
    fn assert_kernels_agree(data: &[u8], hardware: Option<Kernel>) -> [u8; 32] {
        let expected = digest_by_the_book(compress_portable, data);
        assert_eq!(Sha256::digest(data), expected, "Sha256::digest, {} bytes", data.len());
        if let Some(hardware) = hardware {
            let got = digest_by_the_book(hardware, data);
            assert_eq!(got, expected, "hardware kernel, {} bytes", data.len());
        }
        expected
    }

    /// The NIST vectors through both kernels.
    #[test]
    fn nist_vectors_through_both_kernels() {
        let vectors: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        let hardware = hardware_kernel();
        for (message, digest) in vectors {
            assert_eq!(hex(&assert_kernels_agree(message, hardware)), digest);
        }
    }

    /// Every length across the padding boundaries (55/56: the length
    /// still fits the block or not; 63/64: a whole block), twice over.
    #[test]
    fn kernels_agree_on_every_short_length() {
        let hardware = hardware_kernel();
        let data: Vec<u8> = (0..130u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            assert_kernels_agree(&data[..len], hardware);
        }
    }

    /// Differential property: hardware ≡ portable ≡ `Sha256` over random
    /// messages of 0..=300 bytes, absorbed whole and in three pieces cut
    /// at random points.
    #[test]
    fn kernels_agree_on_random_inputs_and_splits() {
        let hardware = hardware_kernel();
        whisper_rand::check::check(128, "kernels_agree_on_random_inputs_and_splits", |g| {
            let data = g.bytes(300);
            let expected = assert_kernels_agree(&data, hardware);
            let cut = g.gen_range(0..=data.len());
            let (first, second) = (g.gen_range(0..=cut), cut);
            let mut h = Sha256::new();
            h.update(&data[..first]);
            h.update(&data[first..second]);
            h.update(&data[second..]);
            assert_eq!(h.finalize(), expected, "cut at {first} and {second} of {}", data.len());
        });
    }
}
