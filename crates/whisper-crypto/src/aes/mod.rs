// The reference algorithms (FIPS 197, TAOCP 4.3.1, CIOS) are specified
// index-wise; keeping the indices makes them auditable against the spec.
#![allow(clippy::needless_range_loop)]

//! The AES-128 block cipher (FIPS 197) and a CTR stream mode, implemented
//! from scratch.
//!
//! WHISPER (paper §III-A) encrypts message contents with a random symmetric
//! key `k` using AES; the onion header carries `k` to the destination.
//!
//! # CTR kernels
//!
//! The CTR keystream has two kernels over one expanded key: the portable
//! T-table kernel below, and — on x86_64 CPUs that have the instructions
//! — the AES-NI kernel in the `ni` submodule, which keeps eight counter
//! blocks in flight. [`Aes128::ctr_apply_in_place`] picks the hardware
//! kernel whenever the CPU has it (the paper's implementation got its AES
//! from OpenSSL, i.e. from the same instructions) and the table kernel
//! otherwise; both produce the same bytes and both charge the same
//! [`crate::costs`] block count, so nothing simulated depends on which
//! one ran. [`Aes128::ctr_apply_in_place_portable`] runs the table kernel
//! unconditionally, so tests exercise the fallback on AES-NI hosts too.
//!
//! ```
//! use whisper_crypto::aes::{Aes128, AesKey, CtrNonce};
//!
//! let key = AesKey([0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!                   0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
//! let cipher = Aes128::new(&key);
//! let nonce = CtrNonce([0; 8]);
//! let ct = cipher.ctr_apply(&nonce, b"attack at dawn");
//! assert_eq!(cipher.ctr_apply(&nonce, &ct), b"attack at dawn");
//! ```

use whisper_rand::Rng;

// Beside `sha256/ni.rs`, the one place `unsafe` is allowed: `std::arch`
// intrinsics.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// A 128-bit AES key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AesKey(pub [u8; 16]);

impl AesKey {
    /// Draws a uniformly random key.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        let mut k = [0u8; 16];
        rng.fill(&mut k);
        AesKey(k)
    }
}

impl std::fmt::Debug for AesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "AesKey(..)")
    }
}

/// A 64-bit CTR nonce; the remaining 64 bits of the counter block count
/// blocks, limiting a single message to 2^64 blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct CtrNonce(pub [u8; 8]);

impl CtrNonce {
    /// Draws a uniformly random nonce.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        let mut n = [0u8; 8];
        rng.fill(&mut n);
        CtrNonce(n)
    }
}

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Encryption T-tables: the fused SubBytes+MixColumns lookup of the
/// classic 32-bit AES formulation. `TE[r][x]` packs, for input byte `x`
/// arriving at row `r` of a column, its contribution to the four output
/// bytes of that column (byte `i` of the little-endian `u32` feeds output
/// row `i`). Derived from [`SBOX`] at first use; the byte-wise reference
/// path above stays as the specification the FIPS 197 vectors audit.
struct EncTables {
    te: [[u32; 256]; 4],
}

fn enc_tables() -> &'static EncTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<EncTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = SBOX[x];
            let s2 = gmul(s, 2);
            let s3 = gmul(s, 3);
            // MixColumns rows for an input at row r (see `mix_columns`):
            // row 0 input multiplies into outputs (2, 1, 1, 3), row 1 into
            // (3, 2, 1, 1), and so on by rotation.
            te[0][x] = u32::from_le_bytes([s2, s, s, s3]);
            te[1][x] = u32::from_le_bytes([s3, s2, s, s]);
            te[2][x] = u32::from_le_bytes([s, s3, s2, s]);
            te[3][x] = u32::from_le_bytes([s, s, s3, s2]);
        }
        EncTables { te }
    })
}

/// Multiplication in GF(2^8) with the AES polynomial.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// An expanded AES-128 cipher instance: the 11 round keys, 176 bytes, and
/// nothing else — every kernel reads this one schedule (the T-table kernel
/// as little-endian column words, the hardware kernel as whole vectors).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Aes128(..)")
    }
}

impl Aes128 {
    /// Expands `key` into the round key schedule.
    pub fn new(key: &AesKey) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key.0[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Column `j` of round key `round` as the T-table kernel's state word:
    /// little-endian, byte `i` = row `i`.
    #[inline(always)]
    fn round_key_column(&self, round: usize, j: usize) -> u32 {
        let k = &self.round_keys[round];
        u32::from_le_bytes([k[j * 4], k[j * 4 + 1], k[j * 4 + 2], k[j * 4 + 3]])
    }

    /// Encrypts one 16-byte block in place (T-table fast path; validated
    /// against the byte-wise reference on random blocks and by the FIPS 197
    /// vectors). CTR never runs the cipher backwards, so there is no
    /// block decryption.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let t = &enc_tables().te;
        // State as four little-endian column words: byte i = row i.
        let mut c = [0u32; 4];
        for j in 0..4 {
            c[j] = u32::from_le_bytes([
                block[j * 4],
                block[j * 4 + 1],
                block[j * 4 + 2],
                block[j * 4 + 3],
            ]) ^ self.round_key_column(0, j);
        }
        for round in 1..10 {
            // ShiftRows moves the byte at row r of output column j in
            // from column (j + r) % 4; the T-tables fuse SubBytes and
            // MixColumns on top.
            let mut n = [0u32; 4];
            for j in 0..4 {
                n[j] = t[0][(c[j] & 0xff) as usize]
                    ^ t[1][((c[(j + 1) & 3] >> 8) & 0xff) as usize]
                    ^ t[2][((c[(j + 2) & 3] >> 16) & 0xff) as usize]
                    ^ t[3][(c[(j + 3) & 3] >> 24) as usize]
                    ^ self.round_key_column(round, j);
            }
            c = n;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        for j in 0..4 {
            let v = u32::from_le_bytes([
                SBOX[(c[j] & 0xff) as usize],
                SBOX[((c[(j + 1) & 3] >> 8) & 0xff) as usize],
                SBOX[((c[(j + 2) & 3] >> 16) & 0xff) as usize],
                SBOX[(c[(j + 3) & 3] >> 24) as usize],
            ]) ^ self.round_key_column(10, j);
            block[j * 4..j * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Encrypts one 16-byte block with the byte-wise FIPS 197 reference
    /// rounds; kept as the auditable specification of
    /// [`Aes128::encrypt_block`].
    #[cfg(test)]
    fn encrypt_block_reference(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Applies the CTR keystream; encryption and decryption are the same
    /// operation. Returns a buffer of the same length as `data`.
    ///
    /// The blocks processed are accounted in [`crate::costs`].
    pub fn ctr_apply(&self, nonce: &CtrNonce, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.ctr_apply_in_place(nonce, &mut out);
        out
    }

    /// [`Aes128::ctr_apply`] without the output allocation: CTR is a pure
    /// length-preserving XOR, so a caller that owns its buffer can layer
    /// and strip in place. This is the relay hot path — one circuit hop
    /// costs exactly one in-place pass over the body.
    ///
    /// Runs the AES-NI kernel where the CPU has one, the T-table kernel
    /// elsewhere; the blocks processed are accounted in [`crate::costs`]
    /// identically for both.
    pub fn ctr_apply_in_place(&self, nonce: &CtrNonce, data: &mut [u8]) {
        self.ctr_apply_in_place_at(nonce, 0, data);
    }

    /// [`Aes128::ctr_apply_in_place`] with the keystream starting at block
    /// `first_block` instead of block 0: two uses of one `(key, nonce)`
    /// whose block ranges do not overlap share no keystream, whatever the
    /// nonce — how the two directions of a circuit stay apart
    /// ([`crate::circuit::Direction`]).
    pub fn ctr_apply_in_place_at(&self, nonce: &CtrNonce, first_block: u64, data: &mut [u8]) {
        if !self.ctr_xor_hardware(nonce, first_block, data) {
            self.ctr_xor_table(nonce, first_block, data);
        }
        crate::costs::add_aes_blocks(data.len().div_ceil(16) as u64);
    }

    /// [`Aes128::ctr_apply_in_place`] pinned to the portable T-table
    /// kernel — the path a CPU without AES-NI takes. Same bytes, same
    /// [`crate::costs`] accounting.
    pub fn ctr_apply_in_place_portable(&self, nonce: &CtrNonce, data: &mut [u8]) {
        self.ctr_xor_table(nonce, 0, data);
        crate::costs::add_aes_blocks(data.len().div_ceil(16) as u64);
    }

    /// The AES-NI CTR kernel, same contract as
    /// [`Aes128::ctr_xor_table`]; `false` (and `data` untouched) where the
    /// CPU or the target has no such kernel.
    fn ctr_xor_hardware(&self, nonce: &CtrNonce, first_block: u64, data: &mut [u8]) -> bool {
        #[cfg(target_arch = "x86_64")]
        return ni::ctr_xor(&self.round_keys, &nonce.0, first_block, data);
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (nonce, first_block, data);
            false
        }
    }

    /// The T-table CTR kernel: block `i` of the keystream is
    /// `AES(nonce ‖ be64(i))`, and `data` starts at block `first_block`.
    fn ctr_xor_table(&self, nonce: &CtrNonce, first_block: u64, data: &mut [u8]) {
        let mut counter_block = [0u8; 16];
        counter_block[..8].copy_from_slice(&nonce.0);
        for (block_idx, chunk) in data.chunks_mut(16).enumerate() {
            let index = first_block.wrapping_add(block_idx as u64);
            counter_block[8..].copy_from_slice(&index.to_be_bytes());
            let mut keystream = counter_block;
            self.encrypt_block(&mut keystream);
            for (byte, &k) in chunk.iter_mut().zip(keystream.iter()) {
                *byte ^= k;
            }
        }
    }
}

// The round helpers below survive only for the reference implementation
// the T-table fast path is validated against.

/// State layout: column-major, `state[c*4 + r]` = row r, column c (matching
/// the byte order of FIPS 197 inputs).
#[cfg(test)]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[cfg(test)]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[cfg(test)]
fn shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[c * 4 + r] = row[(c + r) % 4];
        }
    }
}

#[cfg(test)]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[c * 4], state[c * 4 + 1], state[c * 4 + 2], state[c * 4 + 3]];
        state[c * 4] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        state[c * 4 + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        state[c * 4 + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        state[c * 4 + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    /// FIPS 197 Appendix B test vector.
    #[test]
    fn fips197_appendix_b() {
        let key = AesKey([
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let cipher = Aes128::new(&key);
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        cipher.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19,
                0x6a, 0x0b, 0x32
            ]
        );
    }

    /// FIPS 197 Appendix C.1 (AES-128) known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key = AesKey([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        let cipher = Aes128::new(&key);
        let mut block = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        cipher.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                0xb4, 0xc5, 0x5a
            ]
        );
    }

    /// The T-table fast path agrees with the byte-wise FIPS 197 rounds on
    /// random keys and blocks.
    #[test]
    fn ttable_matches_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let cipher = Aes128::new(&AesKey::random(&mut rng));
            for _ in 0..20 {
                let mut fast = [0u8; 16];
                rng.fill(&mut fast);
                let mut reference = fast;
                cipher.encrypt_block(&mut fast);
                cipher.encrypt_block_reference(&mut reference);
                assert_eq!(fast, reference);
            }
        }
    }

    #[test]
    fn ctr_round_trip_all_lengths() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = AesKey::random(&mut rng);
        let nonce = CtrNonce::random(&mut rng);
        let cipher = Aes128::new(&key);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = cipher.ctr_apply(&nonce, &data);
            assert_eq!(ct.len(), len);
            assert_eq!(cipher.ctr_apply(&nonce, &ct), data, "len {len}");
        }
    }

    /// CTR over the byte-wise FIPS 197 reference rounds: the oracle both
    /// kernels are held to.
    fn ctr_reference(cipher: &Aes128, nonce: &CtrNonce, first_block: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.0);
            block[8..].copy_from_slice(&first_block.wrapping_add(i as u64).to_be_bytes());
            cipher.encrypt_block_reference(&mut block);
            for (byte, k) in chunk.iter_mut().zip(block) {
                *byte ^= k;
            }
        }
    }

    /// Runs every kernel this host has over a copy of `data`; all must
    /// equal the reference.
    fn assert_kernels_match_reference(key: &AesKey, nonce: &CtrNonce, first: u64, data: &[u8]) {
        let cipher = Aes128::new(key);
        let mut expected = data.to_vec();
        ctr_reference(&cipher, nonce, first, &mut expected);
        let mut table = data.to_vec();
        cipher.ctr_xor_table(nonce, first, &mut table);
        assert_eq!(table, expected, "T-table kernel, {} bytes from block {first}", data.len());
        let mut hardware = data.to_vec();
        if cipher.ctr_xor_hardware(nonce, first, &mut hardware) {
            assert_eq!(hardware, expected, "AES-NI kernel, {} bytes from block {first}", data.len());
        } else {
            assert_eq!(hardware, data, "an absent kernel must leave the data untouched");
        }
    }

    /// Differential property: AES-NI vs T-table vs the FIPS 197 reference
    /// rounds, over random keys, nonces, starting blocks and lengths
    /// 0..=4096 — whole 128-byte strides, whole blocks and ragged tails.
    #[test]
    fn ctr_kernels_match_reference_on_random_inputs() {
        whisper_rand::check::check(96, "ctr_kernels_match_reference_on_random_inputs", |g| {
            let key = AesKey::random(g);
            let nonce = CtrNonce::random(g);
            // Mostly the production start (0); sometimes far out, so the
            // big-endian carry between counter bytes is exercised.
            let first = if g.gen_bool(0.5) { 0 } else { g.gen::<u64>() };
            let len = g.gen_range(0..=4096usize);
            let seed: u8 = g.gen();
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            assert_kernels_match_reference(&key, &nonce, first, &data);
        });
    }

    /// Every length around the kernel's stride boundaries (16-byte
    /// blocks, 128-byte eight-block strides), exhaustively.
    #[test]
    fn ctr_kernels_match_reference_on_every_short_length() {
        let key = AesKey([0x5a; 16]);
        let nonce = CtrNonce([0xc3; 8]);
        let data: Vec<u8> = (0..400).map(|i| i as u8).collect();
        for len in 0..=data.len() {
            assert_kernels_match_reference(&key, &nonce, 0, &data[..len]);
        }
        // The counter wraps instead of overflowing at the end of its range.
        assert_kernels_match_reference(&key, &nonce, u64::MAX - 3, &data[..300]);
    }

    /// The FIPS 197 known answers through both CTR kernels: with the
    /// plaintext block as the counter block (nonce = its first 8 bytes,
    /// block index = its last 8, big-endian) the keystream over 16 zero
    /// bytes is the ciphertext.
    #[test]
    fn fips197_vectors_through_both_ctr_kernels() {
        let vectors: [([u8; 16], [u8; 16], [u8; 16]); 2] = [
            (
                // Appendix B
                [
                    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09,
                    0xcf, 0x4f, 0x3c,
                ],
                [
                    0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0,
                    0x37, 0x07, 0x34,
                ],
                [
                    0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19,
                    0x6a, 0x0b, 0x32,
                ],
            ),
            (
                // Appendix C.1
                [
                    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c,
                    0x0d, 0x0e, 0x0f,
                ],
                [
                    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc,
                    0xdd, 0xee, 0xff,
                ],
                [
                    0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                    0xb4, 0xc5, 0x5a,
                ],
            ),
        ];
        for (key, plain, cipher_text) in vectors {
            let cipher = Aes128::new(&AesKey(key));
            let nonce = CtrNonce(plain[..8].try_into().unwrap());
            let index = u64::from_be_bytes(plain[8..].try_into().unwrap());
            let mut table = [0u8; 16];
            cipher.ctr_xor_table(&nonce, index, &mut table);
            assert_eq!(table, cipher_text, "T-table kernel");
            let mut hardware = [0u8; 16];
            if cipher.ctr_xor_hardware(&nonce, index, &mut hardware) {
                assert_eq!(hardware, cipher_text, "AES-NI kernel");
            }
        }
    }

    /// The deterministic cost model must not know which kernel ran: the
    /// dispatching entry point and the pinned-portable one charge the
    /// same blocks for the same lengths.
    #[test]
    fn both_kernels_charge_equal_costs() {
        let cipher = Aes128::new(&AesKey([9; 16]));
        let nonce = CtrNonce([4; 8]);
        for len in [0usize, 1, 16, 17, 128, 129, 1000, 4096] {
            let mut data = vec![0u8; len];
            let before = crate::costs::snapshot();
            cipher.ctr_apply_in_place(&nonce, &mut data);
            let dispatched = crate::costs::snapshot().since(before);
            let before = crate::costs::snapshot();
            cipher.ctr_apply_in_place_portable(&nonce, &mut data);
            let portable = crate::costs::snapshot().since(before);
            assert_eq!(dispatched, portable, "{len} bytes");
            assert_eq!(dispatched.aes_blocks, len.div_ceil(16) as u64);
            assert!(data.iter().all(|&b| b == 0), "two passes cancel, whichever kernels ran");
        }
    }

    #[test]
    fn ctr_different_nonces_differ() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = AesKey::random(&mut rng);
        let cipher = Aes128::new(&key);
        let data = vec![0u8; 64];
        let a = cipher.ctr_apply(&CtrNonce([0; 8]), &data);
        let b = cipher.ctr_apply(&CtrNonce([1, 0, 0, 0, 0, 0, 0, 0]), &data);
        assert_ne!(a, b);
    }

    #[test]
    fn gmul_spot_checks() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xab), 0);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for s in SBOX {
            assert!(!std::mem::replace(&mut seen[s as usize], true), "{s:#04x} twice");
        }
    }

    /// One schedule per key: 11 round keys of 16 bytes and no second copy
    /// in another word order (every `CircuitEntry`, `SourceCircuit` hop
    /// and cached route holds one of these).
    #[test]
    fn cipher_is_one_schedule() {
        assert_eq!(std::mem::size_of::<Aes128>(), 176);
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = AesKey([0xAA; 16]);
        assert!(!format!("{key:?}").contains("AA"));
        assert!(!format!("{:?}", Aes128::new(&key)).contains("170"));
    }
}
