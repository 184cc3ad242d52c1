//! Length-prefix surgery for the hostile-bytes decoder tests. A prefix is
//! read and rewritten through the codec (`WireReader::take_len`,
//! `WireSink::put_len`) whatever its width, so a suite names where its
//! prefixes sit and nothing of how they are spelled.

use whisper_net::wire::{WireReader, WireSink, WireWriter};
use whisper_rand::check::Gen;
use whisper_rand::Rng;

/// The length the prefix at `at` in `image` holds, and its width.
pub fn len_at(image: &[u8], at: usize) -> (usize, usize) {
    let mut r = WireReader::new(&image[at..]);
    let len = r.take_len().expect("a length prefix");
    (len, image.len() - at - r.remaining())
}

/// `len` written as a `width`-byte prefix, in its shortest form or not.
fn in_width(len: usize, width: usize) -> Vec<u8> {
    let v = len as u64 | u64::from(width.trailing_zeros()) << (8 * width - 2);
    v.to_be_bytes()[8 - width..].to_vec()
}

/// `image` with the `replaced` bytes at `at` swapped for `prefix`.
fn splice(image: &[u8], at: usize, replaced: usize, prefix: &[u8]) -> Vec<u8> {
    [&image[..at], prefix, &image[at + replaced..]].concat()
}

/// `image` with the prefix at `at` rewritten to hold `len`, in the width
/// `len` takes.
pub fn with_len(image: &[u8], at: usize, len: usize) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_len(len);
    splice(image, at, len_at(image, at).1, &w.into_bytes())
}

/// `image` with its `replaced` bytes at `at` — a prefix, or whatever sits
/// there — swapped for a prefix that claims every byte behind them.
pub fn claiming_the_rest(image: &[u8], at: usize, replaced: usize) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_len(image.len() - at - replaced);
    splice(image, at, replaced, &w.into_bytes())
}

/// `image` with a prefix at `at` that no decoder may take: the same
/// length in eight bytes, wider than it needs; an eight-byte prefix that
/// claims 2⁶² − 1 bytes, the most one can; or a prefix of two to eight
/// bytes that the end of the input cuts short.
pub fn refused_prefix(g: &mut Gen, image: &[u8], at: usize) -> Vec<u8> {
    let (len, width) = len_at(image, at);
    match g.gen_range(0..3u8) {
        0 => splice(image, at, width, &in_width(len, 8)),
        1 => splice(image, at, width, &[0xFF; 8]),
        _ => {
            let wide = in_width(len, [2, 4, 8][g.gen_range(0..3)]);
            [&image[..at], &wide[..g.gen_range(1..wide.len())]].concat()
        }
    }
}
