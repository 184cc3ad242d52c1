//! A compact hand-rolled binary codec.
//!
//! Every message placed on the simulated wire is really serialized with
//! this codec, so bandwidth measurements reflect actual byte counts rather
//! than estimates. Integers are big-endian; variable-length fields carry
//! explicit length prefixes.
//!
//! Every length prefix and sequence count is one format,
//! [`WireSink::put_len`]: a QUIC variable-length integer (RFC 9000 §16).
//! The two top bits of its first byte give its width — 1, 2, 4 or 8
//! bytes — and the other bits, big-endian, the value, so a length below
//! 64 takes one byte and one below 16 384 two. The encoding is minimal:
//! [`WireReader::take_len`] refuses a value written wider than it needs,
//! so each message has exactly one image.
//!
//! ```
//! use whisper_net::wire::{WireReader, WireSink, WireWriter};
//!
//! let mut w = WireWriter::new();
//! w.put_u32(7);
//! w.put_bytes(b"abc");
//! let buf = w.into_bytes();
//!
//! let mut r = WireReader::new(&buf);
//! assert_eq!(r.take_u32().unwrap(), 7);
//! assert_eq!(r.take_bytes().unwrap(), b"abc");
//! assert!(r.finish().is_ok());
//! ```

use std::error::Error;
use std::fmt;

/// Error returned when decoding malformed or truncated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    what: &'static str,
}

impl WireError {
    /// Creates an error with a static description.
    pub fn new(what: &'static str) -> Self {
        WireError { what }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.what)
    }
}

impl Error for WireError {}

/// Serialization sink.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Creates an empty writer pre-sized for `capacity` bytes — pair with
    /// [`WireEncode::encoded_len`] to serialize without reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter { buf: Vec::with_capacity(capacity) }
    }

    /// Creates a writer backed by `buf`, clearing any existing contents
    /// but keeping its capacity — the hook that lets pooled payload
    /// buffers back wire encodes without reallocating.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter { buf }
    }

    /// Current serialized length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, mutable: a caller that owns the writer
    /// can transform what it has written in place (e.g. encrypt a body it
    /// just appended) instead of preparing it in a buffer of its own.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl WireSink for WireWriter {
    #[inline]
    fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Where a wire image goes: a [`WireWriter`], a pooled
/// [`PayloadWriter`](crate::payload::PayloadWriter), or a [`WireLen`]
/// that only counts. Every format is written once, against this trait,
/// and its length is what the counter adds up.
pub trait WireSink: Sized {
    /// Appends raw bytes with no length prefix (fixed-size fields) — the
    /// one method a sink implements; the others are written on top of it.
    fn put_raw(&mut self, v: &[u8]);

    /// Appends a `u8`.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_be_bytes());
    }

    /// Appends a big-endian `u128`.
    #[inline]
    fn put_u128(&mut self, v: u128) {
        self.put_raw(&v.to_be_bytes());
    }

    /// Appends a length or a count in the fewest bytes that hold it: a
    /// QUIC variable-length integer (RFC 9000 §16). The top two bits of
    /// the first byte give the width — `00` one byte (below 2⁶), `01` two
    /// (below 2¹⁴), `10` four (below 2³⁰), `11` eight (below 2⁶²) — and
    /// the rest of the bits hold the value, big-endian.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 2⁶² or more, which no width holds.
    #[inline]
    fn put_len(&mut self, len: usize) {
        let v = len as u64;
        if v < 1 << 6 {
            self.put_u8(v as u8);
        } else if v < 1 << 14 {
            self.put_u16(v as u16 | 0x4000);
        } else if v < 1 << 30 {
            self.put_u32(v as u32 | 0x8000_0000);
        } else {
            assert!(v < 1 << 62, "a wire length holds at most 2^62 - 1");
            self.put_u64(v | 0xC000_0000_0000_0000);
        }
    }

    /// Appends a length-prefixed byte string: its length as
    /// [`WireSink::put_len`] writes it, then the bytes.
    #[inline]
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.put_raw(v);
    }

    /// Appends an encodable value.
    fn put<T: WireEncode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Appends a sequence of encodable values behind its count, written
    /// as [`WireSink::put_len`] writes a length.
    fn put_seq<T: WireEncode>(&mut self, items: &[T]) {
        self.put_len(items.len());
        for item in items {
            item.encode(self);
        }
    }

    /// Appends an optional value as a presence byte plus the value.
    fn put_opt<T: WireEncode>(&mut self, v: &Option<T>) {
        match v {
            Some(inner) => {
                self.put_u8(1);
                inner.encode(self);
            }
            None => self.put_u8(0),
        }
    }
}

/// A [`WireSink`] that writes nothing and counts what a writer would
/// append: the exact length of a wire image, from the code that writes it.
#[derive(Debug)]
pub struct WireLen(usize);

impl WireLen {
    /// The number of bytes `write` appends to a sink.
    pub fn of(write: impl FnOnce(&mut WireLen)) -> usize {
        let mut n = WireLen(0);
        write(&mut n);
        n.0
    }
}

impl WireSink for WireLen {
    #[inline]
    fn put_raw(&mut self, v: &[u8]) {
        self.0 += v.len();
    }
}

/// Deserialization cursor over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn advance(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new("truncated input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.advance(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.advance(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.advance(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.advance(8)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(self.advance(16)?.try_into().unwrap()))
    }

    /// Reads a length or a count written by [`WireSink::put_len`].
    ///
    /// # Errors
    ///
    /// Fails on a prefix cut short and on one written wider than its
    /// value needs: each length has exactly one encoding.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let first = *self.buf.get(self.pos).ok_or(WireError::new("truncated input"))?;
        let width = 1usize << (first >> 6);
        let bytes = self.advance(width)?;
        let v = bytes[1..].iter().fold(u64::from(first & 0x3F), |v, &b| v << 8 | u64::from(b));
        // The least value of each width above one byte: 2⁶, 2¹⁴, 2³⁰.
        if width > 1 && v < 1 << (4 * width - 2) {
            return Err(WireError::new("length not in its shortest form"));
        }
        usize::try_from(v).map_err(|_| WireError::new("length beyond the address space"))
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.take_len()?;
        self.advance(len)
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.advance(n)
    }

    /// Reads a decodable value.
    pub fn take<T: WireDecode>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Reads a length-prefixed sequence.
    ///
    /// The length is sanity-checked against the remaining input, and what
    /// is reserved up front is bounded by it in bytes, so a corrupted
    /// prefix cannot trigger an allocation larger than the input.
    pub fn take_seq<T: WireDecode>(&mut self) -> Result<Vec<T>, WireError> {
        let len = self.take_len()?;
        if len > self.remaining() {
            // Every element occupies at least one byte.
            return Err(WireError::new("sequence length exceeds input"));
        }
        let mut out = Vec::with_capacity(len.min(self.remaining() / size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Reads an optional value written by [`WireSink::put_opt`].
    pub fn take_opt<T: WireDecode>(&mut self) -> Result<Option<T>, WireError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(self)?)),
            _ => Err(WireError::new("invalid option tag")),
        }
    }

    /// Asserts that the whole input has been consumed.
    ///
    /// # Errors
    ///
    /// Fails if trailing bytes remain — protocols treat that as a
    /// malformed message.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes"))
        }
    }
}

/// Types serializable with the wire codec.
pub trait WireEncode {
    /// Appends this value to `w`.
    fn encode<W: WireSink>(&self, w: &mut W);

    /// Exact number of bytes [`WireEncode::encode`] appends: `encode` run
    /// against a [`WireLen`], so writers can pre-size buffers precisely.
    fn encoded_len(&self) -> usize {
        WireLen::of(|n| self.encode(n))
    }

    /// Convenience: serializes into a fresh, exactly-sized buffer.
    fn to_wire(&self) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.encode(&mut w);
        debug_assert_eq!(
            w.len(),
            self.encoded_len(),
            "encoded_len() disagrees with encode()"
        );
        w.into_bytes()
    }
}

/// Types deserializable with the wire codec.
pub trait WireDecode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: parses a complete buffer, rejecting trailing bytes.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_wire_uint {
    ($ty:ty, $put:ident, $take:ident) => {
        impl WireEncode for $ty {
            fn encode<W: WireSink>(&self, w: &mut W) {
                w.$put(*self);
            }
        }
        impl WireDecode for $ty {
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$take()
            }
        }
    };
}

impl_wire_uint!(u8, put_u8, take_u8);
impl_wire_uint!(u16, put_u16, take_u16);
impl_wire_uint!(u32, put_u32, take_u32);
impl_wire_uint!(u64, put_u64, take_u64);
impl_wire_uint!(u128, put_u128, take_u128);

/// A byte array travels as its bytes, unprefixed: its type fixes the
/// length.
impl<const N: usize> WireEncode for [u8; N] {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_raw(self);
    }
}

impl<const N: usize> WireDecode for [u8; N] {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take_raw(N)?.try_into().unwrap())
    }
}

impl WireEncode for Vec<u8> {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_bytes(self);
    }
}

impl WireDecode for Vec<u8> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take_bytes()?.to_vec())
    }
}

impl WireEncode for bool {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_u8(*self as u8);
    }
}

impl WireDecode for bool {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::new("invalid bool")),
        }
    }
}

/// An `f64` travels as its IEEE 754 bits, a big-endian `u64`.
impl WireEncode for f64 {
    fn encode<W: WireSink>(&self, w: &mut W) {
        w.put_u64(self.to_bits());
    }
}

impl WireDecode for f64 {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

/// Implements [`WireEncode`] and [`WireDecode`] for a type from one list
/// of its fields, in wire order, so that the writer and the reader of a
/// layout cannot drift apart.
///
/// Each field is written with [`WireSink::put`] and read with
/// [`WireReader::take`]; one marked `: seq` goes through
/// [`WireSink::put_seq`] / [`WireReader::take_seq`] and one marked `: opt`
/// through [`WireSink::put_opt`] / [`WireReader::take_opt`]. The list
/// names every field of the type — a field left out does not compile.
/// Three forms:
///
/// * `Type { a, b: seq }` — a struct with named fields, optionally with
///   one type parameter (`Type<D> { .. }`, bounded by the trait being
///   implemented);
/// * `Type(a)` — a tuple struct, its fields named by position;
/// * `enum Type, "error" { TAG => Variant { .. }, TAG => Variant(x),
///   TAG => Unit }` — a one-byte tag, then the variant's fields. A tag
///   no variant has fails to decode with `WireError::new("error")`.
///
/// ```
/// use whisper_net::wire::{WireDecode, WireEncode, WireError};
///
/// #[derive(Debug, PartialEq)]
/// struct Hello {
///     from: u16,
///     names: Vec<Vec<u8>>,
///     reply: Option<u8>,
/// }
/// whisper_net::wire_format!(Hello { from, names: seq, reply: opt });
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping(u32),
///     Hello { hello: Hello },
///     Bye,
/// }
/// whisper_net::wire_format!(enum Msg, "unknown message" {
///     1 => Ping(n),
///     2 => Hello { hello },
///     3 => Bye,
/// });
///
/// let hello = Msg::Hello { hello: Hello { from: 7, names: vec![b"a".to_vec()], reply: None } };
/// assert_eq!(hello.to_wire(), [2, 0, 7, 1, 1, b'a', 0]);
/// assert_eq!(Msg::from_wire(&[1, 0, 0, 0, 9]), Ok(Msg::Ping(9)));
/// assert_eq!(Msg::from_wire(&[3]), Ok(Msg::Bye));
/// assert_eq!(Msg::from_wire(&[4]), Err(WireError::new("unknown message")));
/// ```
#[macro_export]
macro_rules! wire_format {
    (@put $w:ident, $v:ident) => { $w.put($v) };
    (@put $w:ident, $v:ident, seq) => { $w.put_seq($v) };
    (@put $w:ident, $v:ident, opt) => { $w.put_opt($v) };
    (@take $r:ident) => { $r.take()? };
    (@take $r:ident, seq) => { $r.take_seq()? };
    (@take $r:ident, opt) => { $r.take_opt()? };
    (enum $ty:ident, $err:literal { $(
        $tag:literal => $variant:ident
            $({ $($f:ident $(: $fk:ident)?),* $(,)? })?
            $(( $($p:ident $(: $pk:ident)?),* $(,)? ))?
    ),* $(,)? }) => {
        impl $crate::wire::WireEncode for $ty {
            fn encode<W: $crate::wire::WireSink>(&self, w: &mut W) {
                match self {
                    $(Self::$variant $({ $($f),* })? $(( $($p),* ))? => {
                        w.put_u8($tag);
                        $($($crate::wire_format!(@put w, $f $(, $fk)?);)*)?
                        $($($crate::wire_format!(@put w, $p $(, $pk)?);)*)?
                    })*
                }
            }
        }
        impl $crate::wire::WireDecode for $ty {
            fn decode(r: &mut $crate::wire::WireReader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.take_u8()? {
                    $($tag => Self::$variant
                        $({ $($f: $crate::wire_format!(@take r $(, $fk)?)),* })?
                        $(( $($crate::wire_format!(@take r $(, $pk)?)),* ))?,)*
                    _ => return Err($crate::wire::WireError::new($err)),
                })
            }
        }
    };
    ($ty:ident $(<$g:ident>)?
        $({ $($f:ident $(: $fk:ident)?),* $(,)? })?
        $(( $($p:ident $(: $pk:ident)?),* $(,)? ))?
    ) => {
        impl$(<$g: $crate::wire::WireEncode>)? $crate::wire::WireEncode for $ty$(<$g>)? {
            fn encode<W: $crate::wire::WireSink>(&self, w: &mut W) {
                let Self $({ $($f),* })? $(( $($p),* ))? = self;
                $($($crate::wire_format!(@put w, $f $(, $fk)?);)*)?
                $($($crate::wire_format!(@put w, $p $(, $pk)?);)*)?
            }
        }
        impl$(<$g: $crate::wire::WireDecode>)? $crate::wire::WireDecode for $ty$(<$g>)? {
            fn decode(r: &mut $crate::wire::WireReader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self $({ $($f: $crate::wire_format!(@take r $(, $fk)?)),* })?
                    $(( $($crate::wire_format!(@take r $(, $pk)?)),* ))?)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0102030405060708);
        w.put_u128(0x1112_1314_1516_1718_191A_1B1C_1D1E_1F20);
        w.put(&[0xC0u8, 0xFF, 0xEE]);
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 16 + 3);
        assert_eq!(buf[15..], [0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0xC0, 0xFF, 0xEE]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0x1234);
        assert_eq!(r.take_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0102030405060708);
        assert_eq!(r.take_u128().unwrap(), 0x1112_1314_1516_1718_191A_1B1C_1D1E_1F20);
        assert_eq!(r.take::<[u8; 3]>().unwrap(), [0xC0, 0xFF, 0xEE]);
        r.finish().unwrap();
        assert!(<[u8; 4]>::from_wire(&[1, 2, 3]).is_err());
    }

    #[test]
    fn bytes_round_trip() {
        let mut w = WireWriter::new();
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_bytes().unwrap(), b"hello");
        assert_eq!(r.take_bytes().unwrap(), b"");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf[..5]);
        assert!(r.take_u64().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        let _ = r.take_u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::new("trailing bytes")));
    }

    #[test]
    fn sequences_round_trip() {
        let items: Vec<u32> = vec![1, 2, 3, 500];
        let mut w = WireWriter::new();
        w.put_seq(&items);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_seq::<u32>().unwrap(), items);
    }

    #[test]
    fn absurd_sequence_length_rejected() {
        let mut w = WireWriter::new();
        w.put_len((1 << 62) - 1); // claimed length
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert!(r.take_seq::<u64>().is_err());
    }

    #[test]
    fn options_round_trip() {
        let mut w = WireWriter::new();
        w.put_opt(&Some(9u32));
        w.put_opt::<u32>(&None);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_opt::<u32>().unwrap(), Some(9));
        assert_eq!(r.take_opt::<u32>().unwrap(), None);
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let mut r = WireReader::new(&[7]);
        assert!(r.take_opt::<u32>().is_err());
    }

    #[test]
    fn bool_round_trip_and_validation() {
        let mut w = WireWriter::new();
        w.put(&true);
        w.put(&false);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert!(r.take::<bool>().unwrap());
        assert!(!r.take::<bool>().unwrap());
        let mut bad = WireReader::new(&[9]);
        assert!(bad.take::<bool>().is_err());
    }

    #[test]
    fn to_wire_is_exactly_sized() {
        let v: Vec<u8> = vec![1, 2, 3];
        let buf = v.to_wire();
        assert_eq!(buf.len(), v.encoded_len());
        assert_eq!(buf.capacity(), v.encoded_len(), "pre-sized, no reallocation");
    }

    /// A value nesting options and sequences in each other.
    struct Tree {
        label: Option<Vec<u8>>,
        children: Vec<Tree>,
    }

    impl WireEncode for Tree {
        fn encode<W: WireSink>(&self, w: &mut W) {
            w.put_opt(&self.label);
            w.put_seq(&self.children);
        }
    }

    /// Runs `$write` against a `WireWriter` and a `WireLen` bound to the
    /// same name, and checks the count is the writer's length.
    macro_rules! counts_as_written {
        ($w:ident => $write:expr) => {{
            let mut $w = WireWriter::new();
            $write;
            let written = $w.len();
            assert_eq!(WireLen::of(|$w| $write), written, "{}", stringify!($write));
        }};
    }

    #[test]
    fn the_counter_counts_what_the_writer_appends() {
        let leaf = |label: Option<&[u8]>| Tree { label: label.map(<[u8]>::to_vec), children: vec![] };
        let tree = Tree {
            label: None,
            children: vec![
                leaf(Some(b"ab")),
                Tree { label: Some(vec![]), children: vec![leaf(None), leaf(Some(&[7; 9]))] },
            ],
        };
        counts_as_written!(w => w.put_raw(&[]));
        counts_as_written!(w => w.put_raw(&[1, 2, 3]));
        counts_as_written!(w => w.put_u8(0xAB));
        counts_as_written!(w => w.put_u16(0x1234));
        counts_as_written!(w => w.put_u32(0xDEADBEEF));
        counts_as_written!(w => w.put_u64(u64::MAX));
        counts_as_written!(w => w.put_u128(u128::MAX));
        counts_as_written!(w => w.put(&[7u8; 32]));
        for len in [0, 63, 64, 16_383, 16_384, (1 << 30) - 1, 1 << 30, (1 << 62) - 1] {
            counts_as_written!(w => w.put_len(len));
        }
        counts_as_written!(w => w.put_bytes(b""));
        counts_as_written!(w => w.put_bytes(b"hello"));
        counts_as_written!(w => w.put(&true));
        counts_as_written!(w => w.put(&9u16));
        counts_as_written!(w => w.put(&vec![1u8, 2, 3]));
        counts_as_written!(w => w.put_seq::<u64>(&[]));
        counts_as_written!(w => w.put_seq(&[1u32, 2, 3]));
        counts_as_written!(w => w.put_seq(&[vec![1u8], vec![], vec![2; 300]]));
        counts_as_written!(w => w.put_opt::<u32>(&None));
        counts_as_written!(w => w.put_opt(&Some(5u64)));
        counts_as_written!(w => w.put_opt(&Some(vec![4u8; 17])));
        counts_as_written!(w => w.put(&tree));
        let forest = [leaf(None), tree];
        counts_as_written!(w => w.put_seq(&forest));
        assert_eq!(Tree { label: None, children: vec![] }.encoded_len(), 1 + 1);
    }

    #[derive(Debug, PartialEq)]
    struct Header {
        id: u32,
        tags: Vec<u16>,
        reply: Option<u8>,
    }
    crate::wire_format!(Header { id, tags: seq, reply: opt });

    #[derive(Debug, PartialEq)]
    struct Pair(u8, Vec<u8>);
    crate::wire_format!(Pair(a, b));

    #[derive(Debug, PartialEq)]
    struct Batch<T> {
        items: Vec<T>,
        last: bool,
    }
    crate::wire_format!(Batch<T> { items: seq, last });

    #[derive(Debug, PartialEq)]
    enum Frame {
        Head { header: Header, more: Option<Pair> },
        Body(u64, Vec<Pair>),
        End,
    }
    crate::wire_format!(enum Frame, "unknown frame" {
        1 => Head { header, more: opt },
        2 => Body(seq_no, pairs: seq),
        7 => End,
    });

    /// Every form of `wire_format!`, with `seq` and `opt` fields: the
    /// exact bytes, the round trip, and the refusals.
    #[test]
    fn wire_format_writes_and_reads_the_listed_fields_in_order() {
        let header = Header { id: 0x0102_0304, tags: vec![5, 6], reply: Some(7) };
        let header_image = [1, 2, 3, 4, 2, 0, 5, 0, 6, 1, 7];
        let cases = [
            (Frame::Head { header, more: None }, [&[1][..], &header_image, &[0]].concat()),
            (
                Frame::Body(9, vec![Pair(1, vec![]), Pair(2, vec![3])]),
                vec![2, 0, 0, 0, 0, 0, 0, 0, 9, 2, 1, 0, 2, 1, 3],
            ),
            (Frame::End, vec![7]),
        ];
        for (frame, image) in cases {
            assert_eq!(frame.to_wire(), image, "{frame:?}");
            assert_eq!(frame.encoded_len(), image.len());
            assert_eq!(Frame::from_wire(&image), Ok(frame));
            let cut = &image[..image.len() - 1];
            assert_eq!(Frame::from_wire(cut), Err(WireError::new("truncated input")), "{cut:?}");
            assert_eq!(Frame::from_wire(&[&image[..], &[0]].concat()), Err(WireError::new("trailing bytes")));
        }
        assert_eq!(Frame::from_wire(&[3]), Err(WireError::new("unknown frame")));
        let batch = Batch { items: vec![Pair(4, vec![5])], last: true };
        assert_eq!(batch.to_wire(), [1, 4, 1, 5, 1]);
        assert_eq!(Batch::from_wire(&[1, 4, 1, 5, 1]), Ok(batch));
        assert_eq!(Batch::<u8>::from_wire(&[0, 2]), Err(WireError::new("invalid bool")));
        assert_eq!(Header::from_wire(&[0, 0, 0, 1, 0, 9]), Err(WireError::new("invalid option tag")));
    }

    #[test]
    fn f64_travels_as_its_bits() {
        assert_eq!(1.25f64.to_wire(), [0x3F, 0xF4, 0, 0, 0, 0, 0, 0]);
        assert_eq!(f64::from_wire(&(-7.5f64).to_wire()), Ok(-7.5));
    }

    #[test]
    fn to_wire_from_wire_round_trip() {
        let v = 123456u64;
        let buf = v.to_wire();
        assert_eq!(u64::from_wire(&buf).unwrap(), v);
        assert!(u64::from_wire(&buf[..3]).is_err());
    }
}
