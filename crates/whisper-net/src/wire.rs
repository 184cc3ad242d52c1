//! A compact hand-rolled binary codec.
//!
//! Every message placed on the simulated wire is really serialized with
//! this codec, so bandwidth measurements reflect actual byte counts rather
//! than estimates. Integers are big-endian; variable-length fields carry
//! explicit length prefixes.
//!
//! ```
//! use whisper_net::wire::{WireReader, WireWriter, WireEncode, WireDecode};
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

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a length-prefixed byte string (`u32` length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends an encodable value.
    pub fn put<T: WireEncode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Appends a length-prefixed sequence of encodable values.
    pub fn put_seq<T: WireEncode>(&mut self, items: &[T]) {
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }

    /// Appends an optional value as a presence byte plus the value.
    pub fn put_opt<T: WireEncode>(&mut self, v: &Option<T>) {
        match v {
            Some(inner) => {
                self.put_u8(1);
                inner.encode(self);
            }
            None => self.put_u8(0),
        }
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

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.take_u32()? as usize;
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
    /// The length is sanity-checked against the remaining input so a
    /// corrupted prefix cannot trigger an enormous allocation.
    pub fn take_seq<T: WireDecode>(&mut self) -> Result<Vec<T>, WireError> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            // Every element occupies at least one byte.
            return Err(WireError::new("sequence length exceeds input"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Reads an optional value written by [`WireWriter::put_opt`].
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

/// Exact wire size of a length-prefixed byte string
/// ([`WireWriter::put_bytes`]).
pub const fn bytes_len(v: &[u8]) -> usize {
    4 + v.len()
}

/// Exact wire size of a length-prefixed sequence
/// ([`WireWriter::put_seq`]).
pub fn seq_len<T: WireEncode>(items: &[T]) -> usize {
    4 + items.iter().map(T::encoded_len).sum::<usize>()
}

/// Exact wire size of an optional value ([`WireWriter::put_opt`]).
pub fn opt_len<T: WireEncode>(v: &Option<T>) -> usize {
    1 + v.as_ref().map_or(0, T::encoded_len)
}

/// Types serializable with the wire codec.
pub trait WireEncode {
    /// Appends this value to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Exact number of bytes [`WireEncode::encode`] will append — the
    /// contract every implementation must uphold so writers can pre-size
    /// buffers precisely (checked by a debug assertion in
    /// [`WireEncode::to_wire`] and the engine's pooled encode path). The
    /// helpers [`bytes_len`], [`seq_len`] and [`opt_len`] mirror the
    /// variable-length writer methods.
    fn encoded_len(&self) -> usize;

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
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        }
        impl WireDecode for $ty {
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

impl WireEncode for Vec<u8> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn encoded_len(&self) -> usize {
        bytes_len(self)
    }
}

impl WireDecode for Vec<u8> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take_bytes()?.to_vec())
    }
}

impl WireEncode for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
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
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 1 + 2 + 4 + 8);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0x1234);
        assert_eq!(r.take_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0102030405060708);
        r.finish().unwrap();
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
        w.put_u32(u32::MAX); // claimed length
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
        assert_eq!(bytes_len(b"abc"), 7);
        assert_eq!(seq_len(&[1u32, 2, 3]), 4 + 12);
        assert_eq!(opt_len(&Some(7u64)), 9);
        assert_eq!(opt_len::<u64>(&None), 1);
    }

    #[test]
    fn to_wire_from_wire_round_trip() {
        let v = 123456u64;
        let buf = v.to_wire();
        assert_eq!(u64::from_wire(&buf).unwrap(), v);
        assert!(u64::from_wire(&buf[..3]).is_err());
    }
}
