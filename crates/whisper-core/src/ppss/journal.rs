//! Append-only group journal: the node's "disk".
//!
//! The simulator keeps protocol objects alive across a crash-restart (the
//! object *is* the machine; `on_crash_restart` models the reboot), so
//! durable state is whatever a protocol deliberately carries across that
//! call. This module makes the durable/volatile split honest for PPSS
//! group state: every group change is appended here as a length-prefixed,
//! checksummed record, and [`crate::ppss::Ppss::on_restart`] rebuilds its
//! group table **only** from a journal replay — in-memory state that was
//! never journaled is lost, exactly like a process that forgot to fsync.
//!
//! ## Record framing
//!
//! ```text
//! [len (v)] [8-byte checksum = Sha256(payload)[..8]] [payload; len bytes]
//! ```
//!
//! `(v)` is the wire codec's length prefix, [`WireSink::put_len`]: 1 byte
//! below 64, 2 below 16 384.
//!
//! Payload contents are opaque to the journal: the PPSS layer writes its
//! `Record`s (`ppss/lifecycle.rs`) there with the wire codec.
//!
//! ## Crash recovery
//!
//! A crash can leave the tail half-written (truncation) and stray writes
//! can damage any byte (corruption). [`Journal::replay`] scans from the
//! start and salvages the longest valid prefix:
//!
//! * a header or body extending past the end of the buffer stops the scan
//!   and counts as **truncated** (this also covers a corrupted length
//!   field that inflates `len` past the buffer — indistinguishable from
//!   truncation without trusting the very field that is in doubt),
//! * a checksum mismatch, or a length prefix no writer writes (one wider
//!   than its value needs), stops the scan and counts as **corrupt**
//!   (framing after a damaged record cannot be trusted, so nothing past
//!   it is salvaged).
//!
//! Both outcomes are deterministic functions of the byte buffer, so
//! replicas recovering from identical "disks" converge byte-identically.

use whisper_net::wire::{WireError, WireReader, WireSink, WireWriter};

/// Bytes of a record's checksum.
const CHECKSUM: usize = 8;

/// An append-only, checksummed record log in a plain byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    buf: Vec<u8>,
    /// Where the latest [checkpoint](Self::checkpoint_with) starts: what
    /// the next one may drop. Bookkeeping of the running process, not of
    /// the "disk" — zero for a mounted image.
    checkpoint_at: usize,
}

/// Outcome of a [`Journal::replay`]: the salvaged records plus an exact
/// attribution of everything that was *not* salvaged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Payloads of the valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// 1 if the scan stopped on a truncated tail (header or body running
    /// past the end of the buffer), else 0.
    pub truncated: u64,
    /// 1 if the scan stopped on a checksum mismatch, else 0.
    pub corrupt: u64,
    /// Bytes of the valid prefix (offset where the scan stopped).
    pub salvaged_bytes: usize,
}

fn checksum(payload: &[u8]) -> [u8; CHECKSUM] {
    let digest = whisper_crypto::sha256::Sha256::digest(payload);
    digest[..8].try_into().expect("8 bytes")
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// The raw on-"disk" bytes.
    pub fn raw(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access to the raw bytes — exists so fault-injection tests
    /// can flip bits and cut tails the way real storage does.
    pub fn raw_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Bytes currently in the journal.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Whether the journal holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one record: `put_len(len) ‖ checksum ‖ payload`.
    pub fn append(&mut self, payload: &[u8]) {
        let mut header = WireWriter::with_capacity(8 + CHECKSUM);
        header.put_len(payload.len());
        header.put_raw(&checksum(payload));
        self.buf.reserve(header.len() + payload.len());
        self.buf.extend_from_slice(&header.into_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Drops everything and re-appends `records` — compaction, used once
    /// a replayer has folded the log into its latest state.
    pub fn reset_with<'a>(&mut self, records: impl IntoIterator<Item = &'a [u8]>) {
        self.buf.clear();
        self.checkpoint_with(records);
    }

    /// Appends `records` — a full snapshot of the replayer's state — as a
    /// checkpoint, dropping everything before the previous checkpoint.
    /// The journal so holds two checkpoints and what was appended between
    /// and after them, however long it has been written to, and a damaged
    /// tail still leaves a whole older snapshot in the valid prefix.
    /// Capacity beyond twice the new size goes back to the allocator: a
    /// node does not hold its longest history for life.
    pub fn checkpoint_with<'a>(&mut self, records: impl IntoIterator<Item = &'a [u8]>) {
        self.buf.drain(..self.checkpoint_at.min(self.buf.len()));
        self.checkpoint_at = self.buf.len();
        for r in records {
            self.append(r);
        }
        self.buf.shrink_to(2 * self.buf.len());
    }

    /// Bytes of storage the journal holds on to (diagnostics).
    pub fn capacity_bytes(&self) -> usize {
        self.buf.capacity()
    }

    /// Scans the journal from the start, salvaging the longest valid
    /// prefix (see the module docs for the exact truncation/corruption
    /// attribution rules).
    pub fn replay(&self) -> Recovery {
        let mut out = Recovery::default();
        let mut pos = 0usize;
        while pos < self.buf.len() {
            let mut r = WireReader::new(&self.buf[pos..]);
            let record = r.take_len().and_then(|len| Ok((r.take_raw(CHECKSUM)?, r.take_raw(len)?)));
            match record {
                Ok((sum, payload)) if checksum(payload) == sum => {
                    out.records.push(payload.to_vec());
                    pos = self.buf.len() - r.remaining();
                }
                Err(e) if e == WireError::new("truncated input") => {
                    out.truncated = 1;
                    break;
                }
                // A checksum mismatch, or a length in a form no writer writes.
                _ => {
                    out.corrupt = 1;
                    break;
                }
            }
        }
        out.salvaged_bytes = pos.min(self.buf.len());
        // `pos` stopped either at the end (clean) or at the first bad
        // record; in the clean case salvaged == len_bytes.
        if out.truncated == 0 && out.corrupt == 0 {
            debug_assert_eq!(out.salvaged_bytes, self.buf.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_net::wire::WireLen;
    use whisper_rand::check::check;
    use whisper_rand::Rng;

    /// Bytes of the header of a record of `len` payload bytes.
    fn header(len: usize) -> usize {
        WireLen::of(|n| n.put_len(len)) + CHECKSUM
    }

    fn journal_of(records: &[&[u8]]) -> Journal {
        let mut j = Journal::new();
        for r in records {
            j.append(r);
        }
        j
    }

    #[test]
    fn empty_journal_replays_clean() {
        let r = Journal::new().replay();
        assert_eq!(r, Recovery::default());
    }

    #[test]
    fn append_replay_round_trip() {
        let j = journal_of(&[b"alpha", b"", b"gamma-longer-record"]);
        let r = j.replay();
        assert_eq!(r.records, vec![b"alpha".to_vec(), vec![], b"gamma-longer-record".to_vec()]);
        assert_eq!((r.truncated, r.corrupt), (0, 0));
        assert_eq!(r.salvaged_bytes, j.len_bytes());
    }

    #[test]
    fn truncated_header_salvages_prefix() {
        let mut j = journal_of(&[b"keep", b"lost"]);
        let keep_len = header(4) + 4;
        j.raw_mut().truncate(keep_len + 5); // mid-header of record 2
        let r = j.replay();
        assert_eq!(r.records, vec![b"keep".to_vec()]);
        assert_eq!((r.truncated, r.corrupt), (1, 0));
        assert_eq!(r.salvaged_bytes, keep_len);
    }

    #[test]
    fn truncated_body_salvages_prefix() {
        let mut j = journal_of(&[b"keep", b"lost"]);
        let total = j.len_bytes();
        j.raw_mut().truncate(total - 2); // mid-body of record 2
        let r = j.replay();
        assert_eq!(r.records, vec![b"keep".to_vec()]);
        assert_eq!((r.truncated, r.corrupt), (1, 0));
    }

    #[test]
    fn bit_flip_in_body_is_corrupt_and_stops_the_scan() {
        let mut j = journal_of(&[b"keep", b"damaged", b"unreachable"]);
        let flip_at = (header(4) + 4) + header(7) + 2; // byte inside record 2's body
        j.raw_mut()[flip_at] ^= 0x40;
        let r = j.replay();
        assert_eq!(r.records, vec![b"keep".to_vec()]);
        assert_eq!((r.truncated, r.corrupt), (0, 1));
        assert_eq!(r.salvaged_bytes, header(4) + 4);
    }

    #[test]
    fn bit_flip_in_checksum_is_corrupt() {
        let mut j = journal_of(&[b"only"]);
        j.raw_mut()[header(4) - 1] ^= 0x01; // checksum byte
        let r = j.replay();
        assert!(r.records.is_empty());
        assert_eq!((r.truncated, r.corrupt), (0, 1));
    }

    #[test]
    fn inflated_length_field_reads_as_truncation() {
        let mut j = journal_of(&[b"keep", b"x"]);
        let len_at = header(4) + 4; // record 2's length field
        j.raw_mut()[len_at] = 0xFF; // len explodes past the buffer
        let r = j.replay();
        assert_eq!(r.records, vec![b"keep".to_vec()]);
        assert_eq!((r.truncated, r.corrupt), (1, 0));
    }

    #[test]
    fn checkpoints_keep_two_generations() {
        let mut j = journal_of(&[b"old", b"older"]);
        j.checkpoint_with([b"gen1".as_slice()]);
        j.append(b"event");
        assert_eq!(j.replay().records.len(), 4, "the first checkpoint drops nothing");
        j.checkpoint_with([b"gen2".as_slice()]);
        assert_eq!(j.replay().records, vec![b"gen1".to_vec(), b"event".to_vec(), b"gen2".to_vec()]);
        j.checkpoint_with([b"gen3".as_slice()]);
        assert_eq!(j.replay().records, vec![b"gen2".to_vec(), b"gen3".to_vec()]);
        // A damaged last record leaves the checkpoint before it.
        let len = j.len_bytes();
        j.raw_mut()[len - 1] ^= 1;
        assert_eq!(j.replay().records, vec![b"gen2".to_vec()]);
        // A tail cut behind the bookkeeping's back is tolerated.
        j.raw_mut().truncate(3);
        j.checkpoint_with([b"gen4".as_slice()]);
        assert_eq!(j.replay().records, vec![b"gen4".to_vec()]);
        assert!(j.capacity_bytes() <= 2 * j.len_bytes());
    }

    #[test]
    fn reset_with_compacts() {
        let mut j = journal_of(&[b"a", b"b", b"c"]);
        let before = j.len_bytes();
        j.reset_with([b"merged".as_slice()]);
        assert!(j.len_bytes() < before);
        assert_eq!(j.replay().records, vec![b"merged".to_vec()]);
    }

    /// The verify.sh journal-corruption property test: random record
    /// streams under random truncation always salvage a prefix of what
    /// was written, deterministically.
    #[test]
    fn journal_truncation_salvages_a_valid_prefix() {
        check(200, "journal_truncation_salvages_a_valid_prefix", |g| {
            let n = g.gen_range(0..8usize);
            let records: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(40)).collect();
            let mut j = Journal::new();
            for r in &records {
                j.append(r);
            }
            let cut = g.gen_range(0..=j.len_bytes());
            j.raw_mut().truncate(cut);
            let r = j.replay();
            assert!(
                r.records.len() <= records.len()
                    && r.records[..] == records[..r.records.len()],
                "salvage must be a prefix of what was written"
            );
            assert!(r.corrupt == 0, "a pure cut is truncation, never corruption");
            assert_eq!(r.truncated, u64::from(r.salvaged_bytes != j.len_bytes()));
            // Determinism: replaying the same bytes twice is identical.
            assert_eq!(j.replay(), r);
        });
    }

    /// Companion property: random single-bit flips never let a damaged
    /// record through — the salvage is still a prefix of the original
    /// records and the damage is attributed (truncated or corrupt).
    #[test]
    fn journal_bit_flips_never_leak_damaged_records() {
        check(200, "journal_bit_flips_never_leak_damaged_records", |g| {
            let n = g.gen_range(1..8usize);
            let records: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(40)).collect();
            let mut j = Journal::new();
            for r in &records {
                j.append(r);
            }
            let flip_at = g.gen_range(0..j.len_bytes());
            let bit = 1u8 << g.gen_range(0..8u32);
            j.raw_mut()[flip_at] ^= bit;
            let r = j.replay();
            assert!(
                r.records.len() <= records.len()
                    && r.records[..] == records[..r.records.len()],
                "every salvaged record must be an original record, in order"
            );
            assert_eq!(
                r.truncated + r.corrupt,
                1,
                "a flipped bit always stops the scan with attribution"
            );
            assert_eq!(j.replay(), r, "recovery is deterministic");
        });
    }
}
