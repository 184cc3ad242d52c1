//! Circuit amortization for onion routes: per-hop AES link keys that
//! remove RSA from the steady-state forwarding path.
//!
//! The paper's cost breakdown (Fig. 7, Table II) shows per-message RSA
//! dominating WCL crypto cost: every packet pays 3 hybrid seals at the
//! source and one RSA decrypt per hop, even when the same `S → A → B → D`
//! route is reused across a conversation. This module amortizes that the
//! way Tor and VPO-style overlays do:
//!
//! * The **first** packet on a route travels as a normal RSA onion whose
//!   layers additionally carry, for each hop, a [`HopSetup`]: a fresh
//!   AES-128 link key plus two local circuit ids (inbound and, for
//!   relays, outbound).
//! * Each hop stores `cid_in → (key, next hop, cid_out)` in a bounded,
//!   TTL'd [`CircuitTable`].
//! * **Subsequent** packets are layered AES-CTR only: the source applies
//!   one CTR layer per hop ([`SourceCircuit::seal_in_place`]); each relay
//!   strips exactly one ([`CircuitEntry::peel_in_place`]) and forwards
//!   under its outbound circuit id.
//!
//! # Unlinkability
//!
//! Relationship anonymity must not regress relative to the RSA-only
//! path, where a mix's two links already share no ciphertext bytes.
//! Three per-hop re-randomizations keep that true here:
//!
//! * **Circuit ids are per-hop local**: each hop sees its own `cid_in`
//!   and forwards under an independently drawn `cid_out` (as in Tor), so
//!   ids on adjacent links never match.
//! * **Nonces are chained**, not forwarded: hop `i + 1` receives
//!   `SHA-256(nonce_i)` truncated to 64 bits ([`next_nonce`]), so the
//!   nonce field also differs on every link while each hop can still
//!   derive its own keystream position.
//! * **The body changes at every hop** because each relay strips one CTR
//!   layer — unlike the RSA path, where the body is forwarded verbatim
//!   and only the header changes.
//!
//! Every field of a circuit packet — id, nonce, ciphertext — is therefore
//! bitwise unlinkable across hops; the regression test in
//! `tests/threat_model.rs` asserts exactly this.
//!
//! # The return direction
//!
//! A circuit is walked backwards over the same state: every hop also
//! remembers the neighbour the establishing onion came from, and a
//! [`Direction::Return`] packet enters a relay under the id the relay
//! *forwards* under (the table's second index), gains the relay's layer
//! and leaves for that neighbour under the relay's inbound id. Only the
//! source holds every link key, so only it can strip the layers
//! ([`SourceCircuit::open_return_in_place`]). The same three
//! re-randomizations hold:
//!
//! * the **ids** are the link-local ones of the way out, so they differ
//!   on every link;
//! * the **nonce** moves by a per-hop step derived from the link key
//!   ([`CircuitEntry::return_nonce`]) — a hash chain would leave the
//!   source, which receives the *last* nonce, unable to recover the
//!   earlier ones, while a keyed step it can simply subtract. (The step is
//!   constant for a circuit: whoever watches both links of a relay can
//!   match two packets' nonce *differences*, as it can match their
//!   lengths and timing; the nonces themselves share nothing.)
//! * the **body** gains one CTR layer per hop.
//!
//! Under one link key the two directions draw from disjoint halves of
//! the counter space ([`Direction`]), so no `(key, nonce, counter)`
//! triple — hence no keystream block — can serve both, whatever the
//! nonces are.
//!
//! # State per circuit
//!
//! A relay's first touch of its own state for a packet is the table
//! look-up, on a node the simulator last ran thousands of events ago, so
//! what a circuit occupies is what a hop costs. A [`CircuitEntry`] is one
//! flat record — one expanded AES schedule (176 bytes, shared by every
//! kernel and by both directions), the two neighbours' addresses inline,
//! the outbound id, the return step — and the [`CircuitTable`] keeps the
//! entries themselves in a queue in insertion order, which is expiry
//! order, with two sorted id indices beside it for look-ups: no tree, no
//! heap block per entry (DESIGN.md §9).
//!
//! This module is deliberately free of networking types: time is a plain
//! microsecond count and next-hop addresses are opaque bytes, so the WCL
//! layer above owns all policy (TTLs, capacities, when to rebuild).

use crate::aes::{Aes128, AesKey, CtrNonce};
use crate::sha256::Sha256;
use std::collections::VecDeque;
use whisper_rand::Rng;

/// A local circuit identifier, meaningful only on one link. 64 bits keeps
/// accidental collision probability negligible at any realistic table
/// size while staying cheap on the wire.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CircuitId(pub [u8; 8]);

impl CircuitId {
    /// Draws a uniformly random id.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        let mut id = [0u8; 8];
        rng.fill(&mut id);
        CircuitId(id)
    }
}

impl std::fmt::Debug for CircuitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cid:{:016x}", u64::from_be_bytes(self.0))
    }
}

/// Wire size of a relay-hop [`HopSetup`] (`cid_in ‖ cid_out ‖ key`).
pub const RELAY_SETUP_LEN: usize = 8 + 8 + 16;
/// Wire size of a destination [`HopSetup`] (`cid_in ‖ key`).
pub const DEST_SETUP_LEN: usize = 8 + 16;

/// The key material one hop extracts from its onion layer during circuit
/// establishment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopSetup {
    /// The circuit id under which this hop will receive packets.
    pub cid_in: CircuitId,
    /// The circuit id under which this hop forwards (`None` at the
    /// destination).
    pub cid_out: Option<CircuitId>,
    /// The per-hop AES-128 link key.
    pub key: AesKey,
}

impl HopSetup {
    /// Encodes for embedding in an onion layer extension. Relay and
    /// destination forms are distinguished by length alone, so a hop
    /// learns nothing extra from the encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RELAY_SETUP_LEN);
        out.extend_from_slice(&self.cid_in.0);
        if let Some(cid_out) = self.cid_out {
            out.extend_from_slice(&cid_out.0);
        }
        out.extend_from_slice(&self.key.0);
        out
    }

    /// Decodes an onion-layer extension; `None` for foreign lengths.
    pub fn decode(bytes: &[u8]) -> Option<HopSetup> {
        let (cid_in, cid_out, key_bytes) = match bytes.len() {
            RELAY_SETUP_LEN => (&bytes[..8], Some(&bytes[8..16]), &bytes[16..]),
            DEST_SETUP_LEN => (&bytes[..8], None, &bytes[8..]),
            _ => return None,
        };
        let mut cid = [0u8; 8];
        cid.copy_from_slice(cid_in);
        let cid_out = cid_out.map(|b| {
            let mut c = [0u8; 8];
            c.copy_from_slice(b);
            CircuitId(c)
        });
        let mut key = [0u8; 16];
        key.copy_from_slice(key_bytes);
        Some(HopSetup { cid_in: CircuitId(cid), cid_out, key: AesKey(key) })
    }
}

/// The source's view of an established circuit: the id the first hop
/// listens on and the link keys in forwarding order.
///
/// Like a relay's [`CircuitEntry`], it expands each link key's schedule
/// once, at [`establish`], so sealing a packet costs CTR work only.
#[derive(Clone, Debug)]
pub struct SourceCircuit {
    /// Circuit id of the first hop's inbound link.
    pub first_cid: CircuitId,
    /// Per-hop link keys, `keys[0]` = first hop … `keys[n-1]` =
    /// destination.
    pub keys: Vec<AesKey>,
    /// `ciphers[i]` is the expanded schedule of `keys[i]`.
    ciphers: Vec<Aes128>,
    /// `return_steps[i]` is what hop `i` adds to a return packet's nonce.
    return_steps: Vec<u64>,
}

impl SourceCircuit {
    /// Applies the source-side layering to `body` where it lies — CTR
    /// layers are length-preserving — under the schedules cached at
    /// establishment: what [`seal_layers`] computes from the bare keys.
    pub fn seal_in_place(&self, nonce0: &CtrNonce, body: &mut [u8]) {
        innermost_layer_first(self.ciphers.len(), nonce0, |hop, nonce| {
            self.ciphers[hop].ctr_apply_in_place(nonce, body);
        });
    }

    /// Strips every hop's layer from the body of a return packet that
    /// reached the source under the nonce `received`: the first hop's —
    /// the last one applied — first, each under the nonce that hop sent
    /// the packet on with, which is the next one's minus this one's step.
    pub fn open_return_in_place(&self, received: &CtrNonce, body: &mut [u8]) {
        let mut nonce = u64::from_be_bytes(received.0);
        for (cipher, step) in self.ciphers.iter().zip(&self.return_steps) {
            let at = CtrNonce(nonce.to_be_bytes());
            cipher.ctr_apply_in_place_at(&at, Direction::Return.first_block(), body);
            nonce = nonce.wrapping_sub(*step);
        }
    }
}

/// Which way a packet travels a circuit: from the source that established
/// it, or back towards it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Source to destination: every hop strips a layer.
    Forward,
    /// Destination to source: every hop adds a layer.
    Return,
}

impl Direction {
    /// The counter block a packet's keystream starts at. A body is far
    /// shorter than 2⁶³ blocks, so under one link key the two directions
    /// use disjoint halves of every nonce's keystream.
    const fn first_block(self) -> u64 {
        match self {
            Direction::Forward => 0,
            Direction::Return => 1 << 63,
        }
    }
}

/// What the hop holding `key` adds to the nonce of a return packet: 64
/// bits only the source and that hop can compute.
fn return_step(key: &AesKey) -> u64 {
    let mut labelled = *b"wcl-return-step\0................";
    labelled[16..].copy_from_slice(&key.0);
    let digest = Sha256::digest(&labelled);
    u64::from_be_bytes(digest[..8].try_into().expect("8 of 32 bytes"))
}

/// Draws fresh circuit state for an `n_hops` route: the source keeps the
/// [`SourceCircuit`], and `setups[i]` goes into hop `i`'s onion layer.
///
/// Every id and key is independently random — no hop can correlate its
/// ids or key with another hop's.
///
/// # Panics
///
/// Panics if `n_hops` is zero.
pub fn establish<R: Rng>(n_hops: usize, rng: &mut R) -> (SourceCircuit, Vec<HopSetup>) {
    assert!(n_hops >= 1, "a circuit needs at least one hop");
    let cids: Vec<CircuitId> = (0..n_hops).map(|_| CircuitId::random(rng)).collect();
    let keys: Vec<AesKey> = (0..n_hops).map(|_| AesKey::random(rng)).collect();
    let setups = (0..n_hops)
        .map(|i| HopSetup {
            cid_in: cids[i],
            cid_out: cids.get(i + 1).copied(),
            key: keys[i],
        })
        .collect();
    let ciphers = keys.iter().map(Aes128::new).collect();
    let return_steps = keys.iter().map(return_step).collect();
    (SourceCircuit { first_cid: cids[0], keys, ciphers, return_steps }, setups)
}

/// Derives the nonce the next hop will use: `SHA-256(nonce)` truncated to
/// 64 bits. Chaining (instead of forwarding the same nonce) makes the
/// nonce field unlinkable across links while keeping every hop's
/// keystream position deterministic.
pub fn next_nonce(nonce: &CtrNonce) -> CtrNonce {
    let digest = Sha256::digest(&nonce.0);
    let mut n = [0u8; 8];
    n.copy_from_slice(&digest[..8]);
    CtrNonce(n)
}

/// Applies the source-side layering: one CTR pass per hop, innermost
/// (destination) first, so that hop `i` — peeling with `keys[i]` and the
/// `i`-th nonce in the [`next_nonce`] chain from `nonce0` — strips
/// exactly the outermost remaining layer.
///
/// The reference form — a copy of the payload, every schedule expanded
/// on the spot — that [`SourceCircuit::seal_in_place`], which the stack
/// seals with, is tested against.
pub fn seal_layers(keys: &[AesKey], nonce0: &CtrNonce, payload: &[u8]) -> Vec<u8> {
    let mut body = payload.to_vec();
    innermost_layer_first(keys.len(), nonce0, |hop, nonce| {
        Aes128::new(&keys[hop]).ctr_apply_in_place(nonce, &mut body);
    });
    body
}

/// Walks the layers of an `n_hops` circuit in sealing order — the
/// destination's first, the first hop's last — handing `layer` each hop
/// index with its nonce from the [`next_nonce`] chain.
fn innermost_layer_first(
    n_hops: usize,
    nonce0: &CtrNonce,
    mut layer: impl FnMut(usize, &CtrNonce),
) {
    let mut stack = [CtrNonce([0; 8]); 8];
    let mut heap; // paths longer than 8 hops fall back to a Vec
    let chain: &mut [CtrNonce] = if n_hops <= stack.len() {
        &mut stack[..n_hops]
    } else {
        heap = vec![CtrNonce([0; 8]); n_hops];
        &mut heap
    };
    let mut nonce = *nonce0;
    for (hop, slot) in chain.iter_mut().enumerate() {
        if hop > 0 {
            nonce = next_nonce(&nonce);
        }
        *slot = nonce;
    }
    for (hop, nonce) in chain.iter().enumerate().rev() {
        layer(hop, nonce);
    }
}

/// Longest hop address a [`CircuitEntry`] holds: the 9 bytes (node id ‖
/// public flag) WCL installs.
const INLINE_HOP_LEN: usize = 9;

/// What a hop remembers about one circuit.
///
/// The expanded AES key schedule is computed once at installation and
/// cached, so every subsequent packet on the circuit peels with zero
/// key-schedule work (the deterministic cost model is unaffected: only
/// CTR block work is accounted, never schedule expansion). An entry is
/// one flat record — schedule, both neighbours, outbound id, return step
/// — with nothing on the heap behind it, and serves both directions.
#[derive(Clone)]
pub struct CircuitEntry {
    next_hop: [u8; INLINE_HOP_LEN],
    next_len: u8,
    /// The neighbour the establishing onion came from; empty until
    /// [`CircuitEntry::reached_from`] says.
    prev_hop: [u8; INLINE_HOP_LEN],
    prev_len: u8,
    cid_out: Option<CircuitId>,
    return_step: u64,
    cipher: Aes128,
}

impl std::fmt::Debug for CircuitEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material (nor the cached schedule).
        f.debug_struct("CircuitEntry")
            .field("next_hop", &self.next_hop())
            .field("cid_out", &self.cid_out)
            .finish()
    }
}

impl CircuitEntry {
    /// Builds an entry, expanding and caching the link key's schedule.
    ///
    /// # Panics
    ///
    /// Panics if `next_hop` is longer than 9 bytes. It cannot be from the
    /// stack: WCL installs a relay's next hop only once it has parsed as
    /// a 9-byte hop address, and a destination's is empty.
    pub fn new(key: AesKey, next_hop: Vec<u8>, cid_out: Option<CircuitId>) -> CircuitEntry {
        assert!(next_hop.len() <= INLINE_HOP_LEN, "a next hop longer than a hop address");
        let mut next = [0; INLINE_HOP_LEN];
        next[..next_hop.len()].copy_from_slice(&next_hop);
        CircuitEntry {
            next_hop: next,
            next_len: next_hop.len() as u8,
            prev_hop: [0; INLINE_HOP_LEN],
            prev_len: 0,
            cid_out,
            return_step: return_step(&key),
            cipher: Aes128::new(&key),
        }
    }

    /// Records the neighbour the establishing onion came from, where
    /// return packets are handed on to. An address longer than the stack
    /// installs is not kept: the circuit then has no way back.
    pub fn reached_from(mut self, prev_hop: &[u8]) -> CircuitEntry {
        if prev_hop.len() <= INLINE_HOP_LEN {
            self.prev_hop[..prev_hop.len()].copy_from_slice(prev_hop);
            self.prev_len = prev_hop.len() as u8;
        }
        self
    }

    /// Opaque next-hop address (empty at the destination).
    pub fn next_hop(&self) -> &[u8] {
        &self.next_hop[..self.next_len as usize]
    }

    /// Opaque address of the previous hop (empty when none was recorded).
    pub fn prev_hop(&self) -> &[u8] {
        &self.prev_hop[..self.prev_len as usize]
    }

    /// Outbound circuit id (`None` at the destination).
    pub fn cid_out(&self) -> Option<CircuitId> {
        self.cid_out
    }

    /// Strips this circuit's layer from `body` where it lies, using the
    /// cached key schedule: one CTR pass, the entire steady-state crypto
    /// cost of a hop.
    pub fn peel_in_place(&self, nonce: &CtrNonce, body: &mut [u8]) {
        self.apply_in_place(Direction::Forward, nonce, body);
    }

    /// This hop's layer for a packet travelling in `direction` — stripped
    /// on the way out, added on the way back; in CTR the same pass.
    pub fn apply_in_place(&self, direction: Direction, nonce: &CtrNonce, body: &mut [u8]) {
        self.cipher.ctr_apply_in_place_at(nonce, direction.first_block(), body);
    }

    /// The nonce this hop applies its return layer under and hands a
    /// return packet on with, having received it under `received`. (The
    /// destination, which originates the packet, draws its own.)
    pub fn return_nonce(&self, received: &CtrNonce) -> CtrNonce {
        CtrNonce(u64::from_be_bytes(received.0).wrapping_add(self.return_step).to_be_bytes())
    }
}

/// One stored circuit.
#[derive(Debug)]
struct Slot<A> {
    expires_at_us: u64,
    cid: CircuitId,
    entry: CircuitEntry,
    attached: A,
}

/// A bounded, TTL'd map of `cid_in → CircuitEntry`, with deterministic
/// insertion-order eviction.
///
/// The TTL is one constant and callers' clocks only move forward, so
/// insertion order is expiry order, and a queue of the circuits in that
/// order *is* the store: one contiguous ring of flat slots, swept
/// from the front, filled at the back. Beside it two dense indices,
/// sorted by id, map an id to a position in the queue and serve look-ups
/// only — the inbound id of every circuit for packets on their way out,
/// the outbound id of every relayed one for packets on their way back.
/// Nothing ever iterates them, so behavior cannot depend on the order of
/// ids (see DESIGN.md § "Determinism & randomness"), and a sorted vector
/// has no worst case an id chosen by a hostile source could reach.
///
/// Every [`CircuitTable::insert`] first pops the expired prefix of the
/// queue, and the table therefore holds live circuits only — a source
/// re-establishes every half TTL under fresh ids and never names the old
/// ones again, so without the sweep they would pile up to the capacity
/// bound and every lookup would search among dead entries. A
/// [`CircuitTable::lookup`] is one binary search and one slot; it still
/// compares the entry's own expiry, so an entry past its time is never
/// returned even before the next insert collects it.
///
/// A slot also holds one `A`, born as `A::default()`, for whatever the
/// layer above keeps per circuit ([`CircuitTable::slot_mut`]): it leaves
/// with the slot, whichever way the slot leaves.
#[derive(Debug)]
pub struct CircuitTable<A = ()> {
    cap: usize,
    ttl_us: u64,
    /// Exactly the stored circuits, oldest insertion first.
    slots: VecDeque<Slot<A>>,
    /// Sequence number of `slots[0]`: slot `i` has number `head_seq + i`,
    /// which stays true of the slots behind it when the front is popped.
    head_seq: u64,
    /// `(cid as a big-endian integer, sequence number of its slot)`,
    /// sorted; one element per slot.
    by_cid_in: Vec<(u64, u64)>,
    /// The same for the outbound id of every slot that has one. Inbound
    /// ids are unique (a re-insert replaces); outbound ids are whatever a
    /// source wrote into its setups, so two slots may share one — the
    /// older of them answers.
    by_cid_out: Vec<(u64, u64)>,
}

/// A circuit id as an index key.
fn index_key(cid: CircuitId) -> u64 {
    u64::from_be_bytes(cid.0)
}

impl<A: Default> CircuitTable<A> {
    /// Creates a table holding at most `cap` circuits, each expiring
    /// `ttl_us` microseconds after insertion.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, ttl_us: u64) -> Self {
        assert!(cap >= 1, "circuit table capacity must be positive");
        CircuitTable {
            cap,
            ttl_us,
            slots: VecDeque::new(),
            head_seq: 0,
            by_cid_in: Vec::new(),
            by_cid_out: Vec::new(),
        }
    }

    /// Number of stored circuits: after an insert at time `t`, exactly
    /// the circuits unexpired at `t`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The sequence number of the slot `cid` arrives under, if stored.
    fn seq_of(&self, cid: CircuitId) -> Option<u64> {
        let key = index_key(cid);
        let at = self.by_cid_in.partition_point(|&(k, _)| k < key);
        self.by_cid_in.get(at).filter(|(k, _)| *k == key).map(|&(_, seq)| seq)
    }

    /// Removes the slot numbered `seq` from the queue and both indices.
    fn remove_slot(&mut self, seq: u64) {
        let slot = self.slots.remove((seq - self.head_seq) as usize).expect("an indexed slot");
        // Popping the front renumbers nobody: `head_seq` moves instead.
        let popped_front = seq == self.head_seq;
        let ids = [(&mut self.by_cid_in, Some(slot.cid)), (&mut self.by_cid_out, slot.entry.cid_out)];
        for (index, id) in ids {
            if let Some(id) = id {
                let at = index.binary_search(&(index_key(id), seq)).expect("every slot is indexed");
                index.remove(at);
            }
            if !popped_front {
                for (_, later) in index.iter_mut().filter(|(_, s)| *s > seq) {
                    *later -= 1;
                }
            }
        }
        self.head_seq += popped_front as u64;
    }

    /// Inserts (or refreshes) a circuit after collecting every expired
    /// one, evicting the oldest insertion when still full.
    pub fn insert(&mut self, now_us: u64, cid: CircuitId, entry: CircuitEntry) {
        while self.slots.front().is_some_and(|slot| slot.expires_at_us <= now_us) {
            self.remove_slot(self.head_seq);
        }
        // A refresh moves the circuit to the back of the queue: its old
        // slot goes, and every slot behind it moves up by one. Linear,
        // and rare — a source draws a fresh id for every establishment.
        if let Some(seq) = self.seq_of(cid) {
            self.remove_slot(seq);
        }
        while self.slots.len() >= self.cap {
            self.remove_slot(self.head_seq);
        }
        let seq = self.head_seq + self.slots.len() as u64;
        for (index, id) in [(&mut self.by_cid_in, Some(cid)), (&mut self.by_cid_out, entry.cid_out)] {
            if let Some(id) = id {
                let element = (index_key(id), seq);
                let at = index.binary_search(&element).expect_err("a fresh sequence number");
                index.insert(at, element);
            }
        }
        let expires_at_us = now_us.saturating_add(self.ttl_us);
        self.slots.push_back(Slot { expires_at_us, cid, entry, attached: A::default() });
    }

    /// The live slot numbered `seq`.
    fn live(&self, now_us: u64, seq: u64) -> Option<&Slot<A>> {
        self.slots.get((seq - self.head_seq) as usize).filter(|slot| slot.expires_at_us > now_us)
    }

    /// Looks up a live circuit (expired circuits are never returned, and
    /// are collected by the next insert).
    pub fn lookup(&self, now_us: u64, cid: CircuitId) -> Option<&CircuitEntry> {
        self.live(now_us, self.seq_of(cid)?).map(|slot| &slot.entry)
    }

    /// Looks up the live circuit that *forwards* under `cid_out` — the id
    /// a return packet arrives under — with the inbound id it then leaves
    /// under.
    pub fn lookup_return(&self, now_us: u64, cid_out: CircuitId) -> Option<(CircuitId, &CircuitEntry)> {
        let key = index_key(cid_out);
        let at = self.by_cid_out.partition_point(|&(k, _)| k < key);
        let &(_, seq) = self.by_cid_out.get(at).filter(|(k, _)| *k == key)?;
        self.live(now_us, seq).map(|slot| (slot.cid, &slot.entry))
    }

    /// A live circuit together with what is attached to its slot.
    pub fn slot_mut(&mut self, now_us: u64, cid: CircuitId) -> Option<(&CircuitEntry, &mut A)> {
        let at = (self.seq_of(cid)? - self.head_seq) as usize;
        let slot = self.slots.get_mut(at).filter(|slot| slot.expires_at_us > now_us)?;
        Some((&slot.entry, &mut slot.attached))
    }

    /// Drops every stored circuit (simulates a relay losing state, e.g. a
    /// restart after churn).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.by_cid_in.clear();
        self.by_cid_out.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::{Rng, SeedableRng};

    fn entry(b: u8) -> CircuitEntry {
        CircuitEntry::new(AesKey([b; 16]), vec![b], None)
    }

    /// The tag `entry(b)` carries.
    fn tag(e: &CircuitEntry) -> u8 {
        e.next_hop()[0]
    }

    fn cid(b: u8) -> CircuitId {
        CircuitId([b; 8])
    }

    /// One hop's work on a packet: `body` with the layer of `setup`'s
    /// circuit stripped.
    fn peeled(setup: &HopSetup, nonce: &CtrNonce, body: &[u8]) -> Vec<u8> {
        let mut body = body.to_vec();
        CircuitEntry::new(setup.key, vec![], setup.cid_out).peel_in_place(nonce, &mut body);
        body
    }

    #[test]
    fn establish_then_walk_all_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let (source, setups) = establish(3, &mut rng);
        assert_eq!(source.keys.len(), 3);
        assert_eq!(setups[0].cid_in, source.first_cid);
        // The chain of hop setups is consistent: each relay's cid_out is
        // the next hop's cid_in; the destination has none.
        assert_eq!(setups[0].cid_out, Some(setups[1].cid_in));
        assert_eq!(setups[1].cid_out, Some(setups[2].cid_in));
        assert_eq!(setups[2].cid_out, None);

        // Seal at the source, peel one layer per hop.
        let payload = b"steady-state private view exchange";
        let nonce0 = CtrNonce([9; 8]);
        let mut body = seal_layers(&source.keys, &nonce0, payload);
        let mut nonce = nonce0;
        for setup in &setups {
            body = peeled(setup, &nonce, &body);
            nonce = next_nonce(&nonce);
        }
        assert_eq!(body, payload);
    }

    #[test]
    fn single_hop_circuit() {
        let mut rng = StdRng::seed_from_u64(2);
        let (source, setups) = establish(1, &mut rng);
        assert_eq!(setups.len(), 1);
        assert_eq!(setups[0].cid_out, None);
        let nonce0 = CtrNonce([1; 8]);
        let body = seal_layers(&source.keys, &nonce0, b"direct");
        assert_eq!(peeled(&setups[0], &nonce0, &body), b"direct");
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_hop_circuit_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = establish(0, &mut rng);
    }

    #[test]
    fn intermediate_layers_hide_payload() {
        let mut rng = StdRng::seed_from_u64(4);
        let (source, setups) = establish(3, &mut rng);
        let payload = b"the payload no single relay may see, at any hop";
        let nonce0 = CtrNonce([7; 8]);
        let leaks = |bytes: &[u8]| {
            bytes.windows(8).any(|w| payload.windows(8).any(|p| p == w))
        };
        let mut body = seal_layers(&source.keys, &nonce0, payload);
        assert!(!leaks(&body));
        let mut nonce = nonce0;
        // After the first and second peels the payload is still covered
        // by at least one remaining layer.
        for setup in &setups[..2] {
            body = peeled(setup, &nonce, &body);
            nonce = next_nonce(&nonce);
            assert!(!leaks(&body), "payload visible before the last hop");
        }
    }

    /// The schedules cached at establishment (source) and at installation
    /// (relay) against the per-packet expansion from the bare keys: the
    /// same bytes at the same deterministic cost, on the stack-array nonce
    /// chain (≤ 8 hops) and on its `Vec` overflow (> 8 hops).
    #[test]
    fn cached_schedules_match_per_packet_expansion() {
        let mut rng = StdRng::seed_from_u64(12);
        let nonce0 = CtrNonce([7; 8]);
        for hops in [1usize, 3, 8, 9, 12] {
            let (source, setups) = establish(hops, &mut rng);
            let payload: Vec<u8> = (0..=255u8).collect();
            let before = crate::costs::snapshot();
            let expected = seal_layers(&source.keys, &nonce0, &payload);
            let expected_cost = crate::costs::snapshot().since(before);
            let mut body = payload.clone();
            let before = crate::costs::snapshot();
            source.seal_in_place(&nonce0, &mut body);
            assert_eq!(crate::costs::snapshot().since(before), expected_cost, "{hops} hops");
            assert_eq!(body, expected, "{hops} hops: seal forms diverge");

            let mut nonce = nonce0;
            for setup in &setups {
                let reference = Aes128::new(&setup.key).ctr_apply(&nonce, &body);
                body = peeled(setup, &nonce, &body);
                assert_eq!(body, reference, "{hops} hops: peel forms diverge");
                nonce = next_nonce(&nonce);
            }
            assert_eq!(body, payload);
        }
    }

    #[test]
    fn nonce_chain_changes_every_hop() {
        let n0 = CtrNonce([0; 8]);
        let n1 = next_nonce(&n0);
        let n2 = next_nonce(&n1);
        assert_ne!(n0, n1);
        assert_ne!(n1, n2);
        assert_ne!(n0, n2);
        // Deterministic: the chain is a pure function of the start.
        assert_eq!(next_nonce(&n0), n1);
    }

    #[test]
    fn hop_setup_codec_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let relay = HopSetup {
            cid_in: CircuitId::random(&mut rng),
            cid_out: Some(CircuitId::random(&mut rng)),
            key: AesKey::random(&mut rng),
        };
        let dest = HopSetup { cid_out: None, ..relay.clone() };
        for setup in [&relay, &dest] {
            let bytes = setup.encode();
            assert_eq!(HopSetup::decode(&bytes).as_ref(), Some(setup));
        }
        assert_eq!(relay.encode().len(), RELAY_SETUP_LEN);
        assert_eq!(dest.encode().len(), DEST_SETUP_LEN);
        assert_eq!(HopSetup::decode(&[0u8; 7]), None);
        assert_eq!(HopSetup::decode(&[]), None);
    }

    #[test]
    fn table_lookup_hit_and_ttl_expiry() {
        let mut t = CircuitTable::<()>::new(8, 1_000);
        t.insert(0, cid(1), entry(1));
        assert_eq!(t.lookup(999, cid(1)).map(|e| e.next_hop().to_vec()), Some(vec![1]));
        // At exactly the expiry instant the entry is gone, and the next
        // insert collects it.
        assert!(t.lookup(1_000, cid(1)).is_none());
        t.insert(1_000, cid(2), entry(2));
        assert_eq!(t.len(), 1, "the expired circuit was swept");
        assert!(t.lookup(0, cid(1)).is_none(), "collected entries are not revived");
    }

    /// The sweep against a model that never forgets anything: it keeps
    /// every insertion and answers from first principles (latest
    /// insertion of the id, unexpired, not pushed out by `cap` younger
    /// live ones). The table must agree on every lookup, hold exactly
    /// the unexpired circuits after every insert, and — the same claim
    /// seen from the other side — never have dropped a live circuit the
    /// capacity bound did not force out.
    #[test]
    fn sweep_keeps_every_live_circuit_and_nothing_else() {
        whisper_rand::check::check(64, "sweep_keeps_every_live_circuit_and_nothing_else", |g| {
            let cap = g.gen_range(1..=6usize);
            let ttl = g.gen_range(1..=40u64);
            let mut table = CircuitTable::<()>::new(cap, ttl);
            // The model: `(cid, inserted_at)`, oldest first, one record
            // per id (a re-insert moves the id to the back).
            let mut model: Vec<(u8, u64)> = Vec::new();
            let mut now = 0u64;
            for _ in 0..g.gen_range(1..=120usize) {
                now += g.gen_range(0..=ttl / 2 + 1);
                let id: u8 = g.gen_range(0..10);
                if g.gen_bool(0.6) {
                    table.insert(now, cid(id), entry(id));
                    model.retain(|&(c, at)| c != id && at + ttl > now);
                    if model.len() >= cap {
                        model.remove(0);
                    }
                    model.push((id, now));
                    assert_eq!(table.len(), model.len(), "len() counts exactly the unexpired");
                }
                for probe in 0..10u8 {
                    let live = model.iter().any(|&(c, at)| c == probe && at + ttl > now);
                    assert_eq!(
                        table.lookup(now, cid(probe)).is_some(),
                        live,
                        "circuit {probe} at t={now} (cap {cap}, ttl {ttl})"
                    );
                }
            }
        });
    }

    /// The table this one replaced, as its model: the entries in a
    /// `BTreeMap` and the FIFO of their ids beside it.
    struct ModelTable {
        cap: usize,
        ttl_us: u64,
        /// `cid → (tag of the entry, its outbound id, expires_at_us)`.
        entries: std::collections::BTreeMap<CircuitId, (u8, Option<CircuitId>, u64)>,
        order: VecDeque<(u64, CircuitId)>,
    }

    impl ModelTable {
        fn insert(&mut self, now_us: u64, cid: CircuitId, tag: u8, out: Option<CircuitId>) {
            let evict_oldest = |m: &mut ModelTable| {
                let (_, oldest) = m.order.pop_front().unwrap();
                m.entries.remove(&oldest);
            };
            while self.order.front().is_some_and(|(expires, _)| *expires <= now_us) {
                evict_oldest(self);
            }
            if self.entries.remove(&cid).is_some() {
                self.order.retain(|(_, c)| *c != cid);
            }
            while self.entries.len() >= self.cap {
                evict_oldest(self);
            }
            let expires = now_us.saturating_add(self.ttl_us);
            self.entries.insert(cid, (tag, out, expires));
            self.order.push_back((expires, cid));
        }

        fn lookup(&self, now_us: u64, cid: CircuitId) -> Option<u8> {
            self.entries.get(&cid).filter(|(_, _, expires)| *expires > now_us).map(|(tag, ..)| *tag)
        }

        /// The oldest stored circuit forwarding under `out`, if it is
        /// still live.
        fn lookup_return(&self, now_us: u64, out: CircuitId) -> Option<(CircuitId, u8)> {
            let oldest = self.order.iter().find(|(_, cid)| self.entries[cid].1 == Some(out))?;
            let (tag, _, expires) = self.entries[&oldest.1];
            (expires > now_us).then_some((oldest.1, tag))
        }
    }

    /// Queue + indices against map + queue under random inserts, refreshes,
    /// look-ups in both directions and state loss on a moving clock: the
    /// same length, and for every id the same entry or none — hence the
    /// same evictions in the same order — and what was attached to a slot
    /// found again exactly while the slot is.
    #[test]
    fn table_matches_its_btreemap_model() {
        whisper_rand::check::check(256, "table_matches_its_btreemap_model", |g| {
            let cap = g.gen_range(1..=8usize);
            let ttl_us = if g.gen_bool(0.2) { u64::MAX } else { g.gen_range(1..=40u64) };
            let mut table = CircuitTable::<Option<u8>>::new(cap, ttl_us);
            let mut model = ModelTable {
                cap,
                ttl_us,
                entries: std::collections::BTreeMap::new(),
                order: VecDeque::new(),
            };
            let ids = g.gen_range(1..=14u8);
            let mut now = 0u64;
            for step in 0..g.gen_range(1..=150usize) {
                now += g.gen_range(0..=ttl_us.min(40) / 2 + 1);
                if g.gen_bool(0.03) {
                    table.clear();
                    model.entries.clear();
                    model.order.clear();
                } else if g.gen_bool(0.7) {
                    let (id, tag) = (g.gen_range(0..ids), step as u8);
                    // Outbound ids from a small set: sources may collide.
                    let out = g.gen_bool(0.6).then(|| cid(100 + g.gen_range(0..4u8)));
                    table.insert(now, cid(id), CircuitEntry::new(AesKey([tag; 16]), vec![tag], out));
                    *table.slot_mut(now, cid(id)).expect("just inserted").1 = Some(tag);
                    model.insert(now, cid(id), tag, out);
                }
                assert_eq!(table.len(), model.entries.len(), "len at t={now}");
                assert_eq!(table.is_empty(), model.entries.is_empty());
                for probe in 0..ids {
                    assert_eq!(
                        table.lookup(now, cid(probe)).map(tag),
                        model.lookup(now, cid(probe)),
                        "circuit {probe} at t={now} (cap {cap}, ttl {ttl_us})"
                    );
                    assert_eq!(
                        table.slot_mut(now, cid(probe)).map(|(_, attached)| *attached),
                        model.lookup(now, cid(probe)).map(Some),
                        "what rides slot {probe} at t={now}"
                    );
                }
                for out in 100..104u8 {
                    assert_eq!(
                        table.lookup_return(now, cid(out)).map(|(cid_in, e)| (cid_in, tag(e))),
                        model.lookup_return(now, cid(out)),
                        "way back under {out} at t={now} (cap {cap}, ttl {ttl_us})"
                    );
                }
            }
        });
    }

    /// The address WCL installs lives in the entry itself, both ways; a
    /// longer previous hop is not kept at all.
    #[test]
    fn next_hop_round_trips_inline() {
        for len in 0..=9usize {
            let addr: Vec<u8> = (0..len as u8).collect();
            let e = CircuitEntry::new(AesKey([1; 16]), addr.clone(), Some(cid(2)));
            assert_eq!(e.prev_hop(), [0u8; 0], "none recorded yet");
            let e = e.reached_from(&addr);
            assert_eq!(e.next_hop(), addr, "{len} bytes");
            assert_eq!(e.prev_hop(), addr, "{len} bytes");
        }
        let e = CircuitEntry::new(AesKey([1; 16]), vec![7; 9], None).reached_from(&[7; 10]);
        assert_eq!(e.prev_hop(), [0u8; 0], "10 bytes");
    }

    /// A next hop longer than a hop address is no entry the stack builds.
    #[test]
    #[should_panic(expected = "longer than a hop address")]
    fn next_hop_beyond_an_address_is_refused() {
        CircuitEntry::new(AesKey([1; 16]), vec![0; 10], Some(cid(2)));
    }

    /// The way back: the destination draws a nonce and adds its layer,
    /// every relay moves the nonce by its step and adds its own, and the
    /// source — from the one nonce it receives — strips them all. On the
    /// way no two links carry the same nonce, and no layer hides less than
    /// the forward one does.
    #[test]
    fn return_layers_open_at_the_source_only() {
        let mut rng = StdRng::seed_from_u64(13);
        let payload: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        for hops in [1usize, 2, 3, 5] {
            let (source, setups) = establish(hops, &mut rng);
            let entries: Vec<CircuitEntry> =
                setups.iter().map(|s| CircuitEntry::new(s.key, vec![], s.cid_out)).collect();
            let mut body = payload.clone();
            let mut nonce = CtrNonce::random(&mut rng);
            let mut seen = vec![nonce];
            entries[hops - 1].apply_in_place(Direction::Return, &nonce, &mut body);
            for relay in entries[..hops - 1].iter().rev() {
                assert_ne!(body, payload);
                nonce = relay.return_nonce(&nonce);
                assert!(!seen.contains(&nonce), "{hops} hops: a nonce twice on the way back");
                seen.push(nonce);
                relay.apply_in_place(Direction::Return, &nonce, &mut body);
            }
            let before = crate::costs::snapshot();
            source.open_return_in_place(&nonce, &mut body);
            let cost = crate::costs::snapshot().since(before);
            assert_eq!(cost.aes_blocks, (hops * payload.len().div_ceil(16)) as u64);
            assert_eq!(body, payload, "{hops} hops");
        }
    }

    /// Under one key and one nonce the two directions share no keystream
    /// block: the return half starts 2⁶³ blocks in.
    #[test]
    fn directions_draw_from_disjoint_keystream() {
        let e = entry(5);
        let nonce = CtrNonce([3; 8]);
        let (mut out, mut back) = (vec![0u8; 4096], vec![0u8; 4096]);
        e.apply_in_place(Direction::Forward, &nonce, &mut out);
        e.apply_in_place(Direction::Return, &nonce, &mut back);
        let blocks = |stream: &[u8]| -> std::collections::BTreeSet<[u8; 16]> {
            stream.chunks(16).map(|b| b.try_into().unwrap()).collect()
        };
        assert!(blocks(&out).is_disjoint(&blocks(&back)));
        let mut reference = vec![0u8; 4096];
        Aes128::new(&AesKey([5; 16])).ctr_apply_in_place_at(&nonce, 1 << 63, &mut reference);
        assert_eq!(back, reference);
        assert_eq!(Direction::Forward.first_block(), 0);
    }

    #[test]
    fn table_evicts_oldest_insertion_first() {
        let mut t = CircuitTable::<()>::new(2, u64::MAX);
        t.insert(0, cid(1), entry(1));
        t.insert(1, cid(2), entry(2));
        t.insert(2, cid(3), entry(3)); // evicts cid(1)
        assert!(t.lookup(3, cid(1)).is_none());
        assert!(t.lookup(3, cid(2)).is_some());
        assert!(t.lookup(3, cid(3)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn table_reinsert_refreshes_position_and_expiry() {
        let mut t = CircuitTable::<()>::new(2, 100);
        t.insert(0, cid(1), entry(1));
        t.insert(1, cid(2), entry(2));
        t.insert(50, cid(1), entry(9)); // refresh: now newest, expires at 150
        t.insert(60, cid(3), entry(3)); // evicts cid(2), the oldest
        assert!(t.lookup(70, cid(2)).is_none());
        assert_eq!(t.lookup(140, cid(1)).map(tag), Some(9));
        assert!(t.lookup(150, cid(1)).is_none(), "refreshed expiry honored");
    }

    #[test]
    fn table_eviction_is_deterministic() {
        // Same insertion sequence ⇒ same survivors, regardless of id
        // values (a FIFO queue, never hash order).
        let run = || {
            let mut t = CircuitTable::<()>::new(4, u64::MAX);
            for b in [9u8, 3, 7, 1, 8, 2] {
                t.insert(b as u64, cid(b), entry(b));
            }
            (0..=9u8).filter(|b| t.lookup(100, cid(*b)).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![1, 2, 7, 8], "last four insertions survive");
    }

    #[test]
    fn clear_simulates_state_loss() {
        let mut t = CircuitTable::<()>::new(8, u64::MAX);
        t.insert(0, cid(1), entry(1));
        t.clear();
        assert!(t.lookup(1, cid(1)).is_none());
        assert!(t.is_empty());
    }
}
