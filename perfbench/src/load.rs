//! The benchmark's own load generators.
//!
//! [`LoadApp`] is a closed-loop request/reply client and echo server at
//! the `GroupApp` boundary: each session issues a request, waits for the
//! echoed reply (or the deadline), thinks, and issues the next. The loop
//! is closed in *simulated* time, so the load does not depend on how fast
//! the host runs the simulation.
//!
//! [`GossipNode`] is the PSS-only node: `NylonCore` driven exactly like
//! the crate's own `NylonNode`, plus the round-trip time of every gossip
//! exchange the node initiates (the op of the gossip workloads).

use crate::spec::{Dest, DEADLINE_MS};
use crate::trace::{self, Scope};
use whisper_core::{GroupApp, GroupId, PrivateEntry, WhisperApi};
use whisper_net::sim::{Ctx, Protocol};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration, SimTime};
use whisper_pss::{NylonCore, NylonEvent};
use whisper_rand::Rng;

const REQUEST: u8 = b'Q';
const REPLY: u8 = b'R';
/// Tag + nonce in front of the payload bytes.
const HEADER: usize = 9;
/// App-timer token bit marking a session's deadline timer.
const DEADLINE_TIMER: u64 = 1 << 16;

/// What every session of a workload does.
#[derive(Clone, Copy, Debug)]
pub struct LoadCfg {
    pub dest: Dest,
    pub think: SimDuration,
    pub payloads: &'static [usize],
    /// Record spans (traced run only).
    pub traced: bool,
    /// Open a session on every group the node joins (churn replacements;
    /// the initial population's sessions are opened by the harness).
    pub open_on_join: bool,
}

/// Payload byte `i` of the request with `nonce`: anything the echo server
/// cannot produce without having received it.
fn payload_byte(nonce: u64, i: usize) -> u8 {
    (nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left((i % 64) as u32) as u8) ^ (i as u8)
}

fn encode(tag: u8, nonce: u64, size: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(HEADER + size);
    data.push(tag);
    data.extend_from_slice(&nonce.to_le_bytes());
    data.extend((0..size).map(|i| payload_byte(nonce, i)));
    data
}

struct Inflight {
    nonce: u64,
    msg_id: u64,
    sent_at: SimTime,
    size: usize,
}

struct Session {
    group: GroupId,
    pinned: Option<NodeId>,
    /// Requests this session has issued.
    seq: u64,
    inflight: Option<Inflight>,
    deadline_armed: bool,
    /// Requests resolved (acked or failed) since the last reset.
    resolved: u64,
}

/// Per-app tallies since the last [`LoadApp::reset`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Requests handed to the WCL (a route was built).
    pub sent: u64,
    /// Requests whose correct echo came back in time.
    pub acked: u64,
    /// Requests unanswered at the deadline.
    pub deadline: u64,
    /// Requests for which no route could be built.
    pub no_route: u64,
    /// Replies whose nonce matched but whose bytes did not: a bug.
    pub bad_echo: u64,
    /// Request + reply payload bytes of acked requests.
    pub acked_bytes: u64,
}

/// The closed-loop client and echo server.
pub struct LoadApp {
    cfg: LoadCfg,
    sessions: Vec<Session>,
    pub stats: AppStats,
    /// Request→reply time of every acked request, µs of simulated time.
    pub rtt_us: Vec<u32>,
}

impl LoadApp {
    pub fn new(cfg: LoadCfg) -> Self {
        LoadApp { cfg, sessions: Vec::new(), stats: AppStats::default(), rtt_us: Vec::new() }
    }

    /// Opens a session on `group`; its first request goes out after
    /// `start_in`.
    pub fn open_session(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &WhisperApi<'_>,
        group: GroupId,
        start_in: SimDuration,
    ) {
        let idx = self.sessions.len() as u64;
        assert!(idx < DEADLINE_TIMER, "session index fits below the deadline bit");
        self.sessions.push(Session {
            group,
            pinned: None,
            seq: 0,
            inflight: None,
            deadline_armed: false,
            resolved: 0,
        });
        api.set_app_timer(ctx, start_in, idx);
    }

    /// Starts a new accounting period. Requests in flight carry over as
    /// sent, so `sent = acked + deadline + in flight` holds at any time.
    pub fn reset(&mut self) {
        self.stats = AppStats { sent: self.in_flight(), ..AppStats::default() };
        self.rtt_us.clear();
        for s in &mut self.sessions {
            s.resolved = 0;
        }
    }

    /// Requests awaiting their reply.
    pub fn in_flight(&self) -> u64 {
        self.sessions.iter().filter(|s| s.inflight.is_some()).count() as u64
    }

    /// Sessions that resolved no request since the last reset.
    pub fn stalled(&self) -> u64 {
        self.sessions.iter().filter(|s| s.resolved == 0).count() as u64
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, idx: usize) {
        let me = api.id();
        let cfg = self.cfg;
        let s = &mut self.sessions[idx];
        if s.inflight.is_some() {
            return;
        }
        let dest = match (cfg.dest, s.pinned) {
            (Dest::Pinned, Some(d)) => Some(d),
            _ => {
                let peers: Vec<NodeId> =
                    api.private_view(s.group).iter().map(|e| e.node).filter(|n| *n != me).collect();
                (!peers.is_empty()).then(|| peers[ctx.rng().gen_range(0..peers.len())])
            }
        };
        let Some(dest) = dest else {
            // Empty private view: nothing to attempt yet; look again later.
            api.set_app_timer(ctx, cfg.think, idx as u64);
            return;
        };
        if cfg.dest == Dest::Pinned && s.pinned.is_none() {
            // Without the pin the peer leaves the view within a PPSS
            // cycle and the session would die with it.
            api.make_persistent(s.group, dest);
            s.pinned = Some(dest);
        }
        let size = cfg.payloads[(s.seq % cfg.payloads.len() as u64) as usize];
        let nonce = (me.0 << 40) | ((idx as u64) << 32) | (s.seq & 0xFFFF_FFFF);
        let seq = s.seq;
        s.seq += 1;
        let data = encode(REQUEST, nonce, size);
        let scope = cfg.traced.then(|| Scope::open(trace::APP_SEND_CALL));
        let sent = api.send_private_tracked(ctx, s.group, dest, data, true);
        if let Some(scope) = scope {
            scope.close(me, nonce, seq);
        }
        match sent {
            Some(msg_id) => {
                s.inflight = Some(Inflight { nonce, msg_id, sent_at: ctx.now(), size });
                self.stats.sent += 1;
                if !s.deadline_armed {
                    s.deadline_armed = true;
                    let deadline = SimDuration::from_millis(DEADLINE_MS);
                    api.set_app_timer(ctx, deadline, DEADLINE_TIMER | idx as u64);
                }
            }
            None => {
                self.stats.no_route += 1;
                s.resolved += 1;
                s.pinned = None;
                api.set_app_timer(ctx, cfg.think, idx as u64);
            }
        }
    }

    fn on_deadline_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, idx: usize) {
        let think = self.cfg.think;
        let s = &mut self.sessions[idx];
        s.deadline_armed = false;
        let Some(inflight) = &s.inflight else {
            return; // idle; the next request arms a fresh timer
        };
        let age = ctx.now().since(inflight.sent_at);
        let deadline = SimDuration::from_millis(DEADLINE_MS);
        if age >= deadline {
            s.inflight = None;
            s.resolved += 1;
            self.stats.deadline += 1;
            api.set_app_timer(ctx, think, idx as u64);
        } else {
            s.deadline_armed = true;
            let left = SimDuration::from_micros(deadline.as_micros() - age.as_micros());
            api.set_app_timer(ctx, left, DEADLINE_TIMER | idx as u64);
        }
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, data: &[u8]) {
        let nonce = u64::from_le_bytes(data[1..HEADER].try_into().expect("8 bytes"));
        let idx = ((nonce >> 32) & 0xFF) as usize;
        let Some(s) = self.sessions.get_mut(idx) else {
            return;
        };
        // Late replies and the duplicates WCL retries cause match no
        // request in flight and are ignored.
        let Some(inflight) = s.inflight.take_if(|f| f.nonce == nonce) else {
            return;
        };
        api.wcl.notify_response(ctx, inflight.msg_id);
        s.resolved += 1;
        if data != encode(REPLY, nonce, inflight.size) {
            self.stats.bad_echo += 1;
        }
        self.stats.acked += 1;
        self.stats.acked_bytes += 2 * inflight.size as u64;
        self.rtt_us.push(ctx.now().since(inflight.sent_at).as_micros() as u32);
        api.set_app_timer(ctx, self.cfg.think, idx as u64);
    }

    fn on_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        data: &[u8],
        reply_entry: Option<PrivateEntry>,
    ) {
        let Some(entry) = reply_entry else {
            return;
        };
        let nonce = u64::from_le_bytes(data[1..HEADER].try_into().expect("8 bytes"));
        let mut reply = data.to_vec();
        reply[0] = REPLY;
        let scope = self.cfg.traced.then(|| Scope::open(trace::APP_REPLY_CALL));
        // No route back means no reply; the requester's deadline counts it.
        api.send_private_to_entry(ctx, group, &entry, reply, false);
        if let Some(scope) = scope {
            scope.close(api.id(), nonce, nonce & 0xFFFF_FFFF);
        }
    }
}

impl GroupApp for LoadApp {
    fn on_joined(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {
        if self.cfg.open_on_join {
            let scope = self.cfg.traced.then(|| Scope::open(trace::APP_ON_JOINED));
            let think_us = self.cfg.think.as_micros().max(1);
            let start_in = SimDuration::from_micros(ctx.rng().gen_range(0..think_us));
            self.open_session(ctx, api, group, start_in);
            if let Some(scope) = scope {
                scope.close(api.id(), 0, 0);
            }
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        _from: NodeId,
        data: &[u8],
        reply_entry: Option<PrivateEntry>,
    ) {
        if data.len() < HEADER {
            return;
        }
        let scope = self.cfg.traced.then(|| Scope::open(trace::APP_ON_MESSAGE));
        match data[0] {
            REQUEST => self.on_request(ctx, api, group, data, reply_entry),
            REPLY => self.on_reply(ctx, api, data),
            _ => {}
        }
        if let Some(scope) = scope {
            let nonce = u64::from_le_bytes(data[1..HEADER].try_into().expect("8 bytes"));
            scope.close(api.id(), nonce, nonce & 0xFFFF_FFFF);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, token: u64) {
        let scope = self.cfg.traced.then(|| Scope::open(trace::APP_ON_TIMER));
        let idx = (token & (DEADLINE_TIMER - 1)) as usize;
        if idx < self.sessions.len() {
            if token & DEADLINE_TIMER != 0 {
                self.on_deadline_timer(ctx, api, idx);
            } else {
                self.issue(ctx, api, idx);
            }
        }
        if let Some(scope) = scope {
            scope.close(api.id(), 0, 0);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A PSS-only node that also times its own gossip exchanges.
pub struct GossipNode {
    core: NylonCore,
    /// When the exchange now outstanding was initiated.
    started: Option<SimTime>,
    /// Initiation→completion time of every completed exchange, µs of
    /// simulated time.
    pub rtt_us: Vec<u32>,
}

impl GossipNode {
    pub fn new(core: NylonCore) -> Self {
        GossipNode { core, started: None, rtt_us: Vec::new() }
    }
}

impl Protocol for GossipNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        for event in self.core.on_message(ctx, from, from_ep, data) {
            if matches!(event, NylonEvent::GossipCompleted { .. }) {
                if let Some(t0) = self.started.take() {
                    self.rtt_us.push(ctx.now().since(t0).as_micros() as u32);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // A gossip-cycle timer is the one that advances `cycles_run`; an
        // exchange still unanswered from the previous cycle has timed out.
        let cycles = self.core.cycles_run();
        let _ = self.core.on_timer(ctx, token);
        if self.core.cycles_run() != cycles {
            self.started = Some(ctx.now());
        }
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.core.on_restart(ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
