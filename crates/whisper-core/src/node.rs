//! [`WhisperNode`]: the full protocol stack of Fig. 1 as one simulator
//! protocol — `Nylon PSS → WCL → PPSS → application` — plus the
//! [`GroupApp`] plugin interface that higher-level protocols (gossip
//! aggregation, T-Man, T-Chord, ...) implement to run *inside* a private
//! group.

use crate::ppss::group::{GroupId, Invitation};
use crate::ppss::{Ppss, PpssConfig, PpssEvent, PrivateEntry, TIMER_PCP_REFRESH, TIMER_PPSS_CYCLE};
use crate::wcl::{Wcl, WclConfig, WclEvent, TIMER_WCL_RETRY};
use whisper_crypto::rsa::KeyPair;
use whisper_net::sim::{Ctx, Protocol};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration};
use whisper_pss::{NylonConfig, NylonCore, NylonEvent};

/// Timer token kind reserved for applications (low byte).
pub const TIMER_APP: u64 = 7;

/// Packs an application timer token.
pub fn app_timer_token(token: u64) -> u64 {
    TIMER_APP | (token << 8)
}

/// Configuration of a full WHISPER stack.
#[derive(Clone, Debug, Default)]
pub struct WhisperConfig {
    /// Nylon PSS parameters.
    pub nylon: NylonConfig,
    /// WCL parameters.
    pub wcl: WclConfig,
    /// PPSS parameters.
    pub ppss: PpssConfig,
}

/// Mutable access to the stack's layers, handed to [`GroupApp`]
/// callbacks.
pub struct WhisperApi<'a> {
    /// The Nylon PSS.
    pub nylon: &'a mut NylonCore,
    /// The WCL.
    pub wcl: &'a mut Wcl,
    /// The PPSS.
    pub ppss: &'a mut Ppss,
}

impl WhisperApi<'_> {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.nylon.id()
    }

    /// The private view of `group` (empty slice if not a member).
    pub fn private_view(&self, group: GroupId) -> &[PrivateEntry] {
        self.ppss.group(group).map(|g| g.view()).unwrap_or(&[])
    }

    /// This node's own private-view entry.
    pub fn my_entry(&self) -> PrivateEntry {
        self.ppss.my_entry(self.nylon)
    }

    /// Sends application bytes confidentially to a group member.
    pub fn send_private(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        to: NodeId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        self.ppss
            .send_app(ctx, self.nylon, self.wcl, group, to, data, with_reply_entry)
    }

    /// Sends application bytes confidentially to a group member, tracked
    /// through the WCL retry machinery. Returns the message id the app
    /// must resolve via [`Wcl::notify_response`] when its answer arrives,
    /// or `None` when no route could be built.
    pub fn send_private_tracked(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        to: NodeId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> Option<u64> {
        self.ppss
            .send_app_tracked(ctx, self.nylon, self.wcl, group, to, data, with_reply_entry)
    }

    /// Sends application bytes to an explicit entry (reply pattern).
    pub fn send_private_to_entry(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        to: &PrivateEntry,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        self.ppss
            .send_app_to_entry(ctx, self.nylon, self.wcl, group, to, data, with_reply_entry)
    }

    /// Pins `node` into the persistent connection pool of `group`
    /// (paper §IV-C).
    pub fn make_persistent(&mut self, group: GroupId, node: NodeId) -> bool {
        self.ppss.make_persistent(group, node)
    }

    /// Arms an application timer; it fires as [`GroupApp::on_timer`] with
    /// `token`.
    pub fn set_app_timer(&self, ctx: &mut Ctx<'_>, delay: SimDuration, token: u64) {
        ctx.set_timer(delay, app_timer_token(token));
    }
}

/// A protocol running inside private groups on top of the PPSS.
///
/// All callbacks receive a [`WhisperApi`] to interact with the stack.
/// Default implementations do nothing, so applications override only what
/// they need. Apps must be [`Send`] because the sharded simulator may run
/// a node's callbacks on a worker thread (never two threads at once; see
/// [`whisper_net::sim::Protocol`]).
#[allow(unused_variables)]
pub trait GroupApp: Send + 'static {
    /// The node started.
    fn on_start(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>) {}

    /// The node completed a join handshake (or created a group).
    fn on_joined(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {}

    /// The private view of `group` changed.
    fn on_view_updated(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {}

    /// A confidential application message arrived from a verified group
    /// member.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        from: NodeId,
        data: &[u8],
        reply_entry: Option<PrivateEntry>,
    ) {
    }

    /// A group member was dropped as unreachable.
    fn on_member_unreachable(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        node: NodeId,
    ) {
    }

    /// An application timer armed through [`WhisperApi::set_app_timer`]
    /// fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, token: u64) {}

    /// The node crashed and restarted with full loss of volatile state.
    ///
    /// Apps MUST drop all in-flight bookkeeping here: pending requests
    /// reference WCL message ids that no longer exist after the restart,
    /// so keeping them leaks state that can never resolve (or worse,
    /// resolves against a recycled id). Durable application data may be
    /// kept — the PPSS group journal defines what "durable" means for
    /// the stack itself.
    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>) {}

    /// A verified deletion tombstone destroyed `group`: its state is
    /// gone and it can never come back. Apps drop whatever they keyed on
    /// the group.
    fn on_group_deleted(&mut self, ctx: &mut Ctx<'_>, api: &mut WhisperApi<'_>, group: GroupId) {}

    /// Downcasting support so harnesses can inspect application state.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcasting support (harnesses drive application commands
    /// through [`WhisperNode::with_api`]).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A no-op application.
#[derive(Debug, Default)]
pub struct NoApp;

impl GroupApp for NoApp {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The full WHISPER stack as a simulator protocol.
pub struct WhisperNode {
    nylon: NylonCore,
    wcl: Wcl,
    ppss: Ppss,
    app: Box<dyn GroupApp>,
}

impl std::fmt::Debug for WhisperNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WhisperNode")
            .field("nylon", &self.nylon)
            .field("ppss", &self.ppss)
            .finish()
    }
}

impl WhisperNode {
    /// Assembles a stack with no application plugin.
    pub fn new(cfg: WhisperConfig, keypair: KeyPair) -> Self {
        Self::with_app(cfg, keypair, Box::new(NoApp))
    }

    /// Assembles a stack with an application plugin.
    pub fn with_app(cfg: WhisperConfig, keypair: KeyPair, app: Box<dyn GroupApp>) -> Self {
        WhisperNode {
            nylon: NylonCore::new(cfg.nylon, keypair),
            wcl: Wcl::new(cfg.wcl),
            ppss: Ppss::new(cfg.ppss),
            app,
        }
    }

    /// The Nylon layer.
    pub fn nylon(&self) -> &NylonCore {
        &self.nylon
    }

    /// Mutable Nylon access (bootstrap configuration).
    pub fn nylon_mut(&mut self) -> &mut NylonCore {
        &mut self.nylon
    }

    /// The PPSS layer.
    pub fn ppss(&self) -> &Ppss {
        &self.ppss
    }

    /// Mutable PPSS access (journal fault injection in tests).
    pub fn ppss_mut(&mut self) -> &mut Ppss {
        &mut self.ppss
    }

    /// The WCL layer.
    pub fn wcl(&self) -> &Wcl {
        &self.wcl
    }

    /// The application plugin, downcast to `T`.
    pub fn app<T: 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Creates a private group led by this node (harness entry point) and
    /// returns its id. When the PPSS refuses the name — this node holds
    /// that group already, or it was deleted — nothing is created and the
    /// refusal is counted ([`Ppss::create_group`]); the id comes back all
    /// the same, and the node holds the group exactly when
    /// `ppss().group(id)` is some.
    pub fn create_group(&mut self, ctx: &mut Ctx<'_>, name: &str) -> GroupId {
        let Some(group) = self.ppss.create_group(ctx, &self.nylon, name) else {
            return GroupId::from_name(name);
        };
        let WhisperNode { nylon, wcl, ppss, app } = self;
        let mut api = WhisperApi { nylon, wcl, ppss };
        app.on_joined(ctx, &mut api, group);
        group
    }

    /// Issues an invitation for `invitee` (leader operation).
    pub fn invite(&self, group: GroupId, invitee: NodeId) -> Option<Invitation> {
        self.ppss.invite(&self.nylon, group, invitee)
    }

    /// Starts joining a group from an out-of-band invitation.
    pub fn join_group(&mut self, ctx: &mut Ctx<'_>, invitation: Invitation) {
        self.ppss.join_group(ctx, &mut self.nylon, &mut self.wcl, invitation);
    }

    /// Deletes `group` (leader operation): publishes the deletion
    /// tombstone and destroys local state. Returns `false` when this
    /// node is not a leader of the group.
    pub fn delete_group(&mut self, ctx: &mut Ctx<'_>, group: GroupId) -> bool {
        let Some(events) = self.ppss.delete_group(ctx, &mut self.nylon, group) else {
            return false;
        };
        self.dispatch_ppss_events(ctx, events);
        true
    }

    /// Revokes `member` (leader operation): see [`Ppss::remove_member`].
    pub fn remove_member(&mut self, group: GroupId, member: NodeId) -> bool {
        self.ppss.remove_member(group, member)
    }

    /// Runs `f` with mutable API access (harness entry point for driving
    /// applications).
    pub fn with_api<R>(
        &mut self,
        f: impl FnOnce(&mut WhisperApi<'_>, &mut dyn GroupApp) -> R,
    ) -> R {
        let WhisperNode { nylon, wcl, ppss, app } = self;
        let mut api = WhisperApi { nylon, wcl, ppss };
        f(&mut api, app.as_mut())
    }

    /// Hands an application payload that `prev` — a node, and whether it
    /// is known to be public — sent to the WCL (WCL packets are the only
    /// payload type this stack emits) and what it delivers to the PPSS.
    fn on_app_payload(&mut self, ctx: &mut Ctx<'_>, prev: (NodeId, bool), data: &[u8]) {
        if let Some(WclEvent::Delivered { payload, via }) =
            self.wcl.on_app_payload(ctx, &mut self.nylon, prev, data)
        {
            if let Some(events) =
                self.ppss.on_delivered(ctx, &mut self.nylon, &mut self.wcl, via, &payload)
            {
                self.dispatch_ppss_events(ctx, events);
            }
            self.wcl.reclaim(payload);
        }
    }

    fn dispatch_ppss_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<PpssEvent>) {
        let WhisperNode { nylon, wcl, ppss, app } = self;
        let mut api = WhisperApi { nylon, wcl, ppss };
        for event in events {
            match event {
                PpssEvent::Joined { group } => app.on_joined(ctx, &mut api, group),
                PpssEvent::ViewUpdated { group } => app.on_view_updated(ctx, &mut api, group),
                PpssEvent::AppMessage { group, from, data, reply_entry } => {
                    app.on_message(ctx, &mut api, group, from, &data, reply_entry)
                }
                PpssEvent::MemberUnreachable { group, node } => {
                    app.on_member_unreachable(ctx, &mut api, group, node)
                }
                PpssEvent::BecameLeader { group, .. } => {
                    app.on_view_updated(ctx, &mut api, group)
                }
                PpssEvent::GroupDeleted { group } => {
                    app.on_group_deleted(ctx, &mut api, group)
                }
            }
        }
    }
}

impl Protocol for WhisperNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.nylon.on_start(ctx);
        self.ppss.on_start(ctx);
        let WhisperNode { nylon, wcl, ppss, app } = self;
        let mut api = WhisperApi { nylon, wcl, ppss };
        app.on_start(ctx, &mut api);
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile state is gone: WCL pending sends, routes and circuits,
        // the Nylon view, NAT session state and the relay descriptor
        // store. The PPSS rebuilds its group table exclusively from a
        // replay of its journal (the node's "disk"); the bootstrap list
        // survives as on-disk configuration, so the node re-converges
        // through its deferred gossip and PPSS cycle timers.
        self.wcl.on_restart(ctx);
        self.nylon.on_restart(ctx);
        self.ppss.on_restart(ctx);
        let WhisperNode { nylon, wcl, ppss, app } = self;
        let mut api = WhisperApi { nylon, wcl, ppss };
        app.on_crash_restart(ctx, &mut api);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        // Application traffic — every WCL packet — is read where it was
        // delivered; only the PSS's own messages take the owned decode.
        if let Some((_, app)) = self.nylon.on_app_message(ctx, from, from_ep, data) {
            // A public host's packets leave from port 0.
            self.on_app_payload(ctx, (from, from_ep.port == 0), app);
            return;
        }
        let nylon_events = self.nylon.on_message(ctx, from, from_ep, data);
        for event in nylon_events {
            match event {
                // An application payload that came wrapped in a relayed
                // message: the way back to its sender is the reply route
                // the wrapper left, whatever the sender's class.
                NylonEvent::Payload { from, data } => self.on_app_payload(ctx, (from, false), &data),
                NylonEvent::GossipCompleted { .. } => {}
                NylonEvent::Descriptor { bytes, .. } => {
                    let events = self.ppss.on_descriptor(ctx, &bytes);
                    self.dispatch_ppss_events(ctx, events);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token & 0xFF {
            TIMER_WCL_RETRY => {
                if let Some(WclEvent::RouteFailed { msg_id, dest, no_alternative }) =
                    self.wcl.on_retry_timer(ctx, &mut self.nylon, token)
                {
                    // Record the failed destination so experiment
                    // harnesses can separate genuine route failures from
                    // destination deaths post hoc (the paper's Table I
                    // footnote excludes the latter).
                    ctx.metrics().sample(
                        if no_alternative { "wcl.failed_dest_noalt" } else { "wcl.failed_dest_exhausted" },
                        dest.0 as f64,
                    );
                    let events = self.ppss.on_route_failed(msg_id, dest);
                    self.dispatch_ppss_events(ctx, events);
                }
            }
            TIMER_PPSS_CYCLE => {
                let events = self.ppss.on_cycle(ctx, &mut self.nylon, &mut self.wcl);
                self.dispatch_ppss_events(ctx, events);
            }
            TIMER_PCP_REFRESH => {
                self.ppss.on_pcp_refresh(ctx, &mut self.nylon, &mut self.wcl);
            }
            TIMER_APP => {
                let app_token = token >> 8;
                let WhisperNode { nylon, wcl, ppss, app } = self;
                let mut api = WhisperApi { nylon, wcl, ppss };
                app.on_timer(ctx, &mut api, app_token);
            }
            _ => {
                let _ = self.nylon.on_timer(ctx, token);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
