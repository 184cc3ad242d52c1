//! [`WhisperNode`]: the full protocol stack of Fig. 1 as one simulator
//! protocol — `Nylon PSS → WCL → PPSS → application`, each layer owning
//! the one below it sends through — plus the
//! [`GroupApp`] plugin interface that higher-level protocols (broadcast,
//! T-Chord, ...) implement to run *inside* a private group.

use crate::ppss::group::{GroupId, Invitation};
use crate::ppss::{Ppss, PpssConfig, PpssEvent, PrivateEntry};
use crate::wcl::{Wcl, WclConfig, WclEvent};
use whisper_crypto::rsa::KeyPair;
use whisper_net::sim::{Ctx, Protocol};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration};
use whisper_pss::{timer, NylonConfig, NylonCore, NylonEvent};

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
    /// The WCL, and through it the Nylon PSS.
    pub wcl: &'a mut Wcl,
    /// The PPSS.
    pub ppss: &'a mut Ppss,
}

impl WhisperApi<'_> {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.wcl.nylon().id()
    }

    /// The private view of `group` (empty slice if not a member).
    pub fn private_view(&self, group: GroupId) -> &[PrivateEntry] {
        self.ppss.group(group).map(|g| g.view()).unwrap_or(&[])
    }

    /// This node's own private-view entry.
    pub fn my_entry(&self) -> PrivateEntry {
        self.wcl.entry()
    }

    /// Sends application bytes confidentially to a group member: its
    /// pinned entry, else the one in the private view. Returns `false`
    /// when the member is in neither or no route could be built.
    pub fn send_private(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        to: NodeId,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        let Some(dest) = self.ppss.member(group, to) else {
            return false;
        };
        self.ppss.app_data(self.wcl, group, data, with_reply_entry).is_some_and(|(wire, once)| {
            self.wcl.send_untracked(ctx, dest, &wire, Some(once))
        })
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
        let dest = self.ppss.member(group, to)?;
        let (wire, once) = self.ppss.app_data(self.wcl, group, data, with_reply_entry)?;
        let msg_id = self.wcl.alloc_msg_id();
        self.wcl.send(ctx, dest, wire, Some(once), msg_id).then_some(msg_id)
    }

    /// Sends application bytes to an explicit entry (e.g. one shipped in
    /// a query for the reply, the §V-G T-Chord pattern).
    pub fn send_private_to_entry(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        to: &PrivateEntry,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        self.ppss.app_data(self.wcl, group, data, with_reply_entry).is_some_and(|(wire, once)| {
            self.wcl.send_untracked(ctx, to, &wire, Some(once))
        })
    }

    /// Answers `from`, whose message to `group` just arrived: at the
    /// `reply_entry` it shipped, else as [`WhisperApi::send_private`]
    /// does. Either way the answer rides back on the circuit the message
    /// came in on while that is bound (see [`crate::wcl`]).
    pub fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: GroupId,
        from: NodeId,
        reply_entry: Option<&PrivateEntry>,
        data: Vec<u8>,
        with_reply_entry: bool,
    ) -> bool {
        match reply_entry {
            Some(entry) => self.send_private_to_entry(ctx, group, entry, data, with_reply_entry),
            None => self.send_private(ctx, group, from, data, with_reply_entry),
        }
    }

    /// Pins `node` into the persistent connection pool of `group`
    /// (paper §IV-C).
    pub fn make_persistent(&mut self, group: GroupId, node: NodeId) -> bool {
        self.ppss.make_persistent(group, node)
    }

    /// Arms an application timer; it fires as [`GroupApp::on_timer`] with
    /// `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not below 2⁵⁶ ([`timer::PAYLOAD_BOUND`]): the
    /// low byte of the simulator's timer token names the layer it is for.
    pub fn set_app_timer(&self, ctx: &mut Ctx<'_>, delay: SimDuration, token: u64) {
        ctx.set_timer(delay, timer::token(timer::APP, token));
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
    /// fired, with the token it was armed with (below 2⁵⁶).
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
    wcl: Wcl,
    ppss: Ppss,
    app: Box<dyn GroupApp>,
}

impl std::fmt::Debug for WhisperNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WhisperNode")
            .field("wcl", &self.wcl)
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
            wcl: Wcl::new(cfg.wcl, NylonCore::new(cfg.nylon, keypair)),
            ppss: Ppss::new(cfg.ppss),
            app,
        }
    }

    /// The Nylon layer.
    pub fn nylon(&self) -> &NylonCore {
        self.wcl.nylon()
    }

    /// Mutable Nylon access (bootstrap configuration).
    pub fn nylon_mut(&mut self) -> &mut NylonCore {
        self.wcl.nylon_mut()
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
        let Some(group) = self.ppss.create_group(ctx, &self.wcl, name) else {
            return GroupId::from_name(name);
        };
        self.with_api(|api, app| app.on_joined(ctx, api, group));
        group
    }

    /// Issues an invitation for `invitee` (leader operation).
    pub fn invite(&self, group: GroupId, invitee: NodeId) -> Option<Invitation> {
        self.ppss.invite(&self.wcl, group, invitee)
    }

    /// Starts joining a group from an out-of-band invitation.
    pub fn join_group(&mut self, ctx: &mut Ctx<'_>, invitation: Invitation) {
        self.ppss.join_group(ctx, &mut self.wcl, invitation);
    }

    /// Deletes `group` (leader operation): sends the signed deletion
    /// tombstone to the members it knows and destroys local state.
    /// Returns `false` when this node is not a leader of the group.
    pub fn delete_group(&mut self, ctx: &mut Ctx<'_>, group: GroupId) -> bool {
        let Some(events) = self.ppss.delete_group(ctx, &mut self.wcl, group) else {
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
        let WhisperNode { wcl, ppss, app } = self;
        let mut api = WhisperApi { wcl, ppss };
        f(&mut api, app.as_mut())
    }

    /// Hands an application payload that `prev` — a node, and whether it
    /// is known to be public — sent to the WCL (WCL packets are the only
    /// payload type this stack emits) and what it delivers to the PPSS.
    fn on_app_payload(&mut self, ctx: &mut Ctx<'_>, prev: (NodeId, bool), data: &[u8]) {
        if let Some(WclEvent::Delivered { payload, via }) = self.wcl.on_app_payload(ctx, prev, data) {
            if let Some(events) = self.ppss.on_delivered(ctx, &mut self.wcl, via, &payload) {
                self.dispatch_ppss_events(ctx, events);
            }
            self.wcl.reclaim(payload);
        }
    }

    fn dispatch_ppss_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<PpssEvent>) {
        self.with_api(|api, app| {
            for event in events {
                match event {
                    PpssEvent::Joined { group } => app.on_joined(ctx, api, group),
                    PpssEvent::ViewUpdated { group } => app.on_view_updated(ctx, api, group),
                    PpssEvent::AppMessage { group, from, data, reply_entry } => {
                        app.on_message(ctx, api, group, from, &data, reply_entry)
                    }
                    PpssEvent::MemberUnreachable { group, node } => {
                        app.on_member_unreachable(ctx, api, group, node)
                    }
                    PpssEvent::BecameLeader { group, .. } => app.on_view_updated(ctx, api, group),
                    PpssEvent::GroupDeleted { group } => app.on_group_deleted(ctx, api, group),
                }
            }
        });
    }
}

impl Protocol for WhisperNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.wcl.nylon_mut().on_start(ctx);
        self.ppss.on_start(ctx);
        self.with_api(|api, app| app.on_start(ctx, api));
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile state is gone: WCL pending sends, routes and circuits,
        // the Nylon view and NAT session state. The PPSS rebuilds its
        // group table and tombstones exclusively from a replay of its
        // journal (the node's "disk"); the bootstrap list
        // survives as on-disk configuration, so the node re-converges
        // through its deferred gossip and PPSS cycle timers.
        self.wcl.on_restart(ctx);
        self.ppss.on_restart(ctx);
        self.with_api(|api, app| app.on_crash_restart(ctx, api));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        // Application traffic — every WCL packet — is read where it was
        // delivered; only the PSS's own messages take the owned decode.
        if let Some(app) = self.wcl.nylon_mut().on_app_message(ctx, from, from_ep, data) {
            // A public host's packets leave from port 0.
            self.on_app_payload(ctx, (from, from_ep.port == 0), app);
            return;
        }
        // An application payload that came wrapped in a relayed message:
        // the way back to its sender is the reply route the wrapper left,
        // whatever the sender's class.
        if let Some(NylonEvent::Payload { from, data }) = self.wcl.nylon_mut().on_message(ctx, from, from_ep, data) {
            self.on_app_payload(ctx, (from, false), &data);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match timer::kind(token) {
            timer::WCL_RETRY => {
                if let Some(WclEvent::RouteFailed { msg_id, dest }) = self.wcl.on_retry_timer(ctx, token) {
                    let events = self.ppss.on_route_failed(msg_id, dest);
                    self.dispatch_ppss_events(ctx, events);
                }
            }
            timer::PPSS_CYCLE => {
                let events = self.ppss.on_cycle(ctx, &mut self.wcl);
                self.dispatch_ppss_events(ctx, events);
            }
            timer::PCP_REFRESH => {
                self.ppss.on_pcp_refresh(ctx, &mut self.wcl);
            }
            timer::APP => self.with_api(|api, app| app.on_timer(ctx, api, timer::payload(token))),
            _ => self.wcl.nylon_mut().on_timer(ctx, token),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
