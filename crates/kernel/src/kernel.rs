//! The per-workstation V kernel.
//!
//! "A functionally identical copy of the kernel resides on each host and
//! provides address spaces, processes that run within these address
//! spaces, and network-transparent interprocess communication" (§2.1).
//!
//! The kernel here is a sans-IO state machine: IPC primitives and incoming
//! frames/timers produce [`KernelOutput`] actions that the cluster runtime
//! (or a test rig) executes. It implements:
//!
//! * synchronous Send/Reply with retransmission, duplicate suppression and
//!   reply retention;
//! * process groups — global groups over Ethernet multicast (the
//!   program-manager group) and per-logical-host local groups naming the
//!   kernel server and program manager location-independently;
//! * the logical-host binding cache with invalidate-and-broadcast recovery
//!   (§3.1.4) and learning from incoming packets;
//! * freeze/unfreeze with deferred requests, reply-pending packets and
//!   reply discarding (§3.1.3);
//! * bulk CopyTo transfers paced at the calibrated 3 s/MB (§3.1);
//! * extraction and installation of a logical host's kernel state for
//!   migration, including in-flight IPC transactions.

use std::collections::{BTreeMap, BTreeSet};

use vmem::SpaceId;
use vnet::{Frame, HostAddr, McastGroup};
use vsim::calib::{self, PAGE_BYTES};
use vsim::{
    DetRng, ScopeMetrics, SimDuration, SimTime, SpanContext, SpanId, SpanIdGen, Subsystem, Trace,
    TraceEvent, TraceLevel,
};

use crate::binding::BindingCache;
use crate::ids::{
    Destination, GroupId, LogicalHostId, ProcessId, KERNEL_SERVER_INDEX, PROGRAM_MANAGER_INDEX,
};
use crate::logical_host::{DeferredRequest, LhDescriptor, LogicalHost};
use crate::packet::{Packet, SendSeq, XferId};
use crate::process::ProcessState;
use crate::transfer::{split_units, OutXfer, XFER_UNIT_BYTES};

/// Why a Send or CopyTo failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// No response after the maximum number of retransmissions.
    Timeout,
    /// The target process or space does not exist (detected locally).
    Refused,
    /// No binding for the destination logical host (CopyTo requires one).
    NoBinding,
}

/// A request delivered to a local process.
#[derive(Debug, Clone)]
pub struct MsgIn<X> {
    /// Receiving process.
    pub to: ProcessId,
    /// Sending (blocked) process.
    pub from: ProcessId,
    /// Transaction to cite in the reply.
    pub seq: SendSeq,
    /// Message body.
    pub body: X,
}

/// The reply completing a Send.
#[derive(Debug, Clone)]
pub struct ReplyIn<X> {
    /// Reply body.
    pub body: X,
}

/// Timer keys a kernel may request. Stale timers are ignored on firing, so
/// no cancellation is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKey {
    /// Retransmission tick for an outstanding Send.
    Retransmit(ProcessId, SendSeq),
    /// Retained-reply expiry.
    ReplyRetention(ProcessId, SendSeq),
    /// Bulk-transfer pacing for (transfer, unit).
    XferPace(XferId, u32),
    /// Bulk-transfer ack timeout for (transfer, unit).
    XferAckTimeout(XferId, u32),
    /// Completion of a workstation-local memory copy.
    LocalCopyDone(XferId),
    /// CopyFrom watchdog: no data arrived for the pull yet.
    PullStart(XferId),
}

/// Actions the kernel asks its runtime to perform.
#[derive(Debug)]
pub enum KernelOutput<X> {
    /// Put a frame on the wire.
    Transmit(Frame<Packet<X>>),
    /// Request a timer callback.
    SetTimer {
        /// Key passed back to [`Kernel::handle_timer`].
        key: TimerKey,
        /// Delay from now.
        after: SimDuration,
    },
    /// A request message arrived for a local process.
    Deliver(MsgIn<X>),
    /// A Send issued by a local process completed (or failed).
    SendDone {
        /// The unblocked sender.
        pid: ProcessId,
        /// Its transaction.
        seq: SendSeq,
        /// The reply, or the failure.
        result: Result<ReplyIn<X>, SendError>,
    },
    /// A CopyTo bulk transfer completed (or failed).
    CopyDone {
        /// The transfer.
        xfer: XferId,
        /// Process that initiated it.
        initiator: ProcessId,
        /// Bytes copied, or the failure.
        result: Result<u64, SendError>,
    },
    /// Join an Ethernet multicast group (first local member of a global
    /// process group).
    JoinMcast(McastGroup),
    /// Leave an Ethernet multicast group (last member left).
    LeaveMcast(McastGroup),
}

/// Retransmissions before an orphaned transaction gives up even while
/// reply-pending packets keep arriving.
const HARD_RETRANSMIT_CAP: u32 = 200;

/// Workstation-local memory copy cost per KB (68010 block move).
const LOCAL_MEMCPY_PER_KB: SimDuration = SimDuration::from_micros(500);

/// The recovery paths ablation A2 turns off; every timing is a
/// [`vsim::calib`] constant.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Retransmissions before invalidating the binding cache entry and
    /// falling back to broadcast.
    pub retransmits_before_rebind: u32,
    /// Broadcast a NewBinding packet when a migrated logical host is
    /// unfrozen (the §3.1.4 optimization). Disable for ablation A2.
    pub broadcast_new_binding: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            retransmits_before_rebind: calib::RETRANSMITS_BEFORE_REBIND,
            broadcast_new_binding: true,
        }
    }
}

/// Kernel counters; experiment E6 reports the overhead-bearing ones.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Send operations issued by local processes.
    pub sends: u64,
    /// Sends resolved to a process on this workstation.
    pub local_sends: u64,
    /// Sends that went remote.
    pub remote_sends: u64,
    /// Request messages delivered to local processes.
    pub deliveries: u64,
    /// Reply operations issued by local processes.
    pub replies: u64,
    /// Request retransmissions sent.
    pub retransmissions: u64,
    /// Reply-pending packets sent for requests deferred because their
    /// target logical host is frozen (§3.1.3). Exported as the
    /// `reply_pendings_sent` counter, whose value clusterbench's pinned
    /// digests include.
    pub reply_pendings_sent: u64,
    /// Reply-pending packets sent for retransmitted requests that are
    /// already delivered and being served. Not exported.
    pub reply_pendings_in_service: u64,
    /// Reply-pending packets received.
    pub reply_pendings_received: u64,
    /// Replies discarded because the addressee's logical host was frozen.
    pub replies_discarded_frozen: u64,
    /// Requests deferred because the target logical host was frozen.
    pub deferred_requests: u64,
    /// Unicast packets for logical hosts not resident here (stale
    /// bindings; dropped).
    pub not_here: u64,
    /// Replies that matched no outstanding Send (duplicates, or extra
    /// group responses beyond the first).
    pub late_replies: u64,
    /// Freeze-state checks performed (13 µs each, §4.1).
    pub freeze_checks: u64,
    /// Local-group (kernel server / program manager) id resolutions
    /// (100 µs each, §4.1).
    pub group_lookups: u64,
    /// Packets routed by logical host and sent unicast because the
    /// binding cache knew the physical host. Exported as
    /// `binding_cache_hits`.
    pub unicast_routes: u64,
    /// Packets routed by logical host and sent by broadcast for lack of a
    /// binding. Exported as `binding_cache_misses`.
    pub broadcast_requests: u64,
    /// Bulk units transmitted (first attempts).
    pub bulk_units_sent: u64,
    /// Bulk unit retransmissions.
    pub bulk_units_retransmitted: u64,
    /// Requests relayed via a forwarding address (Demos/MP mode only).
    pub forwarded_requests: u64,
    /// CopyFrom pulls served for other kernels.
    pub pulls_served: u64,
    /// Outstanding Sends abandoned at the hard retransmission cap while
    /// reply-pending packets were still arriving — the server accepted the
    /// request but never replied (orphaned transaction). Cumulative; see
    /// [`KernelStats::orphans_resolved`] for how many were later cleared
    /// by renewed contact with the serving logical host.
    pub orphaned_transactions: u64,
    /// Orphaned transactions later resolved: the serving logical host
    /// answered a subsequent Send (it rebooted, recovered, or the
    /// partition healed), proving the orphan was transient rather than a
    /// leak.
    pub orphans_resolved: u64,
}

impl KernelStats {
    /// Total modeled kernel-operation overhead from the two §4.1
    /// mechanisms: 13 µs per freeze check + 100 µs per local-group lookup.
    pub fn overhead(&self) -> SimDuration {
        calib::FREEZE_CHECK_OVERHEAD * self.freeze_checks
            + calib::GROUP_ID_LOOKUP_OVERHEAD * self.group_lookups
    }
}

#[derive(Debug)]
struct Outstanding<X> {
    to: Destination,
    body: X,
    data_bytes: u64,
    /// Retransmissions since the last successful (re)bind.
    since_rebind: u32,
    total_retransmits: u32,
    rebound: bool,
    pending_seen: bool,
    is_group: bool,
}

#[derive(Debug, Clone, Copy)]
struct InProgress {
    local_requester: bool,
    target: ProcessId,
    /// The "serve" span opened when the request was delivered; closed when
    /// the reply is issued (or the transaction is aborted).
    serve_span: Option<SpanId>,
}

#[derive(Debug)]
struct PullState {
    initiator: ProcessId,
    src_host: HostAddr,
    from_lh: LogicalHostId,
    from_space: SpaceId,
    to_lh: LogicalHostId,
    to_space: SpaceId,
    pages: Vec<u32>,
    received_bytes: u64,
    highest_unit: Option<u32>,
    retries: u32,
}

#[derive(Debug)]
struct Retained<X> {
    from: ProcessId,
    body: X,
    data_bytes: u64,
    deadline: SimTime,
}

/// Serialized IPC state of an outstanding Send, carried in a migration
/// record.
#[derive(Debug, Clone)]
pub struct OutstandingDesc<X> {
    /// Blocked sender.
    pub from: ProcessId,
    /// Transaction.
    pub seq: SendSeq,
    /// Destination.
    pub to: Destination,
    /// Message body (retransmissions rebuild the packet from it).
    pub body: X,
    /// Appended data bytes.
    pub data_bytes: u64,
    /// Whether a reply-pending had been seen.
    pub pending_seen: bool,
    /// Whether this was a group send.
    pub is_group: bool,
    /// The client-side "ipc" span of the transaction, so the target kernel
    /// can keep tracking (and eventually close) it after migration.
    pub span: SpanContext,
}

/// Everything the kernel knows about a logical host, for migration: the
/// §3.1.3 "state in the kernel server and program manager".
#[derive(Debug, Clone)]
pub struct MigrationRecord<X> {
    /// Process table, spaces, seq counter.
    pub desc: LhDescriptor,
    /// Outstanding Sends issued by the logical host's processes.
    pub outstanding: Vec<OutstandingDesc<X>>,
    /// Requests being served by its processes: (requester, seq, target,
    /// serve span). The span context carries the serving kernel's open
    /// "serve" span so the new kernel closes it when the reply goes out.
    pub in_progress: Vec<(ProcessId, SendSeq, ProcessId, SpanContext)>,
    /// Replies its processes issued and still retain: (requester, seq,
    /// replier, body, data bytes).
    pub retained: Vec<(ProcessId, SendSeq, ProcessId, X, u64)>,
}

impl<X> MigrationRecord<X> {
    /// The paper's cost for copying this state: 14 ms + 9 ms per process
    /// and address space.
    pub fn copy_cost(&self) -> SimDuration {
        calib::KERNEL_STATE_COPY_BASE
            + calib::KERNEL_STATE_COPY_PER_OBJECT * self.desc.object_count()
    }
}

/// The kernel of one workstation.
pub struct Kernel<X> {
    host: HostAddr,
    cfg: KernelConfig,
    lhs: BTreeMap<LogicalHostId, LogicalHost<X>>,
    cache: BindingCache,
    well_known: BTreeMap<u32, ProcessId>,
    group_routes: BTreeMap<GroupId, McastGroup>,
    group_members: BTreeMap<GroupId, BTreeSet<ProcessId>>,
    outstanding: BTreeMap<(ProcessId, SendSeq), Outstanding<X>>,
    in_progress: BTreeMap<(ProcessId, SendSeq), Vec<InProgress>>,
    reply_cache: BTreeMap<(ProcessId, SendSeq), Retained<X>>,
    xfers: BTreeMap<XferId, OutXfer>,
    local_xfers: BTreeMap<XferId, (ProcessId, u64)>,
    pulls: BTreeMap<XferId, PullState>,
    forwarding: BTreeMap<LogicalHostId, HostAddr>,
    next_xfer: u64,
    stats: KernelStats,
    trace: Trace,
    /// Time of the last public entry point, so interior paths without a
    /// `now` parameter (retransmit timers, deferrals) can stamp trace
    /// records.
    now: SimTime,
    /// Deterministic allocator for this kernel's spans (actor = physical
    /// host, offset so it never collides with cluster-level actors).
    spans: SpanIdGen,
    /// Parent context for the *next* Send issued here; set by instrumented
    /// callers (e.g. the migration driver) and consumed by exactly one
    /// send so unrelated traffic is never mis-parented.
    span_parent: SpanContext,
    /// Client "ipc" spans still open, by transaction. Closed on SendDone
    /// (success or failure); migrated with their logical host.
    open_sends: BTreeMap<(ProcessId, SendSeq), SpanId>,
    /// Unresolved orphaned transactions per serving logical host. An entry
    /// is cleared (and counted in `stats.orphans_resolved`) when that
    /// logical host answers a later Send — renewed contact proves the
    /// server came back rather than leaked.
    orphaned_by_lh: BTreeMap<u32, u64>,
}

impl<X: Clone + std::fmt::Debug> Kernel<X> {
    /// Boots a kernel on physical host `host`, emitting into `trace`.
    pub fn new(host: HostAddr, cfg: KernelConfig, trace: Trace) -> Self {
        Kernel {
            host,
            cfg,
            lhs: BTreeMap::new(),
            cache: BindingCache::new(),
            well_known: BTreeMap::new(),
            group_routes: BTreeMap::new(),
            group_members: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            in_progress: BTreeMap::new(),
            reply_cache: BTreeMap::new(),
            xfers: BTreeMap::new(),
            local_xfers: BTreeMap::new(),
            pulls: BTreeMap::new(),
            forwarding: BTreeMap::new(),
            next_xfer: 0,
            stats: KernelStats::default(),
            trace,
            now: SimTime::ZERO,
            spans: SpanIdGen::new(0x100 + host.0 as u64),
            span_parent: SpanContext::NONE,
            open_sends: BTreeMap::new(),
            orphaned_by_lh: BTreeMap::new(),
        }
    }

    /// This kernel's physical host address.
    pub fn host(&self) -> HostAddr {
        self.host
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The overhead-bearing [`KernelStats`] counters under the scope
    /// label `scope`.
    pub fn metrics(&self, scope: &str) -> ScopeMetrics {
        let s = &self.stats;
        ScopeMetrics::new(scope)
            .with_counter(Subsystem::Kernel, "sends", s.sends)
            .with_counter(Subsystem::Kernel, "replies", s.replies)
            .with_counter(Subsystem::Kernel, "deliveries", s.deliveries)
            .with_counter(Subsystem::Kernel, "retransmissions", s.retransmissions)
            .with_counter(Subsystem::Kernel, "deferred_requests", s.deferred_requests)
            .with_counter(
                Subsystem::Kernel,
                "reply_pendings_sent",
                s.reply_pendings_sent,
            )
            .with_counter(Subsystem::Kernel, "binding_cache_hits", s.unicast_routes)
            .with_counter(
                Subsystem::Kernel,
                "binding_cache_misses",
                s.broadcast_requests,
            )
            .with_counter(
                Subsystem::Kernel,
                "orphaned_transactions",
                s.orphaned_transactions,
            )
    }

    /// The binding cache (for inspection).
    pub fn binding_cache(&self) -> &BindingCache {
        &self.cache
    }

    /// Parents the *next* Send issued on this kernel under `ctx`: its
    /// client "ipc" span (and therefore the remote "serve" span) becomes a
    /// child of the caller's span. Consumed by exactly one send.
    pub fn set_span_parent(&mut self, ctx: SpanContext) {
        self.span_parent = ctx;
    }

    /// The client span of an outstanding Send, for stamping packets.
    fn send_span_ctx(&self, pid: ProcessId, seq: SendSeq) -> SpanContext {
        self.open_sends
            .get(&(pid, seq))
            .map(|s| s.ctx())
            .unwrap_or(SpanContext::NONE)
    }

    /// Opens a "serve" span for a request delivered to a local process,
    /// parented on the client's propagated context.
    fn open_serve_span(&mut self, parent: SpanContext) -> SpanId {
        let sid = self.spans.next();
        sid.open(
            &mut self.trace,
            TraceLevel::Detail,
            self.now,
            Subsystem::Kernel,
            parent,
            "serve",
            self.host.0,
        );
        sid
    }

    /// Learns a logical-host binding out of band (e.g. from a service
    /// reply that names the chosen migration target).
    pub fn learn_binding(&mut self, lh: LogicalHostId, host: HostAddr) {
        self.cache.learn(lh, host);
    }

    /// True if `lh` is resident on this kernel.
    pub fn is_resident(&self, lh: LogicalHostId) -> bool {
        self.lhs.contains_key(&lh)
    }

    /// A resident logical host.
    pub fn logical_host(&self, lh: LogicalHostId) -> Option<&LogicalHost<X>> {
        self.lhs.get(&lh)
    }

    /// Mutable access to a resident logical host.
    pub fn logical_host_mut(&mut self, lh: LogicalHostId) -> Option<&mut LogicalHost<X>> {
        self.lhs.get_mut(&lh)
    }

    /// Ids of all resident logical hosts.
    pub fn resident_lhs(&self) -> Vec<LogicalHostId> {
        self.lhs.keys().copied().collect()
    }

    /// Number of resident logical hosts that are frozen.
    pub fn frozen_count(&self) -> usize {
        self.lhs.values().filter(|l| l.is_frozen()).count()
    }

    /// Creates an empty logical host here.
    ///
    /// # Panics
    ///
    /// Panics if the id is already resident.
    pub fn create_logical_host(&mut self, id: LogicalHostId) -> &mut LogicalHost<X> {
        assert!(
            !self.lhs.contains_key(&id),
            "logical host {id} already resident"
        );
        self.lhs.entry(id).or_insert_with(|| LogicalHost::new(id))
    }

    /// Registers the workstation's kernel-server or program-manager
    /// process for well-known local-group resolution.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a well-known index.
    pub fn register_well_known(&mut self, index: u32, pid: ProcessId) {
        assert!(
            matches!(index, KERNEL_SERVER_INDEX | PROGRAM_MANAGER_INDEX),
            "not a well-known index: {index}"
        );
        self.well_known.insert(index, pid);
    }

    /// Declares the Ethernet multicast route for a global group.
    pub fn set_group_route(&mut self, gid: GroupId, mcast: McastGroup) {
        self.group_routes.insert(gid, mcast);
    }

    /// Adds a local process to a global group.
    pub fn join_group(&mut self, gid: GroupId, pid: ProcessId) -> Vec<KernelOutput<X>> {
        let members = self.group_members.entry(gid).or_default();
        let first = members.is_empty();
        members.insert(pid);
        match (first, self.group_routes.get(&gid)) {
            (true, Some(&m)) => vec![KernelOutput::JoinMcast(m)],
            _ => Vec::new(),
        }
    }

    /// Removes a local process from a global group.
    pub fn leave_group(&mut self, gid: GroupId, pid: ProcessId) -> Vec<KernelOutput<X>> {
        if let Some(members) = self.group_members.get_mut(&gid) {
            members.remove(&pid);
            if members.is_empty() {
                if let Some(&m) = self.group_routes.get(&gid) {
                    return vec![KernelOutput::LeaveMcast(m)];
                }
            }
        }
        Vec::new()
    }

    // --- IPC primitives. ---

    /// Send: blocks `from` awaiting a reply and routes the message.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a live resident process.
    pub fn send(
        &mut self,
        now: SimTime,
        from: ProcessId,
        to: Destination,
        body: X,
        data_bytes: u64,
    ) -> Vec<KernelOutput<X>> {
        self.send_with_seq(now, from, to, body, data_bytes).1
    }

    /// Like [`Kernel::send`], also returning the allocated transaction
    /// number so callers can correlate the eventual completion.
    ///
    /// # Panics
    ///
    /// Panics if `from`'s logical host is not resident or does not hold
    /// the process `from`.
    #[allow(clippy::expect_used)]
    pub fn send_with_seq(
        &mut self,
        now: SimTime,
        from: ProcessId,
        to: Destination,
        body: X,
        data_bytes: u64,
    ) -> (SendSeq, Vec<KernelOutput<X>>) {
        self.now = now;
        self.stats.sends += 1;
        self.stats.freeze_checks += 1;
        let seq = {
            let lh = self
                .lhs
                .get_mut(&from.lh)
                .expect("send: sender's logical host not resident");
            let seq = lh.alloc_seq();
            let p = lh
                .process_mut(from.index)
                .filter(|p| p.is_alive())
                .expect("send: no such sender process");
            p.state = ProcessState::AwaitingReply { seq };
            seq
        };
        let parent = std::mem::replace(&mut self.span_parent, SpanContext::NONE);
        let sid = self.spans.next();
        sid.open(
            &mut self.trace,
            TraceLevel::Detail,
            now,
            Subsystem::Kernel,
            parent,
            "ipc",
            self.host.0,
        );
        self.open_sends.insert((from, seq), sid);
        let mut out = Vec::new();
        self.route_send(seq, from, to, body, data_bytes, false, sid.ctx(), &mut out);
        (seq, out)
    }

    /// Reply: completes a previously delivered request.
    ///
    /// If the request is unknown (e.g. the requester gave up) this is a
    /// no-op.
    pub fn reply(
        &mut self,
        now: SimTime,
        from: ProcessId,
        requester: ProcessId,
        seq: SendSeq,
        body: X,
        data_bytes: u64,
    ) -> Vec<KernelOutput<X>> {
        self.now = now;
        self.stats.replies += 1;
        self.stats.freeze_checks += 1;
        let mut out = Vec::new();
        let key = (requester, seq);
        let Some(entries) = self.in_progress.get_mut(&key) else {
            self.stats.late_replies += 1;
            return out;
        };
        let Some(pos) = entries.iter().position(|e| e.target == from) else {
            self.stats.late_replies += 1;
            return out;
        };
        let entry = entries.remove(pos);
        if entries.is_empty() {
            self.in_progress.remove(&key);
        }
        if let Some(s) = entry.serve_span {
            s.close(&mut self.trace, TraceLevel::Detail, now, Subsystem::Kernel);
        }

        // Retain the reply for retransmitted requests (§3.1.3).
        self.reply_cache.insert(
            key,
            Retained {
                from,
                body: body.clone(),
                data_bytes,
                deadline: now + calib::REPLY_RETENTION,
            },
        );
        out.push(KernelOutput::SetTimer {
            key: TimerKey::ReplyRetention(requester, seq),
            after: calib::REPLY_RETENTION,
        });

        if entry.local_requester && self.lhs.contains_key(&requester.lh) {
            // A group send may also have gone out by multicast; the first
            // reply (this one) wins and later remote replies are late.
            self.outstanding.remove(&(requester, seq));
            self.complete_local_send(requester, seq, body, &mut out);
        } else {
            let pkt = Packet::Reply {
                seq,
                from,
                to: requester,
                body,
                data_bytes,
            };
            self.transmit_routed(requester.lh, pkt, &mut out);
        }
        out
    }

    /// CopyTo: copies `pages` worth of address-space content into
    /// `(to_lh, to_space)`, locally or across the network.
    ///
    /// For a remote destination the binding must already be cached (the
    /// migration protocol learns it from the target-selection reply).
    pub fn copy_pages(
        &mut self,
        now: SimTime,
        initiator: ProcessId,
        to_lh: LogicalHostId,
        to_space: SpaceId,
        pages: Vec<u32>,
    ) -> (XferId, Vec<KernelOutput<X>>) {
        self.now = now;
        self.stats.freeze_checks += 1;
        let xfer = XferId(self.next_xfer);
        self.next_xfer += 1;
        let mut out = Vec::new();
        let bytes = pages.len() as u64 * PAGE_BYTES;

        if pages.is_empty() {
            out.push(KernelOutput::CopyDone {
                xfer,
                initiator,
                result: Ok(0),
            });
            return (xfer, out);
        }

        if self.lhs.contains_key(&to_lh) {
            // Workstation-local copy: charge the 68010 block-move cost.
            let kb = bytes.div_ceil(1024);
            self.local_xfers.insert(xfer, (initiator, bytes));
            out.push(KernelOutput::SetTimer {
                key: TimerKey::LocalCopyDone(xfer),
                after: LOCAL_MEMCPY_PER_KB * kb,
            });
            return (xfer, out);
        }

        let Some(dst_host) = self.cache.lookup(to_lh) else {
            out.push(KernelOutput::CopyDone {
                xfer,
                initiator,
                result: Err(SendError::NoBinding),
            });
            return (xfer, out);
        };

        let units = split_units(&pages, XFER_UNIT_BYTES);
        let x = OutXfer::new(initiator, to_lh, to_space, dst_host, units);
        self.xfers.insert(xfer, x);
        self.send_current_unit(xfer, &mut out);
        (xfer, out)
    }

    /// CopyFrom: asks the kernel hosting `from_lh` to blast `pages` of
    /// `from_space` into the local `(to_lh, to_space)`. Completion is
    /// reported as a [`KernelOutput::CopyDone`] with the pull's id.
    ///
    /// Requires a cached binding for `from_lh`; `to_lh` must be resident.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is non-empty and `to_lh` is not resident.
    #[allow(clippy::too_many_arguments)]
    pub fn pull_pages(
        &mut self,
        now: SimTime,
        initiator: ProcessId,
        from_lh: LogicalHostId,
        from_space: SpaceId,
        to_lh: LogicalHostId,
        to_space: SpaceId,
        pages: Vec<u32>,
    ) -> (XferId, Vec<KernelOutput<X>>) {
        self.now = now;
        self.stats.freeze_checks += 1;
        let pull = XferId(self.next_xfer);
        self.next_xfer += 1;
        let mut out = Vec::new();
        if pages.is_empty() {
            out.push(KernelOutput::CopyDone {
                xfer: pull,
                initiator,
                result: Ok(0),
            });
            return (pull, out);
        }
        assert!(self.lhs.contains_key(&to_lh), "pull into non-resident lh");
        let Some(src_host) = self.cache.lookup(from_lh) else {
            out.push(KernelOutput::CopyDone {
                xfer: pull,
                initiator,
                result: Err(SendError::NoBinding),
            });
            return (pull, out);
        };
        self.pulls.insert(
            pull,
            PullState {
                initiator,
                src_host,
                from_lh,
                from_space,
                to_lh,
                to_space,
                pages: pages.clone(),
                received_bytes: 0,
                highest_unit: None,
                retries: 0,
            },
        );
        let pkt = Packet::BulkPull {
            pull,
            from_lh,
            from_space,
            to_lh,
            to_space,
            pages,
        };
        let bytes = pkt.wire_bytes();
        out.push(KernelOutput::Transmit(Frame::unicast(
            self.host, src_host, bytes, pkt,
        )));
        out.push(KernelOutput::SetTimer {
            key: TimerKey::PullStart(pull),
            after: calib::RETRANSMIT_INTERVAL,
        });
        (pull, out)
    }

    // --- Migration support. ---

    /// Freezes a resident logical host (§3.1: suspend execution, defer
    /// external interactions).
    ///
    /// # Panics
    ///
    /// Panics if `lh` is not resident.
    #[allow(clippy::expect_used)]
    pub fn freeze(&mut self, lh: LogicalHostId) {
        self.lhs
            .get_mut(&lh)
            .expect("freeze: logical host not resident")
            .freeze();
    }

    /// Unfreezes a logical host in place (migration aborted): deferred
    /// requests are delivered locally.
    ///
    /// # Panics
    ///
    /// Panics if `lh` is not resident.
    #[allow(clippy::expect_used)]
    pub fn unfreeze_in_place(&mut self, now: SimTime, lh: LogicalHostId) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();
        let deferred = {
            let l = self
                .lhs
                .get_mut(&lh)
                .expect("unfreeze: logical host not resident");
            l.unfreeze();
            l.take_deferred()
        };
        for d in deferred {
            self.route_send(
                d.seq,
                d.from,
                d.dest,
                d.body,
                d.data_bytes,
                false,
                d.span,
                &mut out,
            );
        }
        out
    }

    /// Unfreezes a freshly migrated logical host on its **new** host:
    /// optionally broadcasts the new binding (§3.1.4 optimization) and
    /// delivers any requests deferred while the final copy completed.
    pub fn unfreeze_migrated(&mut self, now: SimTime, lh: LogicalHostId) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();
        if self.cfg.broadcast_new_binding {
            let pkt = Packet::NewBinding {
                lh,
                host: self.host,
            };
            let bytes = pkt.wire_bytes();
            out.push(KernelOutput::Transmit(Frame::broadcast(
                self.host, bytes, pkt,
            )));
        }
        out.extend(self.unfreeze_in_place(now, lh));
        out
    }

    /// Snapshot of a logical host's kernel state for migration, including
    /// in-flight IPC. Does not modify anything: the original keeps running
    /// (or stays frozen) until [`Kernel::delete_logical_host`].
    ///
    /// # Panics
    ///
    /// Panics if `lh` is not resident.
    #[allow(clippy::expect_used)]
    pub fn extract_migration_record(&self, lh: LogicalHostId) -> MigrationRecord<X> {
        let l = self.lhs.get(&lh).expect("extract: not resident");
        let desc = l.descriptor();
        // Sort everything pulled out of hash maps so the record — and the
        // timer/packet order it produces at install time — is a pure
        // function of kernel state, not of hashing.
        let mut outstanding: Vec<OutstandingDesc<X>> = self
            .outstanding
            .iter()
            .filter(|((from, _), _)| from.lh == lh)
            .map(|(&(from, seq), o)| OutstandingDesc {
                from,
                seq,
                to: o.to,
                body: o.body.clone(),
                data_bytes: o.data_bytes,
                pending_seen: o.pending_seen,
                is_group: o.is_group,
                span: self.send_span_ctx(from, seq),
            })
            .collect();
        outstanding.sort_by_key(|o| (o.from.lh.0, o.from.index, o.seq.0));
        let mut in_progress: Vec<(ProcessId, SendSeq, ProcessId, SpanContext)> = self
            .in_progress
            .iter()
            .flat_map(|(&(req, seq), entries)| {
                entries.iter().filter(|e| e.target.lh == lh).map(move |e| {
                    let span = e.serve_span.map(|s| s.ctx()).unwrap_or(SpanContext::NONE);
                    (req, seq, e.target, span)
                })
            })
            .collect();
        in_progress.sort_by_key(|&(req, seq, t, _)| (req.lh.0, req.index, seq.0, t.lh.0, t.index));
        let mut retained: Vec<(ProcessId, SendSeq, ProcessId, X, u64)> = self
            .reply_cache
            .iter()
            .filter(|(_, r)| r.from.lh == lh)
            .map(|(&(req, seq), r)| (req, seq, r.from, r.body.clone(), r.data_bytes))
            .collect();
        retained.sort_by_key(|&(req, seq, ..)| (req.lh.0, req.index, seq.0));
        MigrationRecord {
            desc,
            outstanding,
            in_progress,
            retained,
        }
    }

    /// Installs a migration record over the pre-copied target logical host
    /// `temp`, renaming it to the original id and leaving it **frozen**
    /// (the "two frozen identical copies" state of §3.1.3).
    ///
    /// # Panics
    ///
    /// Panics if `temp` is not resident or the original id already is.
    #[allow(clippy::expect_used)]
    pub fn install_migration_record(
        &mut self,
        now: SimTime,
        temp: LogicalHostId,
        record: &MigrationRecord<X>,
    ) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();
        let mut l = self.lhs.remove(&temp).expect("install: temp not resident");
        assert!(
            !self.lhs.contains_key(&record.desc.id),
            "install: original id already resident here"
        );
        l.adopt(&record.desc);
        l.freeze();
        self.lhs.insert(record.desc.id, l);

        for o in &record.outstanding {
            self.outstanding.insert(
                (o.from, o.seq),
                Outstanding {
                    to: o.to,
                    body: o.body.clone(),
                    data_bytes: o.data_bytes,
                    since_rebind: 0,
                    total_retransmits: 0,
                    rebound: false,
                    pending_seen: o.pending_seen,
                    is_group: o.is_group,
                },
            );
            // The client span re-homes here: this kernel closes it when
            // the migrated transaction finally completes.
            if let Some(sid) = o.span.span_id() {
                self.open_sends.insert((o.from, o.seq), sid);
            }
            out.push(KernelOutput::SetTimer {
                key: TimerKey::Retransmit(o.from, o.seq),
                after: calib::RETRANSMIT_INTERVAL,
            });
        }
        for &(req, seq, target, span) in &record.in_progress {
            self.in_progress
                .entry((req, seq))
                .or_default()
                .push(InProgress {
                    local_requester: req.lh == record.desc.id,
                    target,
                    serve_span: span.span_id(),
                });
        }
        for (req, seq, from, body, data_bytes) in &record.retained {
            self.reply_cache.insert(
                (*req, *seq),
                Retained {
                    from: *from,
                    body: body.clone(),
                    data_bytes: *data_bytes,
                    deadline: now + calib::REPLY_RETENTION,
                },
            );
            out.push(KernelOutput::SetTimer {
                key: TimerKey::ReplyRetention(*req, *seq),
                after: calib::REPLY_RETENTION,
            });
        }
        out
    }

    /// Deletes a logical host (after successful migration, or to destroy a
    /// program). Queued/deferred messages are discarded; local senders'
    /// Sends are restarted (and now route remotely); remote senders
    /// recover by retransmission (§3.1.3).
    pub fn delete_logical_host(&mut self, now: SimTime, lh: LogicalHostId) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();
        let Some(mut l) = self.lhs.remove(&lh) else {
            return out;
        };
        let deferred = l.take_deferred();
        drop(l);

        // Drop IPC state belonging to the departed logical host. Open
        // spans are dropped without a close record: after a migration the
        // re-homed copy of the transaction closes them on the new kernel,
        // and on outright destruction they are left unclosed (a query, not
        // a violation — the transaction really never completed here).
        self.outstanding.retain(|(from, _), _| from.lh != lh);
        self.open_sends.retain(|(from, _), _| from.lh != lh);
        self.in_progress.retain(|_, entries| {
            entries.retain(|e| e.target.lh != lh);
            !entries.is_empty()
        });
        self.reply_cache.retain(|_, r| r.from.lh != lh);

        // Restart local senders; remote senders will retransmit.
        for d in deferred {
            if d.local_sender && self.lhs.contains_key(&d.from.lh) {
                self.route_send(
                    d.seq,
                    d.from,
                    d.dest,
                    d.body,
                    d.data_bytes,
                    false,
                    d.span,
                    &mut out,
                );
            }
        }
        out
    }

    /// Demos/MP-mode deletion (ablation A2): like
    /// [`Kernel::delete_logical_host`] but leaves a forwarding address
    /// behind, through which this host relays misdirected requests to
    /// `new_host` and sends the requester an address update — the
    /// residual dependency the paper's design avoids (§5).
    pub fn delete_logical_host_with_forwarding(
        &mut self,
        now: SimTime,
        lh: LogicalHostId,
        new_host: HostAddr,
    ) -> Vec<KernelOutput<X>> {
        let out = self.delete_logical_host(now, lh);
        self.forwarding.insert(lh, new_host);
        out
    }

    /// Drops all forwarding addresses — what a reboot of the old host does
    /// to Demos/MP-style residual state.
    pub fn clear_forwarding(&mut self) {
        self.forwarding.clear();
    }

    /// Number of live forwarding entries (residual state held for other
    /// hosts' benefit).
    pub fn forwarding_entries(&self) -> usize {
        self.forwarding.len()
    }

    /// Outstanding client Sends — requester, sequence number, and the
    /// destination logical host where one is known (`None` for global
    /// groups) — sorted. Input to the cluster-wide transaction-drain
    /// audit.
    pub fn outstanding_sends(&self) -> Vec<(ProcessId, SendSeq, Option<LogicalHostId>)> {
        let mut v: Vec<_> = self
            .outstanding
            .iter()
            .map(|(&(from, seq), o)| (from, seq, o.to.routing_lh()))
            .collect();
        v.sort_by_key(|&(from, seq, _)| (from.lh.0, from.index, seq.0));
        v
    }

    /// Number of outstanding client Sends (the length of
    /// [`Kernel::outstanding_sends`], without building it).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Orphaned transactions not yet resolved by renewed contact with
    /// their serving logical host, summed over servers. Non-zero at the
    /// end of a run means a server this kernel charged with an orphan
    /// never came back (it was destroyed, or stayed partitioned).
    pub fn unresolved_orphans(&self) -> u64 {
        self.orphaned_by_lh.values().sum()
    }

    /// Number of bulk transfers this kernel is currently a party to:
    /// outgoing copies, local fills awaiting completion, and pulls being
    /// served for other kernels.
    pub fn active_transfers(&self) -> usize {
        self.xfers.len() + self.local_xfers.len() + self.pulls.len()
    }

    /// Re-arms timing state after the workstation reboots.
    ///
    /// A crash loses every pending timer callback: without this,
    /// outstanding Sends would never retransmit again and bulk transfers
    /// would hang forever. Re-arms a retransmission timer per outstanding
    /// Send and a retention timer per retained reply, and fails bulk
    /// transfers that were in flight (their pacing state is gone;
    /// initiators recover by retrying at a higher level).
    ///
    /// # Panics
    ///
    /// Panics if a transfer listed from the kernel's own tables vanishes
    /// before it is failed (an invariant guard).
    #[allow(clippy::expect_used)]
    pub fn reboot_recover(&mut self, now: SimTime) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();

        let mut sends: Vec<(ProcessId, SendSeq)> = self.outstanding.keys().copied().collect();
        sends.sort_by_key(|(p, s)| (p.lh.0, p.index, s.0));
        for (pid, seq) in sends {
            out.push(KernelOutput::SetTimer {
                key: TimerKey::Retransmit(pid, seq),
                after: calib::RETRANSMIT_INTERVAL,
            });
        }

        let mut retained: Vec<(ProcessId, SendSeq)> = self.reply_cache.keys().copied().collect();
        retained.sort_by_key(|(p, s)| (p.lh.0, p.index, s.0));
        for (pid, seq) in retained {
            out.push(KernelOutput::SetTimer {
                key: TimerKey::ReplyRetention(pid, seq),
                after: calib::REPLY_RETENTION,
            });
        }

        let mut pushes: Vec<XferId> = self.xfers.keys().copied().collect();
        pushes.sort();
        for id in pushes {
            let x = self.xfers.remove(&id).expect("listed");
            // Pull-serving transfers are simply dropped: the puller's own
            // watchdog notices the stall and re-requests.
            if x.pull_tag.is_none() {
                out.push(KernelOutput::CopyDone {
                    xfer: id,
                    initiator: x.initiator,
                    result: Err(SendError::Timeout),
                });
            }
        }
        let mut locals: Vec<XferId> = self.local_xfers.keys().copied().collect();
        locals.sort();
        for id in locals {
            let (initiator, _) = self.local_xfers.remove(&id).expect("listed");
            out.push(KernelOutput::CopyDone {
                xfer: id,
                initiator,
                result: Err(SendError::Timeout),
            });
        }
        let mut pulls: Vec<XferId> = self.pulls.keys().copied().collect();
        pulls.sort();
        for id in pulls {
            let p = self.pulls.remove(&id).expect("listed");
            out.push(KernelOutput::CopyDone {
                xfer: id,
                initiator: p.initiator,
                result: Err(SendError::Timeout),
            });
        }
        out
    }

    /// Drops in-progress request state targeting `server` (a service
    /// process that crash-restarted and will never reply to requests it
    /// had accepted). The requesters' retransmissions then re-deliver
    /// those requests to the restarted server instead of drawing
    /// reply-pending packets forever. Returns how many were dropped; their
    /// serve spans close at `now`.
    pub fn abort_server_transactions(&mut self, now: SimTime, server: ProcessId) -> usize {
        self.now = now;
        let mut dropped = 0;
        let mut aborted_spans: Vec<SpanId> = Vec::new();
        self.in_progress.retain(|_, entries| {
            let before = entries.len();
            entries.retain(|e| {
                if e.target == server {
                    aborted_spans.extend(e.serve_span);
                    false
                } else {
                    true
                }
            });
            dropped += before - entries.len();
            !entries.is_empty()
        });
        // Sorted so the trace is independent of hash-map iteration order.
        aborted_spans.sort();
        for s in aborted_spans {
            s.close(&mut self.trace, TraceLevel::Detail, now, Subsystem::Kernel);
        }
        dropped
    }

    // --- Event handlers. ---

    /// Processes a frame delivered by the network.
    ///
    /// # Panics
    ///
    /// Panics if a pull found in the pull table vanishes before it is
    /// completed (an invariant guard).
    #[allow(clippy::expect_used)]
    pub fn handle_frame(&mut self, now: SimTime, frame: Frame<Packet<X>>) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();
        let src = frame.src;
        // "The cache is also updated based on incoming requests" (§3.1.4):
        // any packet naming a source logical host refreshes its binding —
        // but only if that logical host is not resident here (it may be
        // mid-migration *to* here, in which case routing prefers residency
        // anyway).
        if let Some(lh) = frame.payload.source_lh() {
            if !self.lhs.contains_key(&lh) {
                self.cache.learn(lh, src);
            }
        }
        match frame.payload {
            Packet::Request {
                seq,
                from,
                to,
                body,
                data_bytes,
                retransmission,
                span,
            } => self.on_request(
                now,
                src,
                seq,
                from,
                to,
                body,
                data_bytes,
                retransmission,
                span,
                &mut out,
            ),
            Packet::Reply {
                seq,
                from,
                to,
                body,
                ..
            } => self.on_reply(seq, from, to, body, &mut out),
            Packet::ReplyPending { seq, to, .. } => {
                if let Some(o) = self.outstanding.get_mut(&(to, seq)) {
                    o.pending_seen = true;
                    self.stats.reply_pendings_received += 1;
                }
            }
            Packet::BulkData {
                xfer,
                unit,
                last,
                bytes,
                to_lh,
                to_space,
                pull,
                ..
            } => {
                let ok = self
                    .lhs
                    .get_mut(&to_lh)
                    .and_then(|l| l.space_mut(to_space))
                    .map(|space| {
                        // Content arrives; size is what the model tracks.
                        debug_assert!(bytes > 0);
                        space.total_pages() > 0
                    })
                    .unwrap_or(false);
                let pkt = Packet::BulkAck {
                    xfer,
                    unit,
                    refused: !ok,
                };
                let b = pkt.wire_bytes();
                out.push(KernelOutput::Transmit(Frame::unicast(
                    self.host, src, b, pkt,
                )));
                // CopyFrom completion tracking at the puller.
                if let Some(pid) = pull {
                    if let Some(p) = self.pulls.get_mut(&pid) {
                        let new_unit = p.highest_unit.map(|h| unit > h).unwrap_or(true);
                        if new_unit {
                            p.highest_unit = Some(unit);
                            p.received_bytes += bytes;
                        }
                        if last && ok {
                            let p = self.pulls.remove(&pid).expect("checked");
                            out.push(KernelOutput::CopyDone {
                                xfer: pid,
                                initiator: p.initiator,
                                result: Ok(p.received_bytes),
                            });
                        }
                    }
                }
            }
            Packet::BulkAck {
                xfer,
                unit,
                refused,
            } => self.on_bulk_ack(xfer, unit, refused, &mut out),
            Packet::BulkPull {
                pull,
                from_lh,
                from_space,
                to_lh,
                to_space,
                pages,
            } => {
                // Serve a CopyFrom: start an ordinary push transfer back,
                // tagged with the puller's id. Duplicate BulkPulls (the
                // puller's watchdog retransmits) are ignored while a
                // tagged transfer is already running.
                let already = self.xfers.values().any(|x| x.pull_tag == Some(pull));
                let have_src = self
                    .lhs
                    .get(&from_lh)
                    .and_then(|l| l.space(from_space))
                    .is_some();
                if !have_src {
                    let pkt: Packet<X> = Packet::BulkPullNak { pull };
                    let b = pkt.wire_bytes();
                    out.push(KernelOutput::Transmit(Frame::unicast(
                        self.host, src, b, pkt,
                    )));
                } else if !already {
                    self.stats.pulls_served += 1;
                    self.cache.learn(to_lh, src);
                    let xfer = XferId(self.next_xfer);
                    self.next_xfer += 1;
                    let units = split_units(&pages, XFER_UNIT_BYTES);
                    let server = ProcessId::new(from_lh, 0);
                    let mut x = OutXfer::new(server, to_lh, to_space, src, units);
                    x.pull_tag = Some(pull);
                    self.xfers.insert(xfer, x);
                    self.send_current_unit(xfer, &mut out);
                }
            }
            Packet::BulkPullNak { pull } => {
                if let Some(p) = self.pulls.remove(&pull) {
                    out.push(KernelOutput::CopyDone {
                        xfer: pull,
                        initiator: p.initiator,
                        result: Err(SendError::Refused),
                    });
                }
            }
            Packet::NewBinding { lh, host } => {
                if !self.lhs.contains_key(&lh) {
                    self.cache.learn(lh, host);
                }
            }
        }
        out
    }

    /// Processes a timer callback.
    ///
    /// # Panics
    ///
    /// Panics if a pull found in the pull table vanishes before it is
    /// paced or completed (an invariant guard).
    #[allow(clippy::expect_used)]
    pub fn handle_timer(&mut self, now: SimTime, key: TimerKey) -> Vec<KernelOutput<X>> {
        self.now = now;
        let mut out = Vec::new();
        match key {
            TimerKey::Retransmit(pid, seq) => self.on_retransmit_timer(pid, seq, &mut out),
            TimerKey::ReplyRetention(pid, seq) => {
                let expired = self
                    .reply_cache
                    .get(&(pid, seq))
                    .map(|r| now >= r.deadline)
                    .unwrap_or(false);
                if expired {
                    self.reply_cache.remove(&(pid, seq));
                } else if let Some(r) = self.reply_cache.get(&(pid, seq)) {
                    // The retention deadline moved (sender retransmitted);
                    // re-arm for the remainder.
                    out.push(KernelOutput::SetTimer {
                        key,
                        after: r.deadline.saturating_since(now),
                    });
                }
            }
            TimerKey::XferPace(xfer, unit) => {
                let advance = self
                    .xfers
                    .get_mut(&xfer)
                    .map(|x| x.paced(unit))
                    .unwrap_or(false);
                if advance {
                    self.advance_xfer(xfer, &mut out);
                }
            }
            TimerKey::XferAckTimeout(xfer, unit) => self.on_xfer_ack_timeout(xfer, unit, &mut out),
            TimerKey::LocalCopyDone(xfer) => {
                if let Some((initiator, bytes)) = self.local_xfers.remove(&xfer) {
                    out.push(KernelOutput::CopyDone {
                        xfer,
                        initiator,
                        result: Ok(bytes),
                    });
                }
            }
            TimerKey::PullStart(pull) => {
                // No data yet: re-send the BulkPull, bounded.
                let retry = {
                    let Some(p) = self.pulls.get_mut(&pull) else {
                        return out;
                    };
                    if p.highest_unit.is_some() {
                        None // Data is flowing; the sender's acks drive it.
                    } else if p.retries >= calib::MAX_RETRANSMITS {
                        Some(false)
                    } else {
                        p.retries += 1;
                        Some(true)
                    }
                };
                match retry {
                    Some(true) => {
                        let p = self.pulls.get(&pull).expect("checked");
                        let pkt: Packet<X> = Packet::BulkPull {
                            pull,
                            from_lh: p.from_lh,
                            from_space: p.from_space,
                            to_lh: p.to_lh,
                            to_space: p.to_space,
                            pages: p.pages.clone(),
                        };
                        let b = pkt.wire_bytes();
                        let dst = p.src_host;
                        out.push(KernelOutput::Transmit(Frame::unicast(
                            self.host, dst, b, pkt,
                        )));
                        out.push(KernelOutput::SetTimer {
                            key: TimerKey::PullStart(pull),
                            after: calib::RETRANSMIT_INTERVAL,
                        });
                    }
                    Some(false) => {
                        let p = self.pulls.remove(&pull).expect("checked");
                        out.push(KernelOutput::CopyDone {
                            xfer: pull,
                            initiator: p.initiator,
                            result: Err(SendError::Timeout),
                        });
                    }
                    None => {}
                }
            }
        }
        out
    }

    // --- Internals. ---

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::expect_used)]
    fn route_send(
        &mut self,
        seq: SendSeq,
        from: ProcessId,
        to: Destination,
        body: X,
        data_bytes: u64,
        retransmission: bool,
        span: SpanContext,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        match to.routing_lh() {
            Some(lh) if self.lhs.contains_key(&lh) => {
                self.stats.local_sends += 1;
                self.deliver_local(
                    seq,
                    from,
                    to,
                    lh,
                    body,
                    data_bytes,
                    true,
                    retransmission,
                    span,
                    out,
                );
            }
            Some(lh) => {
                self.stats.remote_sends += 1;
                self.outstanding.insert(
                    (from, seq),
                    Outstanding {
                        to,
                        body: body.clone(),
                        data_bytes,
                        since_rebind: 0,
                        total_retransmits: 0,
                        rebound: false,
                        pending_seen: false,
                        is_group: false,
                    },
                );
                let pkt = Packet::Request {
                    seq,
                    from,
                    to,
                    body,
                    data_bytes,
                    retransmission,
                    span,
                };
                self.transmit_routed(lh, pkt, out);
                out.push(KernelOutput::SetTimer {
                    key: TimerKey::Retransmit(from, seq),
                    after: calib::RETRANSMIT_INTERVAL,
                });
            }
            None => {
                let Destination::Group(gid) = to else {
                    unreachable!("routing_lh() is None only for global groups");
                };
                self.outstanding.insert(
                    (from, seq),
                    Outstanding {
                        to,
                        body: body.clone(),
                        data_bytes,
                        since_rebind: 0,
                        total_retransmits: 0,
                        rebound: false,
                        pending_seen: false,
                        is_group: true,
                    },
                );
                // Local members hear it too.
                let members: Vec<ProcessId> = self
                    .group_members
                    .get(&gid)
                    .map(|m| m.iter().copied().filter(|&p| p != from).collect())
                    .unwrap_or_default();
                for m in members {
                    self.stats.deliveries += 1;
                    let serve = self.open_serve_span(span);
                    self.in_progress
                        .entry((from, seq))
                        .or_default()
                        .push(InProgress {
                            local_requester: true,
                            target: m,
                            serve_span: Some(serve),
                        });
                    out.push(KernelOutput::Deliver(MsgIn {
                        to: m,
                        from,
                        seq,
                        body: body.clone(),
                    }));
                }
                let mcast = *self
                    .group_routes
                    .get(&gid)
                    .expect("send to unrouted global group");
                let pkt = Packet::Request {
                    seq,
                    from,
                    to,
                    body,
                    data_bytes,
                    retransmission,
                    span,
                };
                let bytes = pkt.wire_bytes();
                out.push(KernelOutput::Transmit(
                    Frame::multicast(self.host, mcast, bytes, pkt).with_span(span),
                ));
                out.push(KernelOutput::SetTimer {
                    key: TimerKey::Retransmit(from, seq),
                    after: calib::RETRANSMIT_INTERVAL,
                });
            }
        }
    }

    /// Delivers (or defers) a request whose routing logical host is
    /// resident here.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::expect_used)]
    fn deliver_local(
        &mut self,
        seq: SendSeq,
        from: ProcessId,
        dest: Destination,
        lh: LogicalHostId,
        body: X,
        data_bytes: u64,
        local_sender: bool,
        retransmission: bool,
        span: SpanContext,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        self.stats.freeze_checks += 1;
        // Resolve the target process: direct, or via the well-known local
        // group of this workstation (kernel server / program manager).
        let target = match dest {
            Destination::Process(p) => p,
            Destination::Group(g) => {
                self.stats.group_lookups += 1;
                match self.well_known.get(&g.0.index) {
                    Some(&p) => p,
                    None => {
                        if local_sender {
                            self.fail_local_send(from, seq, SendError::Refused, out);
                        }
                        return;
                    }
                }
            }
        };

        // Freeze defers requests addressed *to processes* of the frozen
        // logical host (§3.1.3: the message is queued for the recipient).
        // Requests addressed through the lh's well-known *local groups*
        // target the workstation's kernel server / program manager, which
        // are not frozen — they must still be reachable (that is how a
        // suspended program gets resumed, and how migration is driven).
        let frozen = matches!(dest, Destination::Process(_))
            && self.lhs.get(&lh).map(|l| l.is_frozen()).unwrap_or(false);
        if frozen {
            let l = self.lhs.get_mut(&lh).expect("checked resident");
            let already = l.deferred_iter().any(|d| d.from == from && d.seq == seq);
            if !already {
                self.stats.deferred_requests += 1;
                self.trace.emit(
                    TraceLevel::Detail,
                    self.now,
                    Subsystem::Kernel,
                    TraceEvent::ReplyDeferred { lh: lh.0 },
                );
                let l = self.lhs.get_mut(&lh).expect("checked resident");
                l.defer(DeferredRequest {
                    seq,
                    from,
                    dest,
                    body,
                    data_bytes,
                    local_sender,
                    span,
                });
            }
            // "A reply-pending packet is sent to the sender on each
            // retransmission" (§3.1.3).
            if !local_sender && (retransmission || already) {
                self.stats.reply_pendings_sent += 1;
                let pkt = Packet::ReplyPending {
                    seq,
                    from: target,
                    to: from,
                };
                self.transmit_routed(from.lh, pkt, out);
            }
            return;
        }

        // Is the target process alive? (The target lives on the
        // workstation; for well-known groups it is outside `lh`.)
        let alive = self
            .lhs
            .get(&target.lh)
            .and_then(|l| l.process(target.index))
            .map(|p| p.is_alive())
            .unwrap_or(false);
        if !alive {
            if local_sender {
                self.fail_local_send(from, seq, SendError::Refused, out);
            }
            return;
        }

        self.stats.deliveries += 1;
        let serve = self.open_serve_span(span);
        self.in_progress
            .entry((from, seq))
            .or_default()
            .push(InProgress {
                local_requester: local_sender,
                target,
                serve_span: Some(serve),
            });
        out.push(KernelOutput::Deliver(MsgIn {
            to: target,
            from,
            seq,
            body,
        }));
    }

    #[allow(clippy::too_many_arguments)]
    fn on_request(
        &mut self,
        _now: SimTime,
        _src: HostAddr,
        seq: SendSeq,
        from: ProcessId,
        to: Destination,
        body: X,
        data_bytes: u64,
        retransmission: bool,
        span: SpanContext,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        match to.routing_lh() {
            Some(lh) if self.lhs.contains_key(&lh) => {
                // Duplicate suppression: retained reply? (lost-reply
                // recovery, §3.1.3.)
                if let Some(r) = self.reply_cache.get_mut(&(from, seq)) {
                    r.deadline = r.deadline.max(_now + calib::REPLY_RETENTION);
                    let pkt = Packet::Reply {
                        seq,
                        from: r.from,
                        to: from,
                        body: r.body.clone(),
                        data_bytes: r.data_bytes,
                    };
                    self.transmit_routed(from.lh, pkt, out);
                    return;
                }
                // Already delivered and being served: reply-pending.
                if let Some(entries) = self.in_progress.get(&(from, seq)) {
                    if let Some(e) = entries.first() {
                        self.stats.reply_pendings_in_service += 1;
                        let pkt = Packet::ReplyPending {
                            seq,
                            from: e.target,
                            to: from,
                        };
                        self.transmit_routed(from.lh, pkt, out);
                    }
                    return;
                }
                self.deliver_local(
                    seq,
                    from,
                    to,
                    lh,
                    body,
                    data_bytes,
                    false,
                    retransmission,
                    span,
                    out,
                );
            }
            Some(lh) => {
                if let Some(&fw) = self.forwarding.get(&lh) {
                    // Demos/MP mode: relay the request and send the
                    // requester an address update.
                    self.stats.forwarded_requests += 1;
                    let pkt = Packet::Request {
                        seq,
                        from,
                        to,
                        body,
                        data_bytes,
                        retransmission,
                        span,
                    };
                    let bytes = pkt.wire_bytes();
                    out.push(KernelOutput::Transmit(
                        Frame::unicast(self.host, fw, bytes, pkt).with_span(span),
                    ));
                    let update = Packet::NewBinding { lh, host: fw };
                    let ub = update.wire_bytes();
                    out.push(KernelOutput::Transmit(Frame::unicast(
                        self.host, _src, ub, update,
                    )));
                } else {
                    // Stale binding or broadcast probe for a logical host
                    // that is not here: drop; the sender recovers by
                    // rebinding (§3.1.4).
                    self.stats.not_here += 1;
                }
            }
            None => {
                let Destination::Group(gid) = to else {
                    unreachable!();
                };
                if self.in_progress.contains_key(&(from, seq)) {
                    return; // Duplicate multicast.
                }
                let members: Vec<ProcessId> = self
                    .group_members
                    .get(&gid)
                    .map(|m| m.iter().copied().collect())
                    .unwrap_or_default();
                for m in members {
                    self.stats.deliveries += 1;
                    let serve = self.open_serve_span(span);
                    self.in_progress
                        .entry((from, seq))
                        .or_default()
                        .push(InProgress {
                            local_requester: false,
                            target: m,
                            serve_span: Some(serve),
                        });
                    out.push(KernelOutput::Deliver(MsgIn {
                        to: m,
                        from,
                        seq,
                        body: body.clone(),
                    }));
                }
            }
        }
    }

    fn on_reply(
        &mut self,
        seq: SendSeq,
        from: ProcessId,
        to: ProcessId,
        body: X,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        if !self.outstanding.contains_key(&(to, seq)) {
            self.stats.late_replies += 1;
            return;
        }
        // Replies to frozen logical hosts are discarded; the sender's
        // retransmissions keep the replier's retention alive (§3.1.3).
        let frozen = self.lhs.get(&to.lh).map(|l| l.is_frozen()).unwrap_or(false);
        if frozen {
            self.stats.replies_discarded_frozen += 1;
            return;
        }
        self.outstanding.remove(&(to, seq));
        // Renewed contact: a reply from a logical host we had charged with
        // orphaned transactions proves the server came back (reboot
        // recovery, partition heal) — resolve them instead of warning
        // forever.
        if let Some(count) = self.orphaned_by_lh.remove(&from.lh.0) {
            self.stats.orphans_resolved += count;
            self.trace.emit(
                TraceLevel::Info,
                self.now,
                Subsystem::Kernel,
                TraceEvent::OrphansResolved {
                    lh: from.lh.0,
                    count,
                },
            );
        }
        self.complete_local_send(to, seq, body, out);
    }

    fn complete_local_send(
        &mut self,
        pid: ProcessId,
        seq: SendSeq,
        body: X,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        // Duplicate completions are already excluded upstream (the
        // outstanding entry or in-progress record is consumed exactly
        // once). Server processes multiplex several logical transactions
        // over one pid — in real V they would be teams of worker
        // processes — so the process state is updated best-effort only.
        if let Some(p) = self
            .lhs
            .get_mut(&pid.lh)
            .and_then(|l| l.process_mut(pid.index))
        {
            if matches!(p.state, ProcessState::AwaitingReply { seq: s } if s == seq) {
                p.state = ProcessState::Ready;
            }
        }
        if let Some(sid) = self.open_sends.remove(&(pid, seq)) {
            sid.close(
                &mut self.trace,
                TraceLevel::Detail,
                self.now,
                Subsystem::Kernel,
            );
        }
        out.push(KernelOutput::SendDone {
            pid,
            seq,
            result: Ok(ReplyIn { body }),
        });
    }

    fn fail_local_send(
        &mut self,
        pid: ProcessId,
        seq: SendSeq,
        err: SendError,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        if let Some(l) = self.lhs.get_mut(&pid.lh) {
            if let Some(p) = l.process_mut(pid.index) {
                if matches!(p.state, ProcessState::AwaitingReply { seq: s } if s == seq) {
                    p.state = ProcessState::Ready;
                }
            }
        }
        if let Some(sid) = self.open_sends.remove(&(pid, seq)) {
            sid.close(
                &mut self.trace,
                TraceLevel::Detail,
                self.now,
                Subsystem::Kernel,
            );
        }
        out.push(KernelOutput::SendDone {
            pid,
            seq,
            result: Err(err),
        });
    }

    /// Delay before the next retransmission of `(pid, seq)` after `tries`
    /// retries have already gone out: capped exponential backoff on the
    /// base interval with ±10% jitter. The jitter is a pure function of
    /// (host, sender, transaction, try), so synchronized senders
    /// de-correlate identically on every replay of a seed.
    fn retransmit_delay(&self, pid: ProcessId, seq: SendSeq, tries: u32) -> SimDuration {
        let base = calib::RETRANSMIT_INTERVAL;
        if tries == 0 {
            return base;
        }
        let backed = base.mul_f64(calib::RETRANSMIT_BACKOFF.powi(tries as i32));
        let capped = backed.min(calib::RETRANSMIT_MAX_INTERVAL).max(base);
        let key = (self.host.0 as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(((pid.lh.0 as u64) << 32) | pid.index as u64)
            .wrapping_add(seq.0.rotate_left(17))
            .wrapping_add(tries as u64);
        let u = DetRng::seed(key).unit();
        capped.mul_f64(0.9 + 0.2 * u)
    }

    #[allow(clippy::expect_used)]
    fn on_retransmit_timer(
        &mut self,
        pid: ProcessId,
        seq: SendSeq,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        let Some(o) = self.outstanding.get_mut(&(pid, seq)) else {
            return; // Completed; stale timer.
        };
        o.total_retransmits += 1;
        o.since_rebind += 1;
        let tries = o.total_retransmits;

        let (give_up, orphaned) = if o.pending_seen {
            let g = o.total_retransmits > HARD_RETRANSMIT_CAP;
            (g, g)
        } else {
            (o.total_retransmits > calib::MAX_RETRANSMITS, false)
        };
        if give_up {
            let lh = o.to.routing_lh().map_or(pid.lh.0, |l| l.0);
            self.outstanding.remove(&(pid, seq));
            if orphaned {
                // The server kept signalling reply-pending but never
                // replied: the transaction is orphaned, likely because the
                // serving logical host vanished mid-request.
                self.stats.orphaned_transactions += 1;
                *self.orphaned_by_lh.entry(lh).or_insert(0) += 1;
                self.trace.emit(
                    TraceLevel::Warn,
                    self.now,
                    Subsystem::Kernel,
                    TraceEvent::OrphanedTransaction { lh, tries },
                );
            }
            self.fail_local_send(pid, seq, SendError::Timeout, out);
            return;
        }

        // Invalidate the binding after a small number of retransmissions
        // and fall back to broadcasting the reference (§3.1.4).
        let (to, body, data_bytes, is_group) = (o.to, o.body.clone(), o.data_bytes, o.is_group);
        if !is_group && o.since_rebind >= self.cfg.retransmits_before_rebind && !o.rebound {
            o.rebound = true;
            o.since_rebind = 0;
            if let Some(lh) = to.routing_lh() {
                self.cache.invalidate(lh);
            }
        }

        self.stats.retransmissions += 1;
        self.trace.emit(
            TraceLevel::Detail,
            self.now,
            Subsystem::Kernel,
            TraceEvent::Retransmit {
                lh: to.routing_lh().map_or(pid.lh.0, |l| l.0),
                tries,
            },
        );
        let span = self.send_span_ctx(pid, seq);
        let pkt = Packet::Request {
            seq,
            from: pid,
            to,
            body,
            data_bytes,
            retransmission: true,
            span,
        };
        if is_group {
            let Destination::Group(gid) = to else {
                unreachable!();
            };
            let mcast = *self.group_routes.get(&gid).expect("unrouted group");
            let bytes = pkt.wire_bytes();
            out.push(KernelOutput::Transmit(
                Frame::multicast(self.host, mcast, bytes, pkt).with_span(span),
            ));
        } else {
            let lh = to.routing_lh().expect("non-group send routes by lh");
            self.transmit_routed(lh, pkt, out);
        }
        out.push(KernelOutput::SetTimer {
            key: TimerKey::Retransmit(pid, seq),
            after: self.retransmit_delay(pid, seq, tries),
        });
    }

    fn on_bulk_ack(
        &mut self,
        xfer: XferId,
        unit: u32,
        refused: bool,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        let Some(x) = self.xfers.get_mut(&xfer) else {
            return;
        };
        if refused {
            let initiator = x.initiator;
            self.xfers.remove(&xfer);
            out.push(KernelOutput::CopyDone {
                xfer,
                initiator,
                result: Err(SendError::Refused),
            });
            return;
        }
        if x.ack(unit) {
            self.advance_xfer(xfer, out);
        }
    }

    #[allow(clippy::expect_used)]
    fn on_xfer_ack_timeout(&mut self, xfer: XferId, unit: u32, out: &mut Vec<KernelOutput<X>>) {
        let retry = {
            let Some(x) = self.xfers.get_mut(&xfer) else {
                return;
            };
            if x.current_unit() != unit || x.current_acked() {
                return; // Stale, or already acked (pace pending).
            }
            x.retries += 1;
            if x.retries > calib::MAX_RETRANSMITS {
                None
            } else {
                Some(())
            }
        };
        match retry {
            None => {
                let x = self.xfers.remove(&xfer).expect("checked above");
                out.push(KernelOutput::CopyDone {
                    xfer,
                    initiator: x.initiator,
                    result: Err(SendError::Timeout),
                });
            }
            Some(()) => {
                self.stats.bulk_units_retransmitted += 1;
                self.retransmit_current_unit(xfer, out);
            }
        }
    }

    #[allow(clippy::expect_used)]
    fn advance_xfer(&mut self, xfer: XferId, out: &mut Vec<KernelOutput<X>>) {
        let more = {
            let x = self.xfers.get_mut(&xfer).expect("advancing unknown xfer");
            x.advance()
        };
        if more {
            self.send_current_unit(xfer, out);
        } else {
            let x = self.xfers.remove(&xfer).expect("xfer vanished");
            out.push(KernelOutput::CopyDone {
                xfer,
                initiator: x.initiator,
                result: Ok(x.total_bytes()),
            });
        }
    }

    #[allow(clippy::expect_used)]
    fn send_current_unit(&mut self, xfer: XferId, out: &mut Vec<KernelOutput<X>>) {
        let (frame, pace, ack_to) = {
            let x = self.xfers.get(&xfer).expect("sending on unknown xfer");
            let unit = x.unit();
            self.stats.bulk_units_sent += 1;
            let pkt: Packet<X> = Packet::BulkData {
                xfer,
                unit: x.current_unit(),
                last: x.on_last_unit(),
                bytes: unit.bytes,
                to_lh: x.to_lh,
                to_space: x.to_space,
                pages: unit.pages.clone(),
                pull: x.pull_tag,
            };
            let bytes = pkt.wire_bytes();
            let pace = calib::bulk_copy_time(unit.bytes);
            (
                Frame::unicast(self.host, x.dst_host, bytes, pkt),
                pace,
                pace + calib::RETRANSMIT_INTERVAL,
            )
        };
        let x = self.xfers.get(&xfer).expect("checked");
        let unit = x.current_unit();
        out.push(KernelOutput::Transmit(frame));
        out.push(KernelOutput::SetTimer {
            key: TimerKey::XferPace(xfer, unit),
            after: pace,
        });
        out.push(KernelOutput::SetTimer {
            key: TimerKey::XferAckTimeout(xfer, unit),
            after: ack_to,
        });
    }

    #[allow(clippy::expect_used)]
    fn retransmit_current_unit(&mut self, xfer: XferId, out: &mut Vec<KernelOutput<X>>) {
        let (frame, unit) = {
            let x = self.xfers.get(&xfer).expect("retransmitting unknown xfer");
            let unit = x.unit();
            let pkt: Packet<X> = Packet::BulkData {
                xfer,
                unit: x.current_unit(),
                last: x.on_last_unit(),
                bytes: unit.bytes,
                to_lh: x.to_lh,
                to_space: x.to_space,
                pages: unit.pages.clone(),
                pull: x.pull_tag,
            };
            let bytes = pkt.wire_bytes();
            (
                Frame::unicast(self.host, x.dst_host, bytes, pkt),
                x.current_unit(),
            )
        };
        out.push(KernelOutput::Transmit(frame));
        out.push(KernelOutput::SetTimer {
            key: TimerKey::XferAckTimeout(xfer, unit),
            after: calib::RETRANSMIT_INTERVAL,
        });
    }

    /// Transmits a packet routed by logical host: unicast when the binding
    /// cache knows the physical host, broadcast otherwise.
    fn transmit_routed(
        &mut self,
        lh: LogicalHostId,
        pkt: Packet<X>,
        out: &mut Vec<KernelOutput<X>>,
    ) {
        let bytes = pkt.wire_bytes();
        let span = match &pkt {
            Packet::Request { span, .. } => *span,
            _ => SpanContext::NONE,
        };
        match self.cache.lookup(lh) {
            Some(h) => {
                self.stats.unicast_routes += 1;
                out.push(KernelOutput::Transmit(
                    Frame::unicast(self.host, h, bytes, pkt).with_span(span),
                ))
            }
            None => {
                self.stats.broadcast_requests += 1;
                out.push(KernelOutput::Transmit(
                    Frame::broadcast(self.host, bytes, pkt).with_span(span),
                ));
            }
        }
    }
}
