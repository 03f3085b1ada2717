//! Simulation tracing.
//!
//! A cheap, always-deterministic event log. Scenarios and tests use it to
//! assert *how* a result was reached (e.g. "the logical host was frozen
//! exactly once", "no packet was sent to the old host after rebinding"),
//! and the examples print it to narrate runs.
//!
//! Records are **typed**: every entry is a [`TraceEvent`] variant tagged
//! with a [`Subsystem`], not a formatted string. Formatting happens lazily
//! on [`Display`](fmt::Display); tests match structurally with
//! [`Trace::count_matching`] instead of grepping message text, and emitting
//! a filtered-out record allocates nothing.
//!
//! A [`Trace`] is a handle: its clones append to one shared buffer, so a
//! cluster's wire, kernels, migrators and runtime write a single timeline
//! in emission order. Every emitter stamps the current instant, so that
//! order is also time order and nothing is merged or sorted afterwards.
//!
//! `vsim` sits below the kernel and network crates, so event fields carry
//! raw identifiers: `lh` is the numeric logical-host id, `host` values are
//! numeric physical-host addresses, `ws` is a station index.

use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::time::SimTime;

/// Severity/importance of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// High-volume detail (every packet).
    Detail,
    /// Normal protocol milestones (program started, copy round finished).
    Info,
    /// Abnormal events (packet dropped, retransmission, migration abort).
    Warn,
}

/// The layer a trace record or metric originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The discrete-event engine itself.
    Engine,
    /// The Ethernet model.
    Net,
    /// The distributed kernel (IPC, bindings, freezing).
    Kernel,
    /// Address spaces and dirty-page tracking.
    Memory,
    /// Servers outside the kernel (program manager, file server, display).
    Services,
    /// Synthetic program/user workload models.
    Workload,
    /// Remote-execution machinery (`@ machine`, `@ *`).
    Exec,
    /// Migration engine (pre-copy rounds, freeze, install).
    Migration,
    /// The whole-cluster runtime.
    Cluster,
}

impl Subsystem {
    /// Stable lower-case label used in reports and display output.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Net => "net",
            Subsystem::Kernel => "kernel",
            Subsystem::Memory => "memory",
            Subsystem::Services => "services",
            Subsystem::Workload => "workload",
            Subsystem::Exec => "exec",
            Subsystem::Migration => "migration",
            Subsystem::Cluster => "cluster",
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured trace event.
///
/// Hot-path variants (frames, retransmissions, deferrals) are `Copy`-cheap
/// with no owned data; milestone variants carry the program image name for
/// narration.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A remote/local execution finished setting up (or failed).
    ExecDone {
        /// Program image name.
        image: String,
        /// Chosen physical host address, if any.
        host: Option<u16>,
        /// Whether setup succeeded.
        success: bool,
        /// Host-selection phase, µs.
        selection_us: u64,
        /// Environment-creation + image-load phase, µs.
        creation_us: u64,
    },
    /// A program's root process started running.
    ProgramStarted {
        /// Program image name.
        image: String,
        /// Numeric logical-host id.
        lh: u32,
    },
    /// A migrated logical host was adopted by its new workstation.
    Adopted {
        /// Numeric logical-host id.
        lh: u32,
    },
    /// A logical host moved between physical hosts (eviction/rebind).
    Rebind {
        /// Numeric logical-host id.
        lh: u32,
        /// Old physical-host address.
        from: u16,
        /// New physical-host address.
        to: u16,
    },
    /// A migration completed (successfully or not).
    MigrationDone {
        /// Program image name.
        image: String,
        /// Numeric logical-host id.
        lh: u32,
        /// Whether the program runs on the new host.
        success: bool,
        /// Number of unfrozen pre-copy rounds.
        iterations: u32,
        /// Bytes copied while frozen, in KB.
        residual_kb: u64,
        /// Wall time frozen, µs.
        freeze_us: u64,
    },
    /// A logical host was frozen (§3.1: queue, don't process).
    Freeze {
        /// Numeric logical-host id.
        lh: u32,
    },
    /// A logical host was unfrozen.
    Unfreeze {
        /// Numeric logical-host id.
        lh: u32,
    },
    /// One unfrozen pre-copy round finished.
    PrecopyRound {
        /// Numeric logical-host id.
        lh: u32,
        /// Round number, starting at 1.
        round: u32,
        /// Dirty bytes copied this round, in KB.
        dirty_kb: u64,
    },
    /// The frozen residual copy finished.
    ResidualCopy {
        /// Numeric logical-host id.
        lh: u32,
        /// Residual bytes copied, in KB.
        kb: u64,
    },
    /// The wire dropped a frame (loss model or receiver down).
    FrameDropped {
        /// Sender physical-host address.
        from: u16,
        /// Receiver physical-host address.
        to: u16,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// An IPC send was retransmitted.
    Retransmit {
        /// Numeric logical-host id of the destination (the sender's own
        /// for group sends, which have no single destination host).
        lh: u32,
        /// Retry count so far.
        tries: u32,
    },
    /// A request was deferred with reply-pending (frozen or busy host).
    ReplyDeferred {
        /// Numeric logical-host id of the receiver.
        lh: u32,
    },
    /// A delivered request had no process to route to.
    Unroutable {
        /// Numeric logical-host id of the addressee.
        lh: u32,
        /// Local process index of the addressee.
        index: u32,
    },
    /// A started program image had no queued behaviour to attach.
    BehaviorMissing {
        /// Program image name.
        image: String,
    },
    /// A delivered frame failed its checksum and was discarded.
    CorruptFrame {
        /// Sender physical-host address.
        from: u16,
        /// Receiver physical-host address.
        to: u16,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A scripted fault fired.
    FaultInjected {
        /// Static fault-kind label (see `FaultKind::label`).
        kind: &'static str,
    },
    /// The hard retransmission cap expired a reply-pending transaction.
    OrphanedTransaction {
        /// Numeric logical-host id of the destination.
        lh: u32,
        /// Retransmissions attempted before giving up.
        tries: u32,
    },
    /// The cluster auditor found an invariant violation.
    AuditViolation {
        /// Static violation-kind label.
        kind: &'static str,
        /// Numeric logical-host id involved (0 when not applicable).
        lh: u32,
    },
    /// A migration retried host selection after its target failed.
    MigrationRetry {
        /// Numeric logical-host id being migrated.
        lh: u32,
        /// Selection attempt number (2 = first retry).
        attempt: u32,
    },
    /// A lease ran out past its grace window: the remote holder lost
    /// contact with the origin (`party` "target") or the origin lost the
    /// holder's heartbeats (`party` "origin").
    LeaseExpired {
        /// Numeric logical-host id of the leased program.
        lh: u32,
        /// Which side detected the silence ("target" or "origin").
        party: &'static str,
    },
    /// A remote program manager exterminated an orphaned program whose
    /// origin revoked (or stopped renewing) its lease.
    OrphanExterminated {
        /// Numeric logical-host id of the destroyed program.
        lh: u32,
    },
    /// An origin's liveness probe found its leased program alive on a
    /// (possibly different) host and rebound the lease instead of
    /// re-executing.
    LeaseRebound {
        /// Numeric logical-host id of the leased program.
        lh: u32,
        /// Physical-host address now holding the program.
        to: u16,
    },
    /// The origin re-executed a program whose remote host went silent and
    /// whose liveness probe went unanswered.
    ReExecuted {
        /// Numeric logical-host id of the lost program.
        lh: u32,
        /// Program image name being executed again.
        image: String,
    },
    /// A registered fault point was crossed while a matching
    /// `AtFaultPoint` trigger was armed; the paired fault fires next.
    FaultPointHit {
        /// Static protocol-step label.
        step: &'static str,
        /// Static party label ("source"/"target"/"origin").
        party: &'static str,
    },
    /// Renewed contact with a peer resolved previously orphaned
    /// transactions (the host came back).
    OrphansResolved {
        /// Numeric logical-host id of the peer.
        lh: u32,
        /// How many orphaned transactions were resolved.
        count: u64,
    },
    /// A causal span opened (see [`crate::span`]).
    SpanOpen {
        /// Raw span id (non-zero; see [`crate::SpanId`]).
        id: u64,
        /// Raw parent span id (0 = root).
        parent: u64,
        /// Static span name ("migration", "ipc", "quantum", ...).
        name: &'static str,
        /// Physical-host address of the opening component.
        host: u16,
    },
    /// A causal span closed.
    SpanClose {
        /// Raw span id.
        id: u64,
    },
    /// A causal span recorded whole when it ended: an interval known only
    /// at its end (a CPU quantum). The record is stamped with the close
    /// instant, so the trace stays in time order.
    SpanDone {
        /// Raw span id (non-zero).
        id: u64,
        /// Raw parent span id (0 = root).
        parent: u64,
        /// Static span name.
        name: &'static str,
        /// Physical-host address of the emitting component.
        host: u16,
        /// When the span opened.
        opened: SimTime,
    },
    /// Free-form milestone; the static text keeps emission allocation-free.
    Note {
        /// What happened.
        text: &'static str,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
                TraceEvent::ExecDone {
                    image,
                    host,
                    success,
                    selection_us,
                    creation_us,
                } => {
                    let outcome = if *success { "ok" } else { "FAILED" };
                    match host {
                        Some(h) => write!(
                            f,
                            "{image} @ host{h}: {outcome} (select {selection_us}us, create {creation_us}us)"
                        ),
                        None => write!(
                            f,
                            "{image}: {outcome} (select {selection_us}us, create {creation_us}us)"
                        ),
                    }
                }
                TraceEvent::ProgramStarted { image, lh } => {
                    write!(f, "program {image} started on lh{lh}")
                }
                TraceEvent::Adopted { lh } => write!(f, "adopted migrated lh{lh}"),
                TraceEvent::Rebind { lh, from, to } => {
                    write!(f, "lh{lh} moved host{from} -> host{to}")
                }
                TraceEvent::MigrationDone {
                    image,
                    lh,
                    success,
                    iterations,
                    residual_kb,
                    freeze_us,
                } => write!(
                    f,
                    "{image} (lh{lh}) {}: {iterations} iters, residual {residual_kb} KB, frozen {freeze_us}us",
                    if *success { "done" } else { "FAILED" }
                ),
                TraceEvent::Freeze { lh } => write!(f, "freeze lh{lh}"),
                TraceEvent::Unfreeze { lh } => write!(f, "unfreeze lh{lh}"),
                TraceEvent::PrecopyRound { lh, round, dirty_kb } => {
                    write!(f, "lh{lh} pre-copy round {round}: {dirty_kb} KB dirty")
                }
                TraceEvent::ResidualCopy { lh, kb } => {
                    write!(f, "lh{lh} residual copy: {kb} KB while frozen")
                }
                TraceEvent::FrameDropped { from, to, bytes } => {
                    write!(f, "dropped {bytes}B frame host{from} -> host{to}")
                }
                TraceEvent::Retransmit { lh, tries } => {
                    write!(f, "retransmit to lh{lh} (try {tries})")
                }
                TraceEvent::ReplyDeferred { lh } => {
                    write!(f, "reply-pending deferral for lh{lh}")
                }
                TraceEvent::Unroutable { lh, index } => {
                    write!(f, "unroutable request for lh{lh}.{index}")
                }
                TraceEvent::BehaviorMissing { image } => {
                    write!(f, "no pending behaviour for image {image}")
                }
                TraceEvent::CorruptFrame { from, to, bytes } => {
                    write!(f, "corrupt {bytes}B frame host{from} -> host{to} discarded")
                }
                TraceEvent::FaultInjected { kind } => write!(f, "fault injected: {kind}"),
                TraceEvent::OrphanedTransaction { lh, tries } => {
                    write!(f, "orphaned transaction to lh{lh} after {tries} tries")
                }
                TraceEvent::AuditViolation { kind, lh } => {
                    write!(f, "AUDIT VIOLATION {kind} (lh{lh})")
                }
                TraceEvent::MigrationRetry { lh, attempt } => {
                    write!(f, "lh{lh} migration retry, attempt {attempt}")
                }
                TraceEvent::LeaseExpired { lh, party } => {
                    write!(f, "lease for lh{lh} expired past grace ({party} side)")
                }
                TraceEvent::OrphanExterminated { lh } => {
                    write!(f, "orphan lh{lh} exterminated")
                }
                TraceEvent::LeaseRebound { lh, to } => {
                    write!(f, "lease for lh{lh} rebound to host{to}")
                }
                TraceEvent::ReExecuted { lh, image } => {
                    write!(f, "re-exec {image} (lost lh{lh})")
                }
                TraceEvent::FaultPointHit { step, party } => {
                    write!(f, "fault point {step}/{party} hit")
                }
                TraceEvent::OrphansResolved { lh, count } => {
                    write!(f, "{count} orphaned transactions to lh{lh} resolved")
                }
                TraceEvent::SpanOpen {
                    id,
                    parent,
                    name,
                    host,
                } => {
                    if *parent == 0 {
                        write!(f, "span open {name} #{id:x} @ host{host}")
                    } else {
                        write!(f, "span open {name} #{id:x} (in #{parent:x}) @ host{host}")
                    }
                }
                TraceEvent::SpanClose { id } => write!(f, "span close #{id:x}"),
                TraceEvent::SpanDone {
                    id,
                    parent,
                    name,
                    host,
                    opened,
                } => {
                    write!(f, "span {name} #{id:x} since {opened}")?;
                    if *parent != 0 {
                        write!(f, " (in #{parent:x})")?;
                    }
                    write!(f, " @ host{host}")
                }
                TraceEvent::Note { text } => f.write_str(text),
            }
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When it happened.
    pub at: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Originating layer.
    pub subsystem: Subsystem,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<10} {}",
            self.at.to_string(),
            self.subsystem,
            self.event
        )
    }
}

/// Buffer configuration, for carrying the choice through config structs
/// (e.g. `ClusterConfig`) without building the buffer eagerly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceSinkSpec {
    /// Keep every record — the default, and what the replay and chaos
    /// suites compare.
    #[default]
    Unbounded,
    /// Keep the most recent N records (min 1), evicting the oldest: the
    /// flight-recorder mode for long high-rate runs.
    Ring(usize),
    /// Keep nothing and disable emission entirely.
    Off,
}

/// The one buffer every handle to a trace appends to.
#[derive(Debug)]
struct Buffer {
    records: VecDeque<TraceRecord>,
    /// Ring capacity; `usize::MAX` keeps everything.
    cap: usize,
    dropped: u64,
}

/// A handle to a shared, level-filtered trace buffer.
///
/// Cloning a `Trace` yields another handle to the *same* buffer: a cluster
/// builds one trace and hands a clone to the wire, every kernel and every
/// migrator, so records from all of them land in one timeline in emission
/// order. The level filter and the on/off flag are copied into each
/// handle, so a disabled emit is one compare and touches no shared state.
///
/// # Examples
///
/// ```
/// use vsim::{SimTime, Subsystem, Trace, TraceEvent, TraceLevel};
///
/// let mut trace = Trace::new(TraceLevel::Info);
/// let mut kernel = trace.clone();
/// kernel.info(SimTime::ZERO, Subsystem::Kernel, TraceEvent::Freeze { lh: 3 });
/// trace.detail(SimTime::ZERO, Subsystem::Net, TraceEvent::Note { text: "filtered" });
/// assert_eq!(trace.records().len(), 1);
/// assert_eq!(trace.count_matching(|e| matches!(e, TraceEvent::Freeze { lh: 3 })), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    min_level: TraceLevel,
    on: bool,
    buf: Rc<RefCell<Buffer>>,
}

impl Trace {
    /// Creates a trace that keeps records at `min_level` and above, in an
    /// unbounded buffer.
    pub fn new(min_level: TraceLevel) -> Self {
        Trace::with_sink(min_level, TraceSinkSpec::Unbounded)
    }

    /// Creates a trace with an explicit buffer choice.
    pub fn with_sink(min_level: TraceLevel, spec: TraceSinkSpec) -> Self {
        let cap = match spec {
            TraceSinkSpec::Ring(cap) => cap.max(1),
            TraceSinkSpec::Unbounded | TraceSinkSpec::Off => usize::MAX,
        };
        Trace {
            min_level,
            on: spec != TraceSinkSpec::Off,
            buf: Rc::new(RefCell::new(Buffer {
                records: VecDeque::new(),
                cap,
                dropped: 0,
            })),
        }
    }

    /// A trace that discards everything below [`TraceLevel::Warn`].
    pub fn quiet() -> Self {
        Trace::new(TraceLevel::Warn)
    }

    /// True when records at `level` would be retained; callers building
    /// events with owned data (image names) should check this first so
    /// filtered-out records stay allocation-free.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.on && level >= self.min_level
    }

    /// Appends a record if it passes the level filter. A full ring evicts
    /// its oldest record first.
    ///
    /// # Panics
    ///
    /// Panics if a [`Trace::records`] borrow of the shared buffer is
    /// still alive.
    #[inline]
    pub fn emit(
        &mut self,
        level: TraceLevel,
        at: SimTime,
        subsystem: Subsystem,
        event: TraceEvent,
    ) {
        if self.enabled(level) {
            let mut b = self.buf.borrow_mut();
            if b.records.len() == b.cap {
                b.records.pop_front();
                b.dropped += 1;
            }
            b.records.push_back(TraceRecord {
                at,
                level,
                subsystem,
                event,
            });
        }
    }

    /// Records at [`TraceLevel::Detail`].
    pub fn detail(&mut self, at: SimTime, subsystem: Subsystem, event: TraceEvent) {
        self.emit(TraceLevel::Detail, at, subsystem, event);
    }

    /// Records at [`TraceLevel::Info`].
    pub fn info(&mut self, at: SimTime, subsystem: Subsystem, event: TraceEvent) {
        self.emit(TraceLevel::Info, at, subsystem, event);
    }

    /// Records at [`TraceLevel::Warn`].
    pub fn warn(&mut self, at: SimTime, subsystem: Subsystem, event: TraceEvent) {
        self.emit(TraceLevel::Warn, at, subsystem, event);
    }

    /// All retained records, oldest first, in emission order. Drop the
    /// returned borrow before emitting through any handle to this trace.
    pub fn records(&self) -> Ref<'_, [TraceRecord]> {
        if !self.buf.borrow().records.as_slices().1.is_empty() {
            self.buf.borrow_mut().records.make_contiguous();
        }
        Ref::map(self.buf.borrow(), |b| b.records.as_slices().0)
    }

    /// Records evicted by a full ring so far (0 for other buffers).
    pub fn records_dropped(&self) -> u64 {
        self.buf.borrow().dropped
    }

    /// Count of retained events matching `pred` — the structured
    /// replacement for grepping formatted messages.
    pub fn count_matching(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.buf
            .borrow()
            .records
            .iter()
            .filter(|r| pred(&r.event))
            .count()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(TraceLevel::Info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_filter_applies() {
        let mut t = Trace::new(TraceLevel::Info);
        t.detail(
            SimTime::ZERO,
            Subsystem::Net,
            TraceEvent::Note { text: "dropped" },
        );
        t.info(
            SimTime::ZERO,
            Subsystem::Kernel,
            TraceEvent::Freeze { lh: 1 },
        );
        t.warn(
            SimTime::ZERO,
            Subsystem::Net,
            TraceEvent::FrameDropped {
                from: 0,
                to: 1,
                bytes: 64,
            },
        );
        assert_eq!(t.records().len(), 2);
        assert!(!t.enabled(TraceLevel::Detail));
        assert!(t.enabled(TraceLevel::Warn));
    }

    #[test]
    fn quiet_keeps_only_warnings() {
        let mut t = Trace::quiet();
        t.info(
            SimTime::ZERO,
            Subsystem::Kernel,
            TraceEvent::Freeze { lh: 1 },
        );
        t.warn(
            SimTime::ZERO,
            Subsystem::Kernel,
            TraceEvent::Retransmit { lh: 1, tries: 2 },
        );
        assert_eq!(t.records().len(), 1);
        assert_eq!(t.records()[0].level, TraceLevel::Warn);
    }

    #[test]
    fn structured_queries() {
        let mut t = Trace::new(TraceLevel::Detail);
        t.info(
            SimTime::ZERO,
            Subsystem::Kernel,
            TraceEvent::Freeze { lh: 3 },
        );
        t.info(
            SimTime::ZERO,
            Subsystem::Kernel,
            TraceEvent::Unfreeze { lh: 3 },
        );
        t.detail(
            SimTime::ZERO,
            Subsystem::Net,
            TraceEvent::FrameDropped {
                from: 0,
                to: 2,
                bytes: 1024,
            },
        );
        assert_eq!(
            t.records()
                .iter()
                .filter(|r| r.subsystem == Subsystem::Kernel)
                .count(),
            2
        );
        assert_eq!(
            t.count_matching(|e| matches!(
                e,
                TraceEvent::Freeze { .. } | TraceEvent::Unfreeze { .. }
            )),
            2
        );
        assert_eq!(
            t.count_matching(|e| matches!(e, TraceEvent::FrameDropped { to: 2, .. })),
            1
        );
    }

    #[test]
    fn display_is_readable_and_lazy() {
        let mut t = Trace::default();
        t.info(
            SimTime::from_micros(23_000),
            Subsystem::Migration,
            TraceEvent::PrecopyRound {
                lh: 4,
                round: 2,
                dirty_kb: 36,
            },
        );
        let line = t.records()[0].to_string();
        assert!(line.contains("23.000ms"), "{line}");
        assert!(line.contains("migration"), "{line}");
        assert!(line.contains("round 2"), "{line}");
    }

    fn freeze_lhs(t: &Trace) -> Vec<u32> {
        t.records()
            .iter()
            .map(|r| {
                let TraceEvent::Freeze { lh } = r.event else {
                    unreachable!()
                };
                lh
            })
            .collect()
    }

    #[test]
    fn two_handles_interleave_in_emission_order() {
        let mut kernel = Trace::default();
        let mut migrator = kernel.clone();
        for lh in 0..3 {
            kernel.info(
                SimTime::from_micros(10 * u64::from(lh)),
                Subsystem::Kernel,
                TraceEvent::Freeze { lh: 2 * lh },
            );
            migrator.info(
                SimTime::from_micros(10 * u64::from(lh)),
                Subsystem::Migration,
                TraceEvent::Freeze { lh: 2 * lh + 1 },
            );
        }
        assert_eq!(freeze_lhs(&kernel), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(freeze_lhs(&migrator), freeze_lhs(&kernel));
    }

    #[test]
    fn ring_keeps_most_recent_records() {
        let mut t = Trace::with_sink(TraceLevel::Detail, TraceSinkSpec::Ring(4));
        for lh in 0..10 {
            t.info(
                SimTime::from_micros(u64::from(lh)),
                Subsystem::Kernel,
                TraceEvent::Freeze { lh },
            );
        }
        assert_eq!(t.records_dropped(), 6);
        assert_eq!(freeze_lhs(&t), vec![6, 7, 8, 9]);
    }

    #[test]
    fn shared_ring_keeps_last_cap_records_overall() {
        let mut a = Trace::with_sink(TraceLevel::Detail, TraceSinkSpec::Ring(3));
        let mut b = a.clone();
        let mut c = a.clone();
        for lh in 0..8 {
            let h = match lh % 3 {
                0 => &mut a,
                1 => &mut b,
                _ => &mut c,
            };
            h.info(SimTime::ZERO, Subsystem::Kernel, TraceEvent::Freeze { lh });
        }
        assert_eq!(freeze_lhs(&b), vec![5, 6, 7]);
        assert_eq!(c.records_dropped(), 5);
    }

    #[test]
    fn off_handle_reports_every_level_disabled() {
        let t = Trace::with_sink(TraceLevel::Detail, TraceSinkSpec::Off);
        let mut handle = t.clone();
        for level in [TraceLevel::Detail, TraceLevel::Info, TraceLevel::Warn] {
            assert!(!handle.enabled(level));
            handle.emit(
                level,
                SimTime::ZERO,
                Subsystem::Kernel,
                TraceEvent::Freeze { lh: 1 },
            );
        }
        assert!(t.records().is_empty());
    }
}
