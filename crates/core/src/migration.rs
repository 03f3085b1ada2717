//! Migration: the paper's §3.
//!
//! The [`Migrator`] is the client side of migration — conceptually the
//! migration module of the source workstation's program manager (§4.2). It
//! orchestrates the five steps of §3.1:
//!
//! 1. locate a willing workstation (program-manager group query);
//! 2. initialize the new host (temporary logical-host id, spaces);
//! 3. pre-copy the state (repeated dirty-page rounds);
//! 4. freeze, complete the copy, move the kernel/PM state;
//! 5. unfreeze the new copy, delete the old one, rebind references.
//!
//! Three strategies are implemented:
//!
//! * [`Strategy::PreCopy`] — the paper's contribution;
//! * [`Strategy::FreezeAndCopy`] — the strawman §3.1 argues against
//!   (freeze for the entire copy: seconds of suspension);
//! * [`Strategy::VmFlush`] — the §3.2 virtual-memory variant: flush
//!   modified pages to the file server and let the new host demand-fault
//!   them back (two transfers per dirty page, but the source evacuates
//!   without shipping clean pages).
//!
//! # Crash consistency
//!
//! A migration is a distributed transaction over two program managers and
//! the engine; its explicit states are the [`JobState`] ladder
//! (`Selecting → Initializing → PreCopying → FrozenFinalCopy →
//! InstallingState → Unfreezing`). The commit point is the target's
//! acknowledgement of `InstallState` — before it, the source copy is
//! authoritative and the temporary at the target is garbage the target's
//! watchdog reclaims; after it, the renamed copy at the target is
//! authoritative and the stale source copy is an orphan the lease protocol
//! exterminates. Every coordination message is idempotent on the target
//! side (`InitMigration` re-acks a resident temporary, `InstallState`
//! re-acks an already-committed rename, `UnfreezeMigrated` re-acks a
//! running copy), so the engine may retransmit any step after a timeout
//! without creating a second live copy, and a crash of either party at any
//! registered fault point converges to exactly one copy:
//!
//! * source crash before commit — the target's temporary is reclaimed by
//!   its watchdog; the origin's lease machinery re-executes if the source
//!   never reboots.
//! * source crash after commit — the target copy runs; the source's stale
//!   state died with it (a rebooted source holds nothing: logical hosts do
//!   not survive reboot).
//! * target crash mid-copy — the engine's transfer fails, the source
//!   unfreezes in place (§3.1.3) and remains the one copy.
//! * target crash after commit but before the source learns it — the
//!   unfreeze send times out, the source unfreezes in place; the rebooted
//!   target holds nothing, so the source copy is again the only one.
//!
//! The engine reports each protocol step it crosses as a
//! [`MigEvent::Point`]; the fault matrix (`vsim::fault_points`) hangs
//! crash/partition/corruption injections off these.

use std::collections::{BTreeMap, BTreeSet};

use vkernel::{Kernel, LogicalHostId, Priority, ProcessId, ReplyIn, SendError, SendSeq, XferId};
use vmem::SpaceId;
use vnet::HostAddr;
use vservices::{ServiceMsg, SvcError, SvcOutputs};
use vsim::calib::PAGE_BYTES;
use vsim::{
    ProtocolStep, Samples, ScopeMetrics, SimDuration, SimTime, SpanId, SpanIdGen, Subsystem, Trace,
    TraceEvent, TraceLevel,
};

use crate::report::{IterStat, MigFailure, MigrationReport};

/// When to stop pre-copying and freeze (§3.1.2: "until the number of
/// modified pages is relatively small or until no significant reduction
/// ... is achieved").
#[derive(Debug, Clone)]
pub struct StopPolicy {
    /// Hard cap on unfrozen copy rounds.
    pub max_iterations: u32,
    /// Freeze once the dirty residue is at most this many bytes.
    pub threshold_bytes: u64,
    /// Freeze when a round shrinks the dirty set by less than this factor
    /// (e.g. 0.9 = require at least a 10% reduction to continue).
    pub min_shrink: f64,
}

impl Default for StopPolicy {
    fn default() -> Self {
        StopPolicy {
            max_iterations: 4,
            threshold_bytes: 16 * PAGE_BYTES,
            min_shrink: 0.9,
        }
    }
}

impl StopPolicy {
    /// A fixed-round policy (ablation A1): exactly `n` unfrozen rounds.
    pub fn fixed(n: u32) -> Self {
        StopPolicy {
            max_iterations: n,
            threshold_bytes: 0,
            min_shrink: 1.0,
        }
    }

    /// Decides whether to freeze now, after `iterations` completed rounds,
    /// with `dirty_bytes` currently dirty and `last_round_bytes` copied in
    /// the latest round.
    pub fn should_freeze(&self, iterations: u32, dirty_bytes: u64, last_round_bytes: u64) -> bool {
        if iterations >= self.max_iterations {
            return true;
        }
        if dirty_bytes <= self.threshold_bytes {
            return true;
        }
        // No significant reduction: the dirty set stopped shrinking.
        if iterations > 1 && dirty_bytes as f64 >= last_round_bytes as f64 * self.min_shrink {
            return true;
        }
        false
    }
}

/// The logical host of the file server's paging store, which VM-flush
/// migration flushes to (§3.2). The cluster creates it on the
/// file-server machine.
pub const PAGING_LH: LogicalHostId = LogicalHostId(900_000);

/// The paging store's one address space.
pub const PAGING_SPACE: SpaceId = SpaceId(0);

/// Migration strategy.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// §3.1.2 pre-copy.
    PreCopy(StopPolicy),
    /// Freeze for the whole copy (the baseline the paper improves on).
    FreezeAndCopy,
    /// §3.2: flush modified pages to the file server's paging store
    /// ([`PAGING_LH`]); the new host demand-faults them back.
    VmFlush {
        /// Flush-round stop policy.
        stop: StopPolicy,
    },
}

impl Strategy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::PreCopy(_) => "pre-copy",
            Strategy::FreezeAndCopy => "freeze-and-copy",
            Strategy::VmFlush { .. } => "vm-flush",
        }
    }
}

/// Migration-engine configuration.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Strategy to use.
    pub strategy: Strategy,
    /// Additional selection attempts after a target declines or dies
    /// ("In our current implementation, we simply give up if the first
    /// attempt at migration fails" — so the paper's value is 0).
    pub retry_limit: u32,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            strategy: Strategy::PreCopy(StopPolicy::default()),
            retry_limit: 0,
        }
    }
}

/// Events the migration engine reports to the cluster runtime.
#[derive(Debug)]
pub enum MigEvent {
    /// The logical host now runs on `to_host`; the runtime must move the
    /// program's behaviour object there.
    Evicted {
        /// Migrated logical host.
        lh: LogicalHostId,
        /// Its new workstation.
        to_host: HostAddr,
    },
    /// Migration finished (successfully or not); full metrics attached.
    Done(Box<MigrationReport>),
    /// The program was destroyed instead (`migrateprog -n` with no host).
    Destroyed {
        /// The destroyed logical host.
        lh: LogicalHostId,
    },
    /// A failed migration unfroze the logical host in place; the runtime
    /// re-queues its program on the CPU.
    UnfrozeInPlace {
        /// The unfrozen logical host.
        lh: LogicalHostId,
    },
    /// The migration crossed a registered fault point
    /// ([`vsim::fault_points`]). The runtime resolves the parties
    /// involved (source = the emitting station, target = `target`, origin
    /// = the program's lease origin).
    Point {
        /// The migrating logical host.
        lh: LogicalHostId,
        /// The protocol step just crossed.
        step: ProtocolStep,
        /// The pre-copy round just completed (1-based), on
        /// [`ProtocolStep::PrecopyRound`] crossings only.
        round: Option<u32>,
        /// The target host, once one is chosen.
        target: Option<HostAddr>,
    },
}

/// Program metadata the engine needs for bookkeeping at the target.
#[derive(Debug, Clone)]
pub struct ProgramMeta {
    /// Image name.
    pub image: String,
    /// Priority on the new host.
    pub priority: Priority,
    /// Origin host of the program's lease, if any — travels in
    /// `InstallState` so the lease follows the program to the new host.
    pub origin: Option<HostAddr>,
}

/// Who to answer when the eviction completes.
#[derive(Debug, Clone, Copy)]
pub struct ReplyTo {
    /// Reply as this process (the program manager that received
    /// `migrateprog`).
    pub from: ProcessId,
    /// The requester.
    pub to: ProcessId,
    /// Their transaction.
    pub seq: SendSeq,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Selecting,
    Initializing,
    PreCopying,
    FrozenFinalCopy,
    InstallingState,
    Unfreezing,
}

struct Job {
    lh: LogicalHostId,
    meta: ProgramMeta,
    cfg: MigrationConfig,
    reply_to: Option<ReplyTo>,
    destroy_if_stuck: bool,
    state: JobState,
    started_at: SimTime,
    target: Option<(ProcessId, HostAddr)>,
    /// Hosts that already failed this migration; excluded from
    /// reselection.
    excluded: Vec<HostAddr>,
    temp: LogicalHostId,
    pending_xfers: BTreeSet<XferId>,
    iteration: u32,
    iter_started: SimTime,
    iter_bytes: u64,
    last_round_bytes: u64,
    iterations: Vec<IterStat>,
    residual_bytes: u64,
    freeze_started: Option<SimTime>,
    residual_copy_time: SimDuration,
    kernel_state_cost: SimDuration,
    network_bytes: u64,
    /// Unique bytes the VM-flush target will demand-fetch (plan size).
    fetch_bytes: u64,
    attempts: u32,
    /// The migration's root span, open from start to the terminal event.
    root_span: SpanId,
    /// The current top-level phase span (selection, initialization,
    /// precopy_round, freeze). Phases tile the root exactly: each closes
    /// at the instant the next opens.
    phase_span: Option<SpanId>,
    /// The current sub-phase of the freeze window (residual_copy, commit,
    /// rebind), tiling the freeze span the same way.
    freeze_child: Option<SpanId>,
}

/// Outcome counters and per-phase samples of one migration engine.
#[derive(Debug, Default)]
struct MigratorStats {
    /// Migrations started.
    started: u64,
    /// Migrations that unfroze on their target.
    succeeded: u64,
    /// Migrations that ended without moving the logical host.
    failed: u64,
    /// Restarts against a different target after a failed attempt.
    retried: u64,
    /// Freeze window of each successful migration, in ms.
    freeze_window_ms: Samples,
    /// Duration of each pre-copy round, in ms.
    precopy_round_ms: Samples,
    /// State left to copy once frozen, in KB.
    residual_kb: Samples,
    /// Start-to-unfreeze time of each successful migration, in ms.
    total_ms: Samples,
}

/// The migration engine of one workstation.
///
/// Sans-IO like everything else: the runtime routes `SendDone`/`CopyDone`
/// completions for the engine's process id into the handlers below and
/// applies what they append to its [`SvcOutputs`].
pub struct Migrator {
    pid: ProcessId,
    host: HostAddr,
    jobs: BTreeMap<LogicalHostId, Job>,
    by_seq: BTreeMap<SendSeq, LogicalHostId>,
    by_xfer: BTreeMap<XferId, LogicalHostId>,
    temp_base: u32,
    next_temp: u32,
    stats: MigratorStats,
    trace: Trace,
    spans: SpanIdGen,
}

impl Migrator {
    /// Creates the engine. `pid` is its process (in the workstation's
    /// system logical host); `temp_base` starts its private range of
    /// temporary logical-host ids. Phase spans and copy events go to
    /// `trace`.
    pub fn new(pid: ProcessId, host: HostAddr, temp_base: u32, trace: Trace) -> Self {
        Migrator {
            pid,
            host,
            jobs: BTreeMap::new(),
            by_seq: BTreeMap::new(),
            by_xfer: BTreeMap::new(),
            temp_base,
            next_temp: 0,
            stats: MigratorStats::default(),
            trace,
            spans: SpanIdGen::new(0x200 + host.0 as u64),
        }
    }

    /// The engine's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The outcome counters and per-phase histograms under the scope
    /// label `scope`.
    pub fn metrics(&self, scope: &str) -> ScopeMetrics {
        let s = &self.stats;
        ScopeMetrics::new(scope)
            .with_counter(Subsystem::Migration, "started", s.started)
            .with_counter(Subsystem::Migration, "succeeded", s.succeeded)
            .with_counter(Subsystem::Migration, "failed", s.failed)
            .with_counter(Subsystem::Migration, "retried", s.retried)
            .with_histogram(
                Subsystem::Migration,
                "freeze_window_ms",
                "ms",
                &s.freeze_window_ms,
            )
            .with_histogram(
                Subsystem::Migration,
                "precopy_round_ms",
                "ms",
                &s.precopy_round_ms,
            )
            .with_histogram(Subsystem::Migration, "residual_kb", "KB", &s.residual_kb)
            .with_histogram(Subsystem::Migration, "total_ms", "ms", &s.total_ms)
    }

    /// True while a migration of `lh` is in progress.
    pub fn migrating(&self, lh: LogicalHostId) -> bool {
        self.jobs.contains_key(&lh)
    }

    /// Number of active migrations.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Active migrations as (logical host, current temporary id), sorted —
    /// the cluster auditor uses this to tell legal transients (a
    /// duplicate copy mid-install, a resident temp) from leaks.
    pub fn active_jobs(&self) -> Vec<(LogicalHostId, LogicalHostId)> {
        let mut v: Vec<_> = self.jobs.iter().map(|(&lh, j)| (lh, j.temp)).collect();
        v.sort_by_key(|&(lh, _)| lh.0);
        v
    }

    /// Records the crossing of a registered fault-point step. Pushed
    /// before the step's own kernel outputs, so an injected crash lands
    /// before the step's messages leave the station.
    fn point(out: &mut SvcOutputs<MigEvent>, job: &Job, step: ProtocolStep) {
        out.events.push(MigEvent::Point {
            lh: job.lh,
            step,
            round: (step == ProtocolStep::PrecopyRound).then_some(job.iteration),
            target: job.target.map(|(_, h)| h),
        });
    }

    // --- Phase spans. The invariant throughout: top-level phase spans
    // tile the root migration span (each closes exactly when the next
    // opens), and freeze sub-phases tile the freeze span, so
    // `SpanTree::breakdown` of either sums to its parent's duration.

    /// Opens a top-level phase span (direct child of the migration root).
    fn open_phase(&mut self, now: SimTime, job: &mut Job, name: &'static str) {
        let sid = self.spans.next();
        sid.open(
            &mut self.trace,
            TraceLevel::Info,
            now,
            Subsystem::Migration,
            job.root_span.ctx(),
            name,
            self.host.0,
        );
        job.phase_span = Some(sid);
    }

    /// Closes the current phase span (and any open freeze sub-phase).
    fn close_phase(&mut self, now: SimTime, job: &mut Job) {
        if let Some(s) = job.freeze_child.take() {
            s.close(&mut self.trace, TraceLevel::Info, now, Subsystem::Migration);
        }
        if let Some(s) = job.phase_span.take() {
            s.close(&mut self.trace, TraceLevel::Info, now, Subsystem::Migration);
        }
    }

    /// Opens a sub-phase of the freeze window, closing the previous one.
    #[allow(clippy::expect_used)]
    fn open_freeze_child(&mut self, now: SimTime, job: &mut Job, name: &'static str) {
        if let Some(s) = job.freeze_child.take() {
            s.close(&mut self.trace, TraceLevel::Info, now, Subsystem::Migration);
        }
        let parent = job
            .phase_span
            .expect("freeze sub-phase outside a freeze span")
            .ctx();
        let sid = self.spans.next();
        sid.open(
            &mut self.trace,
            TraceLevel::Info,
            now,
            Subsystem::Migration,
            parent,
            name,
            self.host.0,
        );
        job.freeze_child = Some(sid);
    }

    /// Closes everything still open for the job, root included — the one
    /// terminal path all outcomes (success, failure, abandonment) share.
    fn close_root(&mut self, now: SimTime, job: &mut Job) {
        self.close_phase(now, job);
        job.root_span
            .close(&mut self.trace, TraceLevel::Info, now, Subsystem::Migration);
    }

    /// Begins migrating `lh` away from this workstation.
    ///
    /// # Panics
    ///
    /// Panics if `lh` is not resident or is already migrating.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        &mut self,
        now: SimTime,
        lh: LogicalHostId,
        meta: ProgramMeta,
        cfg: MigrationConfig,
        reply_to: Option<ReplyTo>,
        destroy_if_stuck: bool,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        assert!(k.is_resident(lh), "migrating a non-resident logical host");
        assert!(!self.jobs.contains_key(&lh), "already migrating {lh}");
        let temp = LogicalHostId(self.temp_base + self.next_temp);
        self.next_temp += 1;
        let root = self.spans.next();
        root.open(
            &mut self.trace,
            TraceLevel::Info,
            now,
            Subsystem::Migration,
            vsim::SpanContext::NONE,
            "migration",
            self.host.0,
        );
        let mut job = Job {
            lh,
            meta,
            cfg,
            reply_to,
            destroy_if_stuck,
            state: JobState::Selecting,
            started_at: now,
            target: None,
            excluded: Vec::new(),
            temp,
            pending_xfers: BTreeSet::new(),
            iteration: 0,
            iter_started: now,
            iter_bytes: 0,
            last_round_bytes: 0,
            iterations: Vec::new(),
            residual_bytes: 0,
            freeze_started: None,
            residual_copy_time: SimDuration::ZERO,
            kernel_state_cost: SimDuration::ZERO,
            network_bytes: 0,
            fetch_bytes: 0,
            attempts: 0,
            root_span: root,
            phase_span: None,
            freeze_child: None,
        };
        self.stats.started += 1;
        self.select_host(now, &mut job, k, out);
        self.jobs.insert(lh, job);
    }

    #[allow(clippy::expect_used)]
    fn select_host(
        &mut self,
        now: SimTime,
        job: &mut Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        Self::point(out, job, ProtocolStep::SelectHost);
        job.state = JobState::Selecting;
        job.attempts += 1;
        self.open_phase(now, job, "selection");
        let mut exclude_hosts = vec![self.host];
        exclude_hosts.extend(job.excluded.iter().copied());
        let query = ServiceMsg::QueryHost {
            host_name: None,
            exclude_hosts,
        };
        k.set_span_parent(job.phase_span.expect("just opened").ctx());
        let pms = vkernel::GroupId::PROGRAM_MANAGERS.into();
        let seq = k.send(now, self.pid, pms, query, 0, &mut out.kernel);
        self.by_seq.insert(seq, job.lh);
    }

    /// Routes a completion of one of the engine's Sends.
    ///
    /// # Panics
    ///
    /// Panics if the job's protocol state is inconsistent, e.g. a phase
    /// span that was just opened is missing. These are invariant guards,
    /// not error handling.
    #[allow(clippy::expect_used)]
    pub fn handle_send_done(
        &mut self,
        now: SimTime,
        seq: SendSeq,
        result: Result<ReplyIn<ServiceMsg>, SendError>,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        let Some(lh) = self.by_seq.remove(&seq) else {
            return;
        };
        let Some(mut job) = self.jobs.remove(&lh) else {
            return;
        };
        if k.logical_host(job.lh).is_none() {
            // The program exited (and its logical host was destroyed)
            // while a protocol step was in flight.
            return self.abandon_destroyed(now, job, k, out);
        }
        match job.state {
            JobState::Selecting => match result {
                Ok(ReplyIn {
                    body: ServiceMsg::HostCandidate { pm, host, .. },
                    ..
                }) => {
                    job.target = Some((pm, host));
                    job.state = JobState::Initializing;
                    self.close_phase(now, &mut job);
                    self.open_phase(now, &mut job, "initialization");
                    Self::point(out, &job, ProtocolStep::InitTarget);
                    let spaces: Vec<(SpaceId, _)> = k
                        .logical_host(lh)
                        .expect("job lh resident")
                        .descriptor()
                        .spaces;
                    let init = ServiceMsg::InitMigration {
                        temp: job.temp,
                        spaces,
                    };
                    k.set_span_parent(job.phase_span.expect("just opened").ctx());
                    let s = k.send(now, self.pid, pm.into(), init, 0, &mut out.kernel);
                    self.by_seq.insert(s, lh);
                    self.jobs.insert(lh, job);
                }
                _ => {
                    self.no_host(now, job, k, out);
                }
            },
            JobState::Initializing => match result {
                Ok(ReplyIn {
                    body: ServiceMsg::MigrationAccepted { host },
                    ..
                }) => {
                    k.learn_binding(job.temp, host);
                    self.close_phase(now, &mut job);
                    self.begin_copying(now, job, k, out);
                }
                _ => {
                    self.retry_or_fail(now, job, k, out, MigFailure::TargetRefused);
                }
            },
            JobState::InstallingState => match result {
                Ok(ReplyIn { body, .. }) if body.is_ok() => {
                    job.state = JobState::Unfreezing;
                    self.open_freeze_child(now, &mut job, "rebind");
                    // Commit point: the target holds an installed copy.
                    // The point event precedes the UnfreezeMigrated
                    // transmit in the output stream, so a fault here can
                    // kill the source before step 5 leaves it.
                    Self::point(out, &job, ProtocolStep::Unfreeze);
                    let (pm, _) = job.target.expect("target chosen");
                    let unfreeze = ServiceMsg::UnfreezeMigrated { lh: job.lh };
                    k.set_span_parent(job.freeze_child.expect("just opened").ctx());
                    let s = k.send(now, self.pid, pm.into(), unfreeze, 0, &mut out.kernel);
                    self.by_seq.insert(s, lh);
                    self.jobs.insert(lh, job);
                }
                _ => {
                    self.abort_frozen(now, job, k, out, MigFailure::InstallFailed);
                }
            },
            JobState::Unfreezing => match result {
                Ok(ReplyIn { body, .. }) if body.is_ok() => {
                    self.finish_success(now, job, k, out);
                }
                _ => {
                    self.abort_frozen(now, job, k, out, MigFailure::InstallFailed);
                }
            },
            s => {
                // A stale or duplicate completion (possible around
                // crash-restarts); keep the job as it is.
                let _ = s;
                self.jobs.insert(lh, job);
            }
        }
    }

    /// Routes a completion of one of the engine's bulk copies.
    ///
    /// # Panics
    ///
    /// Panics if the job's protocol state is inconsistent, e.g. a final
    /// copy that completes with no recorded freeze start. These are
    /// invariant guards, not error handling.
    #[allow(clippy::expect_used)]
    pub fn handle_copy_done(
        &mut self,
        now: SimTime,
        xfer: XferId,
        result: Result<u64, SendError>,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        let Some(lh) = self.by_xfer.remove(&xfer) else {
            return;
        };
        let Some(mut job) = self.jobs.remove(&lh) else {
            return;
        };
        if k.logical_host(job.lh).is_none() {
            // The program exited (and its logical host was destroyed)
            // while the copy was in flight.
            return self.abandon_destroyed(now, job, k, out);
        }
        match result {
            Ok(bytes) => {
                job.iter_bytes += bytes;
                job.network_bytes += bytes;
                job.pending_xfers.remove(&xfer);
                if !job.pending_xfers.is_empty() {
                    self.jobs.insert(lh, job);
                    return;
                }
                // Round complete.
                match job.state {
                    JobState::PreCopying => {
                        // Only unfrozen rounds count as pre-copy
                        // iterations; the frozen final copy is the
                        // residual.
                        job.iterations.push(IterStat {
                            bytes: job.iter_bytes,
                            duration: now.since(job.iter_started),
                        });
                        job.last_round_bytes = job.iter_bytes;
                        self.stats
                            .precopy_round_ms
                            .add(ms(now.since(job.iter_started)));
                        self.trace.emit(
                            TraceLevel::Detail,
                            now,
                            Subsystem::Migration,
                            TraceEvent::PrecopyRound {
                                lh: job.lh.0,
                                round: job.iteration,
                                dirty_kb: job.iter_bytes / 1024,
                            },
                        );
                        self.end_of_round(now, job, k, out);
                    }
                    JobState::FrozenFinalCopy => {
                        job.residual_copy_time =
                            now.since(job.freeze_started.expect("frozen before final copy"));
                        self.install_state(now, job, k, out);
                    }
                    s => {
                        // Stale completion for an abandoned round.
                        let _ = s;
                        self.jobs.insert(lh, job);
                    }
                }
            }
            Err(_) => {
                // The target (or paging server) died mid-copy. If frozen,
                // unfreeze in place to avoid timeouts (§3.1.3); an
                // unfrozen copy failure can retry against another host.
                if job.freeze_started.is_some() {
                    self.abort_frozen(now, job, k, out, MigFailure::CopyFailed);
                } else {
                    self.retry_or_fail(now, job, k, out, MigFailure::CopyFailed);
                }
            }
        }
    }

    // --- Copy phases. ---

    #[allow(clippy::expect_used)]
    fn begin_copying(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        if k.logical_host(job.lh).is_none() {
            return self.abandon_destroyed(now, job, k, out);
        }
        match job.cfg.strategy.clone() {
            Strategy::PreCopy(_) => {
                // Round 1: the complete address spaces, dirty bits cleared
                // first so the round's writes are visible afterwards.
                job.state = JobState::PreCopying;
                job.iteration = 1;
                self.start_round(now, job, k, RoundKind::FullSpaces, out)
            }
            Strategy::FreezeAndCopy => {
                job.iteration = 1;
                self.enter_freeze(now, &mut job, k, out);
                let mut total = 0;
                let spaces: Vec<SpaceId> = k
                    .logical_host(job.lh)
                    .expect("resident")
                    .spaces()
                    .map(|s| s.id())
                    .collect();
                for sid in spaces {
                    let space = k
                        .logical_host_mut(job.lh)
                        .and_then(|l| l.space_mut(sid))
                        .expect("space exists");
                    space.clear_dirty();
                    let pages: Vec<u32> = (0..space.total_pages()).collect();
                    total += pages.len() as u64 * PAGE_BYTES;
                    let xfer = k.copy_pages(now, self.pid, job.temp, sid, pages, &mut out.kernel);
                    job.pending_xfers.insert(xfer);
                    self.by_xfer.insert(xfer, job.lh);
                }
                job.residual_bytes = total;
                job.iter_started = now;
                job.iter_bytes = 0;
                Self::point(out, &job, ProtocolStep::ResidualCopy);
                self.jobs.insert(job.lh, job);
            }
            Strategy::VmFlush { .. } => {
                // Round 1: flush every page written since the program
                // started (clean pages reload from the image).
                job.state = JobState::PreCopying;
                job.iteration = 1;
                self.start_round(now, job, k, RoundKind::EverWritten, out)
            }
        }
    }

    #[allow(clippy::expect_used)]
    fn start_round(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        kind: RoundKind,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        if k.logical_host(job.lh).is_none() {
            return self.abandon_destroyed(now, job, k, out);
        }
        self.open_phase(now, &mut job, "precopy_round");
        job.iter_started = now;
        job.iter_bytes = 0;
        let (dest_lh, dest_space) = match &job.cfg.strategy {
            Strategy::VmFlush { .. } => (PAGING_LH, Some(PAGING_SPACE)),
            _ => (job.temp, None),
        };
        let spaces: Vec<SpaceId> = k
            .logical_host(job.lh)
            .expect("resident")
            .spaces()
            .map(|s| s.id())
            .collect();
        let mut any = false;
        for sid in spaces {
            let space = k
                .logical_host_mut(job.lh)
                .and_then(|l| l.space_mut(sid))
                .expect("space exists");
            let pages: Vec<u32> = match kind {
                RoundKind::FullSpaces => {
                    space.clear_dirty();
                    (0..space.total_pages()).collect()
                }
                RoundKind::EverWritten => {
                    space.clear_dirty();
                    space.ever_written_pages()
                }
                RoundKind::Dirty => space.take_dirty(),
            };
            if pages.is_empty() {
                continue;
            }
            any = true;
            let xfer = k.copy_pages(
                now,
                self.pid,
                dest_lh,
                dest_space.unwrap_or(sid),
                pages,
                &mut out.kernel,
            );
            job.pending_xfers.insert(xfer);
            self.by_xfer.insert(xfer, job.lh);
        }
        if !any {
            // Nothing to copy this round (e.g. a program that never wrote
            // anything): freeze immediately. The zero-width round span
            // still closes so the phase tiling stays exact.
            self.close_phase(now, &mut job);
            return self.freeze_and_final(now, job, k, out);
        }
        self.jobs.insert(job.lh, job);
    }

    #[allow(clippy::expect_used)]
    fn end_of_round(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        if k.logical_host(job.lh).is_none() {
            return self.abandon_destroyed(now, job, k, out);
        }
        self.close_phase(now, &mut job);
        Self::point(out, &job, ProtocolStep::PrecopyRound);
        let stop = match &job.cfg.strategy {
            Strategy::PreCopy(p) => p.clone(),
            Strategy::VmFlush { stop, .. } => stop.clone(),
            Strategy::FreezeAndCopy => unreachable!("no rounds in freeze-and-copy"),
        };
        let dirty: u64 = k
            .logical_host(job.lh)
            .expect("resident")
            .spaces()
            .map(|s| s.dirty_bytes())
            .sum();
        if stop.should_freeze(job.iteration, dirty, job.last_round_bytes) {
            self.freeze_and_final(now, job, k, out)
        } else {
            job.iteration += 1;
            self.start_round(now, job, k, RoundKind::Dirty, out)
        }
    }

    /// Freezes the logical host for the final copy and opens the freeze
    /// window's spans: the one `Freeze` crossing of every strategy.
    fn enter_freeze(
        &mut self,
        now: SimTime,
        job: &mut Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        k.freeze(job.lh);
        job.freeze_started = Some(now);
        self.open_phase(now, job, "freeze");
        self.open_freeze_child(now, job, "residual_copy");
        self.trace.emit(
            TraceLevel::Detail,
            now,
            Subsystem::Migration,
            TraceEvent::Freeze { lh: job.lh.0 },
        );
        job.state = JobState::FrozenFinalCopy;
        Self::point(out, job, ProtocolStep::Freeze);
    }

    #[allow(clippy::expect_used)]
    fn freeze_and_final(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        if k.logical_host(job.lh).is_none() {
            return self.abandon_destroyed(now, job, k, out);
        }
        self.enter_freeze(now, &mut job, k, out);
        job.iter_started = now;
        job.iter_bytes = 0;

        let (dest_lh, dest_space) = match &job.cfg.strategy {
            Strategy::VmFlush { .. } => (PAGING_LH, Some(PAGING_SPACE)),
            _ => (job.temp, None),
        };
        let spaces: Vec<SpaceId> = k
            .logical_host(job.lh)
            .expect("resident")
            .spaces()
            .map(|s| s.id())
            .collect();
        let mut residual = 0;
        for sid in spaces {
            let space = k
                .logical_host_mut(job.lh)
                .and_then(|l| l.space_mut(sid))
                .expect("space exists");
            let pages = space.take_dirty();
            if pages.is_empty() {
                continue;
            }
            residual += pages.len() as u64 * PAGE_BYTES;
            let xfer = k.copy_pages(
                now,
                self.pid,
                dest_lh,
                dest_space.unwrap_or(sid),
                pages,
                &mut out.kernel,
            );
            job.pending_xfers.insert(xfer);
            self.by_xfer.insert(xfer, job.lh);
        }
        job.residual_bytes = residual;
        self.stats.residual_kb.add(residual as f64 / 1024.0);
        self.trace.emit(
            TraceLevel::Detail,
            now,
            Subsystem::Migration,
            TraceEvent::ResidualCopy {
                lh: job.lh.0,
                kb: residual / 1024,
            },
        );
        Self::point(out, &job, ProtocolStep::ResidualCopy);
        if job.pending_xfers.is_empty() {
            // Nothing was dirty: go straight to the kernel-state copy.
            return self.install_state(now, job, k, out);
        }
        self.jobs.insert(job.lh, job);
    }

    #[allow(clippy::expect_used)]
    fn install_state(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        if k.logical_host(job.lh).is_none() {
            return self.abandon_destroyed(now, job, k, out);
        }
        job.state = JobState::InstallingState;
        self.open_freeze_child(now, &mut job, "commit");
        let record = k.extract_migration_record(job.lh);
        job.kernel_state_cost = record.copy_cost();
        // VM-flush: the target must fetch back everything we flushed —
        // exactly the pages ever written (clean pages reload from the
        // program image).
        let fetch = match &job.cfg.strategy {
            Strategy::VmFlush { .. } => {
                let l = k.logical_host(job.lh).expect("resident");
                let pages: Vec<(SpaceId, Vec<u32>)> = l
                    .spaces()
                    .map(|s| (s.id(), s.ever_written_pages()))
                    .collect();
                let plan = vservices::FetchPlan {
                    from_lh: PAGING_LH,
                    from_space: PAGING_SPACE,
                    pages,
                };
                job.fetch_bytes = plan.total_bytes();
                Some(plan)
            }
            _ => None,
        };
        let (pm, _) = job.target.expect("target chosen");
        let install = ServiceMsg::InstallState {
            temp: job.temp,
            record: Box::new(record),
            image: job.meta.image.clone(),
            priority: job.meta.priority,
            fetch,
            origin: job.meta.origin,
        };
        Self::point(out, &job, ProtocolStep::Commit);
        k.set_span_parent(job.freeze_child.expect("commit open").ctx());
        let s = k.send(now, self.pid, pm.into(), install, 0, &mut out.kernel);
        self.by_seq.insert(s, job.lh);
        self.jobs.insert(job.lh, job);
    }

    // --- Completion paths. ---

    #[allow(clippy::expect_used)]
    fn finish_success(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        self.close_root(now, &mut job);
        let freeze_time = now.since(job.freeze_started.expect("was frozen"));
        let (_, to_host) = job.target.expect("target chosen");
        self.stats.succeeded += 1;
        self.stats.freeze_window_ms.add(ms(freeze_time));
        self.stats.total_ms.add(ms(now.since(job.started_at)));
        self.trace.emit(
            TraceLevel::Detail,
            now,
            Subsystem::Migration,
            TraceEvent::Unfreeze { lh: job.lh.0 },
        );

        // Step 5: delete the old copy; references rebind via the binding
        // cache.
        Self::point(out, &job, ProtocolStep::ReleaseSource);
        k.delete_logical_host(now, job.lh, &mut out.kernel);

        if let Some(r) = job.reply_to {
            k.reply(now, r.from, r.to, r.seq, ServiceMsg::Ok, 0, &mut out.kernel);
        }

        // The unique flushed pages cross the network a second time when
        // the new host demand-fetches them from the paging store (the
        // fetch itself is real CopyFrom traffic, issued by the target's
        // program manager).
        let double_copied = job.fetch_bytes;
        let report = MigrationReport {
            lh: job.lh,
            image: job.meta.image.clone(),
            from_host: self.host,
            to_host: Some(to_host),
            strategy: job.cfg.strategy.name(),
            iterations: job.iterations.clone(),
            residual_bytes: job.residual_bytes,
            freeze_time,
            kernel_state_cost: job.kernel_state_cost,
            total_time: now.since(job.started_at),
            network_bytes: job.network_bytes + double_copied,
            double_copied_bytes: double_copied,
            success: true,
            failure: None,
        };
        out.events.push(MigEvent::Evicted {
            lh: job.lh,
            to_host,
        });
        out.events.push(MigEvent::Done(Box::new(report)));
    }

    fn no_host(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        if job.destroy_if_stuck {
            self.close_root(now, &mut job);
            // `migrateprog -n`: destroy rather than keep occupying the
            // workstation.
            k.delete_logical_host(now, job.lh, &mut out.kernel);
            if let Some(r) = job.reply_to {
                k.reply(now, r.from, r.to, r.seq, ServiceMsg::Ok, 0, &mut out.kernel);
            }
            out.events.push(MigEvent::Destroyed { lh: job.lh });
            self.stats.failed += 1;
            let report = self.report_failure(&job, now, MigFailure::Destroyed);
            out.events.push(MigEvent::Done(Box::new(report)));
        } else {
            self.fail(now, job, k, out, MigFailure::NoHostFound)
        }
    }

    /// The program exited (its logical host was destroyed) while the
    /// migration was still working on it. Abandon the job; any half-built
    /// temporary at the target is reclaimed by that station's watchdog.
    fn abandon_destroyed(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
    ) {
        for x in std::mem::take(&mut job.pending_xfers) {
            self.by_xfer.remove(&x);
        }
        self.fail(now, job, k, out, MigFailure::Destroyed)
    }

    fn retry_or_fail(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
        failure: MigFailure,
    ) {
        if job.attempts <= job.cfg.retry_limit {
            // The failed target is excluded from reselection, and the
            // attempt starts over against a fresh temporary id — the old
            // temp (if it was ever built) is reclaimed by the target's
            // own watchdog.
            if let Some((_, host)) = job.target.take() {
                if !job.excluded.contains(&host) {
                    job.excluded.push(host);
                }
            }
            for x in std::mem::take(&mut job.pending_xfers) {
                self.by_xfer.remove(&x);
            }
            job.temp = LogicalHostId(self.temp_base + self.next_temp);
            self.next_temp += 1;
            job.iteration = 0;
            job.iter_bytes = 0;
            job.last_round_bytes = 0;
            job.iterations.clear();
            job.residual_bytes = 0;
            job.freeze_started = None;
            self.close_phase(now, &mut job);
            self.stats.retried += 1;
            self.trace.emit(
                TraceLevel::Warn,
                now,
                Subsystem::Migration,
                TraceEvent::MigrationRetry {
                    lh: job.lh.0,
                    attempt: job.attempts + 1,
                },
            );
            self.select_host(now, &mut job, k, out);
            self.jobs.insert(job.lh, job);
        } else {
            self.fail(now, job, k, out, failure)
        }
    }

    fn abort_frozen(
        &mut self,
        now: SimTime,
        job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
        failure: MigFailure,
    ) {
        // "The logical host is unfrozen to avoid timeouts" (§3.1.3).
        k.unfreeze_in_place(now, job.lh, &mut out.kernel);
        out.events.push(MigEvent::UnfrozeInPlace { lh: job.lh });
        self.trace.emit(
            TraceLevel::Detail,
            now,
            Subsystem::Migration,
            TraceEvent::Unfreeze { lh: job.lh.0 },
        );
        self.fail(now, job, k, out, failure)
    }

    fn fail(
        &mut self,
        now: SimTime,
        mut job: Job,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs<MigEvent>,
        failure: MigFailure,
    ) {
        self.close_root(now, &mut job);
        if let Some(r) = job.reply_to {
            k.reply(
                now,
                r.from,
                r.to,
                r.seq,
                ServiceMsg::Err(SvcError::UpstreamFailed),
                0,
                &mut out.kernel,
            );
        }
        self.stats.failed += 1;
        let report = self.report_failure(&job, now, failure);
        out.events.push(MigEvent::Done(Box::new(report)));
    }

    fn report_failure(&self, job: &Job, now: SimTime, failure: MigFailure) -> MigrationReport {
        MigrationReport {
            lh: job.lh,
            image: job.meta.image.clone(),
            from_host: self.host,
            to_host: job.target.map(|(_, h)| h),
            strategy: job.cfg.strategy.name(),
            iterations: job.iterations.clone(),
            residual_bytes: job.residual_bytes,
            freeze_time: job
                .freeze_started
                .map(|f| now.since(f))
                .unwrap_or(SimDuration::ZERO),
            kernel_state_cost: job.kernel_state_cost,
            total_time: now.since(job.started_at),
            network_bytes: job.network_bytes,
            double_copied_bytes: 0,
            success: false,
            failure: Some(failure),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RoundKind {
    /// Copy everything (first pre-copy round).
    FullSpaces,
    /// Copy every page written since program start (first VM-flush round).
    EverWritten,
    /// Copy pages dirtied during the previous round.
    Dirty,
}

/// A duration in milliseconds, the unit of the migrator's time samples.
fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_policy_threshold() {
        let p = StopPolicy {
            max_iterations: 10,
            threshold_bytes: 32 * 1024,
            min_shrink: 0.9,
        };
        assert!(p.should_freeze(1, 16 * 1024, 1_000_000), "under threshold");
        assert!(!p.should_freeze(1, 100 * 1024, 1_000_000), "keep copying");
    }

    #[test]
    fn stop_policy_max_iterations() {
        let p = StopPolicy::default();
        assert!(p.should_freeze(4, 10_000_000, 1));
    }

    #[test]
    fn stop_policy_detects_diminishing_returns() {
        let p = StopPolicy {
            max_iterations: 10,
            threshold_bytes: 0,
            min_shrink: 0.9,
        };
        // Round 2 left nearly as much dirty as round 2 copied: stop.
        assert!(p.should_freeze(2, 95_000, 100_000));
        // Still shrinking fast: continue.
        assert!(!p.should_freeze(2, 40_000, 100_000));
        // Round 1 never stops on the shrink rule (nothing to compare).
        assert!(!p.should_freeze(1, 95_000, 2_000_000));
    }

    #[test]
    fn fixed_policy_runs_exactly_n_rounds() {
        let p = StopPolicy::fixed(2);
        assert!(!p.should_freeze(1, 1_000_000, 1_000_000));
        assert!(p.should_freeze(2, 1_000_000, 1_000_000));
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::PreCopy(StopPolicy::default()).name(), "pre-copy");
        assert_eq!(Strategy::FreezeAndCopy.name(), "freeze-and-copy");
        assert_eq!(
            Strategy::VmFlush {
                stop: StopPolicy::default()
            }
            .name(),
            "vm-flush"
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = MigrationConfig::default();
        assert_eq!(c.retry_limit, 0, "paper gives up after the first attempt");
        assert!(matches!(c.strategy, Strategy::PreCopy(_)));
    }

    /// A migrator on a kernel holding a system logical host (its own
    /// process) and a one-space program logical host to move.
    fn rig() -> (Migrator, Kernel<ServiceMsg>, LogicalHostId) {
        let (host, trace) = (HostAddr(1), Trace::new(TraceLevel::Warn));
        let mut k = Kernel::new(host, vkernel::KernelConfig::default(), trace.clone());
        k.set_group_route(vkernel::GroupId::PROGRAM_MANAGERS, vnet::McastGroup(1));
        let layout = vmem::SpaceLayout {
            code_bytes: 8 * 1024,
            init_data_bytes: 8 * 1024,
            heap_bytes: 8 * 1024,
            stack_bytes: 8 * 1024,
        };
        let system = k.create_logical_host(LogicalHostId(2));
        let team = system.create_space(layout);
        let pid = system.create_process(team, Priority::SYSTEM, false);
        let lh = LogicalHostId(20_000);
        let prog = k.create_logical_host(lh);
        let team = prog.create_space(layout);
        prog.create_process(team, Priority::GUEST, false);
        (Migrator::new(pid, host, 1_000_000, trace), k, lh)
    }

    #[test]
    fn a_retry_crosses_select_host_again() {
        let (mut m, mut k, lh) = rig();
        let (now, mut out) = (SimTime::ZERO, SvcOutputs::default());
        let meta = ProgramMeta {
            image: "guest".into(),
            priority: Priority::GUEST,
            origin: None,
        };
        let cfg = MigrationConfig {
            retry_limit: 1,
            ..MigrationConfig::default()
        };
        m.start(now, lh, meta, cfg, None, false, &mut k, &mut out);
        let pending = |m: &Migrator| *m.by_seq.keys().next().expect("a send in flight");
        // A program manager answers the query, then refuses the
        // initialization: the migrator retries against another host.
        let candidate = ServiceMsg::HostCandidate {
            pm: ProcessId::new(LogicalHostId(3), vkernel::FIRST_USER_INDEX),
            host: HostAddr(2),
            load: 0,
        };
        let seq = pending(&m);
        m.handle_send_done(now, seq, Ok(ReplyIn { body: candidate }), &mut k, &mut out);
        let seq = pending(&m);
        m.handle_send_done(now, seq, Err(SendError::Refused), &mut k, &mut out);
        assert_eq!(m.stats.retried, 1);
        let crossings = |step| {
            (out.events.iter())
                .filter(|e| matches!(e, MigEvent::Point { step: s, .. } if *s == step))
                .count()
        };
        assert_eq!(crossings(ProtocolStep::InitTarget), 1);
        assert_eq!(crossings(ProtocolStep::SelectHost), 2);
    }
}
