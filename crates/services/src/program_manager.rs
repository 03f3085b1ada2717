//! The program manager.
//!
//! "There is a program manager on each workstation that provides program
//! management for programs executing on that workstation" (§2.1). It
//! belongs to the well-known program-manager group, answers host-selection
//! queries (§2), creates and destroys programs, and hosts the server side
//! of the migration protocol (§3.1): initializing a new copy of a logical
//! host, installing the frozen kernel state, and unfreezing the new copy.
//!
//! The client side of migration — the five-step orchestration — lives in
//! `vcore::migration` and drives this server side over IPC.

use std::collections::BTreeMap;

use vkernel::{
    Destination, GroupId, Kernel, LogicalHostId, Priority, ProcessId, ProcessState, ReplyIn,
    SendError, SendSeq,
};
use vnet::HostAddr;
use vsim::calib::{
    PM_DESTROY_ENVIRONMENT, PM_QUERY_PROCESSING, PM_SETUP_ENVIRONMENT, WORKSTATION_MEMORY_BYTES,
};
use vsim::{Party, ProtocolStep, SimDuration, SimTime};

use crate::msg::{FetchPlan, ProgramSpec, ServiceMsg, SvcError};
use crate::service::{SvcEvent, SvcOutputs, SvcToken};

/// Memory the kernel and resident servers keep for themselves.
const SYSTEM_RESERVED_BYTES: u64 = 256 * 1024;

/// How long an accepted migration may sit half-built before the target
/// reclaims the temporary logical host (the source crashed mid-pre-copy;
/// the paper leaves this case open — without a reclaim the memory leaks
/// forever).
pub const MIGRATION_INIT_TIMEOUT: vsim::SimDuration = vsim::SimDuration::from_secs(60);

/// Start of the logical-host-id range the migration engines allocate
/// temporary (pre-copy target) ids from; resident ids at or above this
/// floor with no program behind them are half-built migrations.
pub const TEMP_LH_FLOOR: u32 = 1_000_000;

/// Upper bound (exclusive) of the system logical-host-id range: a
/// requester whose logical host falls below this is a system process
/// (shell, executor, manager) on station `lh - 1`, which is how a program
/// manager learns the origin host of a program it creates.
const SYSTEM_LH_CEILING: u32 = 10_000;

/// How many completed install renames the target remembers so a
/// retransmitted `InstallState`/`UnfreezeMigrated` is acknowledged
/// idempotently instead of spawning a second copy.
const INSTALL_MEMORY: usize = 32;

// Lease/heartbeat timing for the liveness protocol.
//
// Remote programs stay explicitly dependent on their origin host: the
// origin grants a time-bounded lease, the hosting (remote) program
// manager renews it with heartbeats every `LEASE_HEARTBEAT`, and each
// grant lasts `LEASE_DURATION`. When renewals fail for `LEASE_DURATION +
// LEASE_GRACE` the holder exterminates the orphan; when heartbeats stop
// for that long the origin probes for the program and rebinds — or
// re-executes it if the probe goes unanswered.

/// How long each granted lease lasts.
const LEASE_DURATION: SimDuration = SimDuration::from_secs(10);

/// Heartbeat/check cadence on both sides.
const LEASE_HEARTBEAT: SimDuration = SimDuration::from_secs(3);

/// Slack past expiry before either side acts.
const LEASE_GRACE: SimDuration = SimDuration::from_secs(5);

/// Holder-side lease state for one remote-origin program.
#[derive(Debug, Clone)]
struct Lease {
    /// The origin host that grants renewals.
    origin: HostAddr,
    /// When the current grant runs out.
    expires_at: SimTime,
    /// When the holder first took the lease (young leases tolerate a
    /// not-yet-registered grant at the origin).
    held_since: SimTime,
    /// A renewal is in flight.
    renewing: bool,
}

/// Origin-side state for one lease granted to a remote host.
#[derive(Debug, Clone)]
struct Grant {
    /// The host last known to hold the program.
    remote: HostAddr,
    /// Last successful renewal (or grant) instant.
    renewed_at: SimTime,
    /// A liveness probe is in flight.
    probing: bool,
}

/// Maximum guest programs a workstation hosts (the file-server machine
/// hosts none).
pub const MAX_GUEST_PROGRAMS: usize = 3;

/// Minimum free memory to advertise availability to `@*` queries.
const MIN_FREE_BYTES: u64 = 512 * 1024;

/// Program bookkeeping.
#[derive(Debug, Clone)]
pub struct ProgramInfo {
    /// Root process.
    pub root: ProcessId,
    /// Image name.
    pub image: String,
    /// Priority it runs at.
    pub priority: Priority,
    /// True if created on behalf of a remote requester.
    pub remote_origin: bool,
    /// The host the program was executed from; leases bind the program to
    /// it and migrations carry it along. `None` when the creator was not
    /// a system process (subprogram decomposition) — such programs have
    /// no lease.
    pub origin: Option<HostAddr>,
}

/// Program-manager statistics.
#[derive(Debug, Clone, Default)]
pub struct PmStats {
    /// `@*` / named queries answered.
    pub queries_answered: u64,
    /// Queries declined (silently).
    pub queries_declined: u64,
    /// Programs created.
    pub programs_created: u64,
    /// Programs destroyed.
    pub programs_destroyed: u64,
    /// Temporary logical hosts reclaimed after the source went silent.
    pub migrations_expired: u64,
    /// Bytes demand-fetched from the paging store after VM-flush
    /// migrations.
    pub fetched_bytes: u64,
    /// Leases granted to remote hosts (origin side).
    pub leases_granted: u64,
}

#[derive(Debug)]
enum Pending {
    /// Host query: answer after the processing delay.
    Query { requester: ProcessId, seq: SendSeq },
    /// CreateProgram: waiting for the image Stat from the file server.
    AwaitStat {
        requester: ProcessId,
        seq: SendSeq,
        spec: Box<ProgramSpec>,
    },
    /// CreateProgram: waiting for the file server to load the image.
    AwaitLoad {
        requester: ProcessId,
        seq: SendSeq,
        spec: Box<ProgramSpec>,
        lh: LogicalHostId,
        root: ProcessId,
    },
    /// CreateProgram: environment setup delay before replying.
    Setup {
        requester: ProcessId,
        seq: SendSeq,
        spec: Box<ProgramSpec>,
        lh: LogicalHostId,
        root: ProcessId,
    },
    /// InstallState: the 14 ms + 9 ms/object kernel-state copy.
    Install {
        requester: ProcessId,
        seq: SendSeq,
        temp: LogicalHostId,
        record: Box<vkernel::MigrationRecord<ServiceMsg>>,
        image: String,
        priority: Priority,
        fetch: Option<FetchPlan>,
        origin: Option<HostAddr>,
    },
    /// Destroy: environment teardown delay.
    Destroy {
        requester: ProcessId,
        seq: SendSeq,
        lh: LogicalHostId,
    },
    /// Watchdog on an accepted migration: reclaim the temporary logical
    /// host if the source never completed.
    MigExpire { temp: LogicalHostId },
    /// Watchdog on an installed migration: reclaim the (renamed, frozen)
    /// copy if the source crashed after commit and the UnfreezeMigrated
    /// step never arrived.
    UnfreezeExpire { lh: LogicalHostId },
    /// Holder-side lease heartbeat: renew every held lease and
    /// exterminate any whose grant ran out past grace.
    LeaseTick,
    /// Origin-side grant check: probe (then rebind or re-exec) any remote
    /// host whose heartbeats stopped past grace.
    GrantTick,
    /// A heartbeat renewal in flight to the origin of `lh`.
    AwaitRenewal { lh: LogicalHostId },
    /// A liveness probe in flight for granted lease `lh`.
    AwaitProbe { lh: LogicalHostId },
}

/// The program manager of one workstation.
pub struct ProgramManager {
    pid: ProcessId,
    host: HostAddr,
    host_name: String,
    file_server: ProcessId,
    /// Maximum guest programs this workstation will host.
    max_guest_programs: usize,
    owner_active: bool,
    programs: BTreeMap<LogicalHostId, ProgramInfo>,
    waiters: BTreeMap<LogicalHostId, Vec<(ProcessId, SendSeq)>>,
    pending_fetch: BTreeMap<LogicalHostId, FetchPlan>,
    fetches_in_flight: BTreeMap<vkernel::XferId, LogicalHostId>,
    pending: BTreeMap<u64, Pending>,
    by_seq: BTreeMap<SendSeq, u64>,
    /// Logical hosts installed by migration and still awaiting their
    /// UnfreezeMigrated step (distinguishes "frozen because the source
    /// died post-commit" from a deliberate SuspendProgram).
    awaiting_unfreeze: std::collections::BTreeSet<LogicalHostId>,
    /// Programs deliberately frozen via SuspendProgram — the cluster
    /// auditor must not count them as migration zombies.
    suspended: std::collections::BTreeSet<LogicalHostId>,
    /// Arm reclaim watchdogs on accepted/installed migrations. Disabling
    /// this deliberately leaks half-built logical hosts — used to prove
    /// the cluster auditor detects the leak.
    migration_watchdog: bool,
    /// Exterminate orphans when their lease runs out. Disabling this
    /// deliberately leaks orphans — used to prove the cluster auditor
    /// detects lease-expired-but-alive programs.
    lease_enforcement: bool,
    /// Holder side: leases this manager holds for remote-origin programs.
    leases: BTreeMap<LogicalHostId, Lease>,
    /// Origin side: leases this manager granted to remote hosts.
    grants: BTreeMap<LogicalHostId, Grant>,
    /// A [`Pending::LeaseTick`] is armed.
    lease_tick_armed: bool,
    /// A [`Pending::GrantTick`] is armed.
    grant_tick_armed: bool,
    /// Recently completed install renames (temp → original id), kept so
    /// retransmitted commit-phase requests are acknowledged idempotently.
    installed: BTreeMap<LogicalHostId, LogicalHostId>,
    next_token: u64,
    next_lh: u32,
    lh_base: u32,
    stats: PmStats,
}

impl ProgramManager {
    /// Creates the program manager for a workstation.
    ///
    /// `lh_base` is the start of this manager's private logical-host-id
    /// range (the cluster builder spaces them so ids never collide). It
    /// answers `@*` queries while it hosts fewer than
    /// `max_guest_programs` guests.
    pub fn new(
        pid: ProcessId,
        host: HostAddr,
        host_name: impl Into<String>,
        file_server: ProcessId,
        lh_base: u32,
        max_guest_programs: usize,
    ) -> Self {
        ProgramManager {
            pid,
            host,
            host_name: host_name.into(),
            file_server,
            max_guest_programs,
            owner_active: false,
            programs: BTreeMap::new(),
            waiters: BTreeMap::new(),
            pending_fetch: BTreeMap::new(),
            fetches_in_flight: BTreeMap::new(),
            pending: BTreeMap::new(),
            by_seq: BTreeMap::new(),
            awaiting_unfreeze: std::collections::BTreeSet::new(),
            suspended: std::collections::BTreeSet::new(),
            migration_watchdog: true,
            lease_enforcement: true,
            leases: BTreeMap::new(),
            grants: BTreeMap::new(),
            lease_tick_armed: false,
            grant_tick_armed: false,
            installed: BTreeMap::new(),
            next_token: 0,
            next_lh: 0,
            lh_base,
            stats: PmStats::default(),
        }
    }

    /// The manager's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The workstation's host name.
    pub fn host_name(&self) -> &str {
        &self.host_name
    }

    /// Statistics.
    pub fn stats(&self) -> &PmStats {
        &self.stats
    }

    /// Known programs.
    pub fn programs(&self) -> &BTreeMap<LogicalHostId, ProgramInfo> {
        &self.programs
    }

    /// Info for one program.
    pub fn program(&self, lh: LogicalHostId) -> Option<&ProgramInfo> {
        self.programs.get(&lh)
    }

    /// Marks the owner as actively using (or not using) the workstation;
    /// driven by the user model.
    pub fn set_owner_active(&mut self, active: bool) {
        self.owner_active = active;
    }

    /// True if the owner is at the console.
    pub fn owner_active(&self) -> bool {
        self.owner_active
    }

    /// Enables or disables the migration reclaim watchdogs. Only disable
    /// to demonstrate the resulting leak (the cluster auditor flags it).
    pub fn set_migration_watchdog(&mut self, on: bool) {
        self.migration_watchdog = on;
    }

    /// Enables or disables orphan extermination on lease expiry. Only
    /// disable to demonstrate the resulting leak (the cluster auditor
    /// flags lease-expired-but-alive programs).
    pub fn set_lease_enforcement(&mut self, on: bool) {
        self.lease_enforcement = on;
    }

    /// Held leases whose grant ran out more than `LEASE_GRACE` ago — programs
    /// the enforcement machinery should already have exterminated.
    pub fn expired_leases(&self, now: SimTime) -> Vec<LogicalHostId> {
        self.leases
            .iter()
            .filter(|(_, l)| now >= l.expires_at + LEASE_GRACE)
            .map(|(&lh, _)| lh)
            .collect()
    }

    /// Leases this manager currently holds: (program, origin host).
    pub fn held_leases(&self) -> Vec<(LogicalHostId, HostAddr)> {
        self.leases.iter().map(|(&lh, l)| (lh, l.origin)).collect()
    }

    /// Number of leases this manager granted.
    pub fn lease_count(&self) -> usize {
        self.grants.len()
    }

    /// Leases this manager granted: (program, last-known remote host).
    pub fn granted_leases(&self) -> Vec<(LogicalHostId, HostAddr)> {
        self.grants.iter().map(|(&lh, g)| (lh, g.remote)).collect()
    }

    /// True if `lh` was deliberately frozen with SuspendProgram and not
    /// yet resumed.
    pub fn is_suspended(&self, lh: LogicalHostId) -> bool {
        self.suspended.contains(&lh)
    }

    /// Migrated-in logical hosts still frozen because their
    /// UnfreezeMigrated step has not arrived, sorted.
    pub fn awaiting_unfreeze(&self) -> Vec<LogicalHostId> {
        self.awaiting_unfreeze.iter().copied().collect()
    }

    /// Restarts the manager process after a service crash: every pending
    /// conversation is forgotten (requesters recover by retransmission,
    /// which re-delivers their requests once the kernel's server-side
    /// transaction state is aborted too), while the program ledger, the
    /// id allocator and the statistics survive — they model state the
    /// manager can rebuild from the kernel's tables.
    ///
    /// Returns timer requests re-arming a reclaim watchdog for any
    /// temporary logical hosts a half-done migration left behind.
    pub fn restart(&mut self, k: &Kernel<ServiceMsg>) -> SvcOutputs {
        self.pending.clear();
        self.by_seq.clear();
        self.waiters.clear();
        self.pending_fetch.clear();
        self.fetches_in_flight.clear();
        let mut out = SvcOutputs::new();
        // The lease ledgers survive (rebuildable state), but the armed
        // ticks and in-flight renewals/probes died with the process.
        self.lease_tick_armed = false;
        self.grant_tick_armed = false;
        for l in self.leases.values_mut() {
            l.renewing = false;
        }
        for g in self.grants.values_mut() {
            g.probing = false;
        }
        out.merge(self.arm_lease_tick());
        out.merge(self.arm_grant_tick());
        if !self.migration_watchdog {
            return out;
        }
        for lh in k.resident_lhs() {
            if self.awaiting_unfreeze.contains(&lh) {
                let t = self.token(Pending::UnfreezeExpire { lh });
                out = out.timer(t, MIGRATION_INIT_TIMEOUT);
            } else if lh.0 >= TEMP_LH_FLOOR && !self.programs.contains_key(&lh) {
                // A temp id from the migration engines' range with no
                // program behind it: the in-flight migration whose
                // watchdog we just dropped.
                let t = self.token(Pending::MigExpire { temp: lh });
                out = out.timer(t, MIGRATION_INIT_TIMEOUT);
            }
        }
        out
    }

    /// Re-arms the manager's timers after the whole workstation reboots
    /// (a crash loses pending timer callbacks, not the state awaiting
    /// them). Send-driven conversations need nothing: the kernel re-arms
    /// the underlying retransmissions.
    pub fn reboot_recover(&mut self) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let mut tokens: Vec<u64> = self.pending.keys().copied().collect();
        tokens.sort_unstable();
        for t in tokens {
            let after = match &self.pending[&t] {
                Pending::MigExpire { .. } | Pending::UnfreezeExpire { .. } => {
                    MIGRATION_INIT_TIMEOUT
                }
                Pending::LeaseTick | Pending::GrantTick => LEASE_HEARTBEAT,
                Pending::AwaitStat { .. }
                | Pending::AwaitLoad { .. }
                | Pending::AwaitRenewal { .. }
                | Pending::AwaitProbe { .. } => continue,
                _ => PM_QUERY_PROCESSING,
            };
            out = out.timer(SvcToken(t), after);
        }
        out
    }

    /// Allocates a fresh logical-host id from this manager's range.
    pub fn alloc_lh(&mut self) -> LogicalHostId {
        let id = LogicalHostId(self.lh_base + self.next_lh);
        self.next_lh += 1;
        id
    }

    fn token(&mut self, p: Pending) -> SvcToken {
        let t = self.next_token;
        self.next_token += 1;
        self.pending.insert(t, p);
        SvcToken(t)
    }

    fn free_bytes(&self, k: &Kernel<ServiceMsg>) -> u64 {
        let used: u64 = k
            .resident_lhs()
            .iter()
            .filter_map(|&lh| k.logical_host(lh))
            .map(|l| l.total_bytes())
            .sum();
        WORKSTATION_MEMORY_BYTES
            .saturating_sub(used)
            .saturating_sub(SYSTEM_RESERVED_BYTES)
    }

    fn guest_count(&self) -> usize {
        self.programs.values().filter(|p| p.remote_origin).count()
    }

    fn would_accept(&self, k: &Kernel<ServiceMsg>) -> bool {
        self.guest_count() < self.max_guest_programs && self.free_bytes(k) >= MIN_FREE_BYTES
    }

    /// The program-manager group of a station's system logical host —
    /// how one manager addresses another by physical host.
    fn pm_of_host(host: HostAddr) -> Destination {
        let system_lh = LogicalHostId(1 + host.0 as u32);
        Destination::Group(GroupId::program_manager_of(system_lh))
    }

    /// Derives a requester's physical host when the requester is a system
    /// process (shell, executor, manager); programs get `None`.
    fn requester_host(requester: ProcessId) -> Option<HostAddr> {
        (requester.lh.0 >= 1 && requester.lh.0 < SYSTEM_LH_CEILING)
            .then(|| HostAddr((requester.lh.0 - 1) as u16))
    }

    /// Arms the holder-side heartbeat tick if leases are held and no tick
    /// is armed yet.
    fn arm_lease_tick(&mut self) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        if !self.lease_tick_armed && !self.leases.is_empty() {
            self.lease_tick_armed = true;
            let t = self.token(Pending::LeaseTick);
            out = out.timer(t, LEASE_HEARTBEAT);
        }
        out
    }

    /// Arms the origin-side grant check tick if grants exist and no tick
    /// is armed yet.
    fn arm_grant_tick(&mut self) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        if !self.grant_tick_armed && !self.grants.is_empty() {
            self.grant_tick_armed = true;
            let t = self.token(Pending::GrantTick);
            out = out.timer(t, LEASE_HEARTBEAT);
        }
        out
    }

    /// Holder side: starts holding a lease for a remote-origin program
    /// (no-op when the program is home).
    fn hold_lease(&mut self, now: SimTime, lh: LogicalHostId, origin: HostAddr) -> SvcOutputs {
        if origin == self.host {
            return SvcOutputs::new();
        }
        self.leases.insert(
            lh,
            Lease {
                origin,
                expires_at: now + LEASE_DURATION,
                held_since: now,
                renewing: false,
            },
        );
        self.arm_lease_tick()
    }

    /// Origin side: records that `lh` now executes remotely at `remote`
    /// under a lease this manager must keep renewed. Called by the
    /// cluster runtime when a remote execution completes or a home
    /// program is migrated away.
    pub fn grant_lease(&mut self, now: SimTime, lh: LogicalHostId, remote: HostAddr) -> SvcOutputs {
        if remote == self.host {
            return SvcOutputs::new();
        }
        self.stats.leases_granted += 1;
        self.grants.insert(
            lh,
            Grant {
                remote,
                renewed_at: now,
                probing: false,
            },
        );
        self.arm_grant_tick()
    }

    /// Origin side: notifies `origin` that `lh` was deliberately
    /// destroyed so its grant is dropped rather than probed and
    /// re-executed. Fire-and-forget: if the origin is unreachable its
    /// grant expires and the probe finds nothing, which converges too
    /// (at-least-once re-execution).
    pub fn release_lease_to(
        &mut self,
        now: SimTime,
        origin: HostAddr,
        lh: LogicalHostId,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        if origin == self.host {
            self.grants.remove(&lh);
            return out;
        }
        let (_, kouts) = k.send_with_seq(
            now,
            self.pid,
            Self::pm_of_host(origin),
            ServiceMsg::ReleaseLease { lh },
            0,
        );
        out.kernel.extend(kouts);
        out
    }

    /// Holder side: destroys an orphan whose lease expired or was
    /// revoked. The program is removed exactly like a destroy, and the
    /// runtime is told twice: once for narration/latency accounting and
    /// once to detach the behaviour.
    fn exterminate(
        &mut self,
        now: SimTime,
        lh: LogicalHostId,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        self.leases.remove(&lh);
        self.awaiting_unfreeze.remove(&lh);
        self.suspended.remove(&lh);
        self.pending_fetch.remove(&lh);
        if self.programs.remove(&lh).is_some() {
            self.stats.programs_destroyed += 1;
            out = out.kernel(k.delete_logical_host(now, lh));
            out = out.event(SvcEvent::OrphanExterminated { lh });
            out = out.event(SvcEvent::ProgramDestroyed { lh });
        }
        for (w, wseq) in self.waiters.remove(&lh).unwrap_or_default() {
            out = out.kernel(k.reply(
                now,
                self.pid,
                w,
                wseq,
                ServiceMsg::Err(SvcError::UpstreamFailed),
                0,
            ));
        }
        out
    }

    /// Remembers a completed install rename for idempotent duplicate
    /// acks, bounded to the most recent [`INSTALL_MEMORY`] entries.
    fn remember_install(&mut self, temp: LogicalHostId, lh: LogicalHostId) {
        self.installed.insert(temp, lh);
        while self.installed.len() > INSTALL_MEMORY {
            let Some(&oldest) = self.installed.keys().next() else {
                break;
            };
            self.installed.remove(&oldest);
        }
    }

    /// Handles a request delivered to the manager.
    pub fn handle_request(
        &mut self,
        now: SimTime,
        msg: vkernel::MsgIn<ServiceMsg>,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let (requester, seq) = (msg.from, msg.seq);
        match msg.body {
            ServiceMsg::QueryHost {
                host_name,
                exclude_hosts,
            } => {
                let respond = !exclude_hosts.contains(&self.host)
                    && match &host_name {
                        Some(n) => *n == self.host_name,
                        // "@*" means "some *other* lightly loaded machine"
                        // (§4.3): a manager does not offer the requester
                        // its own workstation back.
                        None => !k.is_resident(requester.lh) && self.would_accept(k),
                    };
                if respond {
                    // The 23 ms first-response time is dominated by this
                    // processing delay (§4.1). On a busy workstation the
                    // manager contends with running programs for the CPU,
                    // so its response is slower — which is exactly why
                    // "the program manager that responds first ... is
                    // generally the least loaded host" (§2).
                    let contention = 1.0 + 0.25 * self.programs.len() as f64;
                    let t = self.token(Pending::Query { requester, seq });
                    out = out.timer(t, PM_QUERY_PROCESSING.mul_f64(contention));
                } else {
                    self.stats.queries_declined += 1;
                }
            }
            ServiceMsg::CreateProgram(spec) => {
                let t = self.token(Pending::AwaitStat {
                    requester,
                    seq,
                    spec: spec.clone(),
                });
                let stat = ServiceMsg::Stat {
                    name: spec.image.clone(),
                };
                let (sseq, kouts) =
                    k.send_with_seq(now, self.pid, self.file_server.into(), stat, 0);
                self.by_seq.insert(sseq, t.0);
                out = out.kernel(kouts);
            }
            ServiceMsg::StartProgram { root } => {
                let started = k
                    .logical_host_mut(root.lh)
                    .and_then(|l| l.process_mut(root.index))
                    .map(|p| {
                        let was_embryo = p.state == ProcessState::Embryo;
                        if was_embryo {
                            p.state = ProcessState::Ready;
                        }
                        was_embryo
                    })
                    .unwrap_or(false);
                if started {
                    let info = self.programs.get(&root.lh);
                    out = out.event(SvcEvent::ProgramStarted {
                        root,
                        lh: root.lh,
                        image: info.map(|i| i.image.clone()).unwrap_or_default(),
                    });
                    out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                } else {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                }
            }
            ServiceMsg::DestroyProgram { lh } => {
                if self.programs.contains_key(&lh) {
                    let t = self.token(Pending::Destroy { requester, seq, lh });
                    out = out.timer(t, PM_DESTROY_ENVIRONMENT);
                } else {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                }
            }
            ServiceMsg::SuspendProgram { lh } => {
                let reply = if self.programs.contains_key(&lh) && k.is_resident(lh) {
                    k.freeze(lh);
                    self.suspended.insert(lh);
                    ServiceMsg::Ok
                } else {
                    ServiceMsg::Err(SvcError::BadRequest)
                };
                out = out.kernel(k.reply(now, self.pid, requester, seq, reply, 0));
            }
            ServiceMsg::ResumeProgram { lh } => {
                if self.programs.contains_key(&lh)
                    && k.logical_host(lh).map(|l| l.is_frozen()).unwrap_or(false)
                {
                    self.suspended.remove(&lh);
                    out = out.kernel(k.unfreeze_in_place(now, lh));
                    out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                    out = out.event(SvcEvent::ProgramResumed { lh });
                } else {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                }
            }
            ServiceMsg::WaitProgram { lh } => {
                if self.programs.contains_key(&lh) {
                    // No reply yet: the requester blocks (kept alive by
                    // reply-pending packets) until the program is
                    // destroyed.
                    self.waiters.entry(lh).or_default().push((requester, seq));
                } else {
                    // Already gone (or never existed): complete at once.
                    out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                }
            }
            ServiceMsg::InitMigration { temp, spaces } => {
                if k.is_resident(temp) {
                    // Duplicate of an init this manager already accepted
                    // (the accept reply was lost): ack idempotently —
                    // declining would make the source abort a healthy
                    // transfer and could strand two half-built copies.
                    let accepted = ServiceMsg::MigrationAccepted { host: self.host };
                    out = out.kernel(k.reply(now, self.pid, requester, seq, accepted, 0));
                } else if !self.would_accept(k) {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::Declined),
                        0,
                    ));
                } else {
                    let l = k.create_logical_host(temp);
                    for (sid, layout) in spaces {
                        l.create_space_with_id(sid, layout);
                    }
                    if self.migration_watchdog {
                        let t = self.token(Pending::MigExpire { temp });
                        out = out.timer(t, MIGRATION_INIT_TIMEOUT);
                    }
                    let accepted = ServiceMsg::MigrationAccepted { host: self.host };
                    out = out.kernel(k.reply(now, self.pid, requester, seq, accepted, 0));
                }
            }
            ServiceMsg::InstallState {
                temp,
                record,
                image,
                priority,
                fetch,
                origin,
            } => {
                let committed = self
                    .installed
                    .get(&temp)
                    .map(|&lh| k.is_resident(lh))
                    .unwrap_or(false);
                if committed {
                    // Duplicate commit (the Ok reply was lost): the rename
                    // already happened; re-running it would fail and make
                    // the source retry into a second live copy.
                    out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                } else if !k.is_resident(temp) {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                } else {
                    let cost = record.copy_cost();
                    let t = self.token(Pending::Install {
                        requester,
                        seq,
                        temp,
                        record,
                        image,
                        priority,
                        fetch,
                        origin,
                    });
                    out = out.timer(t, cost);
                }
            }
            ServiceMsg::UnfreezeMigrated { lh } => {
                let frozen = k.logical_host(lh).map(|l| l.is_frozen()).unwrap_or(false);
                if k.is_resident(lh) && !frozen && !self.awaiting_unfreeze.contains(&lh) {
                    // Duplicate unfreeze (the Ok reply was lost): the copy
                    // already runs — ack without re-running side effects.
                    out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                } else if k.is_resident(lh) {
                    self.awaiting_unfreeze.remove(&lh);
                    out = out.kernel(k.unfreeze_migrated(now, lh));
                    // Demand-fetch the flushed pages back from the paging
                    // store (§3.2), in the background while the program
                    // already runs.
                    if let Some(plan) = self.pending_fetch.remove(&lh) {
                        for (space, pages) in plan.pages {
                            if pages.is_empty() {
                                continue;
                            }
                            let (xfer, kouts) = k.pull_pages(
                                now,
                                self.pid,
                                plan.from_lh,
                                plan.from_space,
                                lh,
                                space,
                                pages,
                            );
                            self.fetches_in_flight.insert(xfer, lh);
                            out = out.kernel(kouts);
                        }
                    }
                    out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                    out = out.event(SvcEvent::LogicalHostAdopted { lh });
                } else {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                }
            }
            ServiceMsg::MigrateProgram {
                lh,
                destroy_if_stuck,
            } => {
                // The migration engine (vcore) orchestrates; it replies to
                // the requester when the eviction completes.
                out = out.event(SvcEvent::MigrateRequested {
                    lh,
                    destroy_if_stuck,
                    requester,
                    seq,
                });
            }
            ServiceMsg::RenewLease { lh } => {
                let holder = Self::requester_host(requester);
                let known = self.grants.contains_key(&lh);
                match (known, holder) {
                    (true, Some(h)) => {
                        if let Some(g) = self.grants.get_mut(&lh) {
                            // A heartbeat also rebinds: after a migration
                            // the renewal arrives from the new host.
                            g.remote = h;
                            g.renewed_at = now;
                            g.probing = false;
                        }
                        let until = now + LEASE_DURATION;
                        out = out.event(SvcEvent::LeasePoint {
                            lh,
                            step: ProtocolStep::LeaseRenew,
                            party: Party::Origin,
                        });
                        out = out.kernel(k.reply(
                            now,
                            self.pid,
                            requester,
                            seq,
                            ServiceMsg::LeaseGranted { until },
                            0,
                        ));
                    }
                    _ => {
                        // No grant here: revoked (re-executed elsewhere)
                        // or never registered. The holder must treat this
                        // as a revocation and exterminate its copy.
                        out = out.kernel(k.reply(
                            now,
                            self.pid,
                            requester,
                            seq,
                            ServiceMsg::Err(SvcError::NotFound),
                            0,
                        ));
                    }
                }
            }
            ServiceMsg::ReleaseLease { lh } => {
                self.grants.remove(&lh);
                out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
            }
            ServiceMsg::QueryProgram { lh } => {
                let reply = if self.programs.contains_key(&lh) && k.is_resident(lh) {
                    ServiceMsg::ProgramAt { host: self.host }
                } else {
                    ServiceMsg::Err(SvcError::NotFound)
                };
                out = out.kernel(k.reply(now, self.pid, requester, seq, reply, 0));
            }
            other => {
                // Not a program-manager operation.
                let _ = other;
                out = out.kernel(k.reply(
                    now,
                    self.pid,
                    requester,
                    seq,
                    ServiceMsg::Err(SvcError::BadRequest),
                    0,
                ));
            }
        }
        out
    }

    /// Handles completion of one of the manager's own Sends (to the file
    /// server).
    pub fn handle_send_done(
        &mut self,
        now: SimTime,
        seq: SendSeq,
        result: Result<ReplyIn<ServiceMsg>, SendError>,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let Some(token) = self.by_seq.remove(&seq) else {
            return out;
        };
        let Some(p) = self.pending.remove(&token) else {
            return out;
        };
        match p {
            Pending::AwaitStat {
                requester,
                seq: rseq,
                spec,
            } => match result {
                Ok(ReplyIn {
                    body: ServiceMsg::StatReply { layout },
                    ..
                }) => {
                    let lh = self.alloc_lh();
                    let l = k.create_logical_host(lh);
                    let space = l.create_space(layout);
                    let root = l.create_process(space, spec.priority, true);
                    let t = self.token(Pending::AwaitLoad {
                        requester,
                        seq: rseq,
                        spec: spec.clone(),
                        lh,
                        root,
                    });
                    let load = ServiceMsg::LoadImage {
                        name: spec.image.clone(),
                        to_lh: lh,
                        to_space: space,
                    };
                    let (sseq, kouts) =
                        k.send_with_seq(now, self.pid, self.file_server.into(), load, 0);
                    self.by_seq.insert(sseq, t.0);
                    out = out.kernel(kouts);
                }
                _ => {
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        rseq,
                        ServiceMsg::Err(SvcError::NotFound),
                        0,
                    ));
                }
            },
            Pending::AwaitLoad {
                requester,
                seq: rseq,
                spec,
                lh,
                root,
            } => match result {
                Ok(ReplyIn {
                    body: ServiceMsg::ImageLoaded { .. },
                    ..
                }) => {
                    let t = self.token(Pending::Setup {
                        requester,
                        seq: rseq,
                        spec,
                        lh,
                        root,
                    });
                    out = out.timer(t, PM_SETUP_ENVIRONMENT);
                }
                _ => {
                    out = out.kernel(k.delete_logical_host(now, lh));
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        rseq,
                        ServiceMsg::Err(SvcError::UpstreamFailed),
                        0,
                    ));
                }
            },
            Pending::AwaitRenewal { lh } => {
                let young = self
                    .leases
                    .get(&lh)
                    .map(|l| now.since(l.held_since) <= LEASE_DURATION)
                    .unwrap_or(true);
                match result {
                    Ok(ReplyIn {
                        body: ServiceMsg::LeaseGranted { until },
                        ..
                    }) => {
                        if let Some(l) = self.leases.get_mut(&lh) {
                            l.expires_at = until;
                            l.renewing = false;
                        }
                    }
                    Ok(_) if !young => {
                        // The origin answered but holds no grant: the
                        // lease was revoked (e.g. the program was
                        // re-executed elsewhere while this host was cut
                        // off). Exterminate the stale copy immediately.
                        out.merge(self.exterminate(now, lh, k));
                    }
                    _ => {
                        // Origin unreachable (or the grant is simply not
                        // registered yet on a fresh lease): keep ticking;
                        // expiry handles a dead origin.
                        if let Some(l) = self.leases.get_mut(&lh) {
                            l.renewing = false;
                        }
                    }
                }
            }
            Pending::AwaitProbe { lh } => match result {
                Ok(ReplyIn {
                    body: ServiceMsg::ProgramAt { host },
                    ..
                }) => {
                    if let Some(g) = self.grants.get_mut(&lh) {
                        g.remote = host;
                        g.renewed_at = now;
                        g.probing = false;
                    }
                    out = out.event(SvcEvent::LeaseRebound { lh, to: host });
                }
                _ => {
                    // Nobody answered for the program: presumed dead.
                    // Drop the grant and ask the runtime to re-execute.
                    self.grants.remove(&lh);
                    out = out.event(SvcEvent::ReExecNeeded { lh });
                }
            },
            other => {
                // Sends are only issued for the create path; anything else
                // is a stale correlation left over from a crash-restart.
                // Put the state back and ignore the completion.
                self.pending.insert(token, other);
            }
        }
        out
    }

    /// Handles a service timer.
    pub fn handle_timer(
        &mut self,
        now: SimTime,
        token: SvcToken,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let Some(p) = self.pending.remove(&token.0) else {
            return out;
        };
        match p {
            Pending::Query { requester, seq } => {
                self.stats.queries_answered += 1;
                let candidate = ServiceMsg::HostCandidate {
                    pm: self.pid,
                    host: self.host,
                    host_name: self.host_name.clone(),
                    load: self.programs.len() as u32,
                };
                out = out.kernel(k.reply(now, self.pid, requester, seq, candidate, 0));
            }
            Pending::Setup {
                requester,
                seq,
                spec,
                lh,
                root,
            } => {
                self.stats.programs_created += 1;
                let origin = Self::requester_host(requester);
                self.programs.insert(
                    lh,
                    ProgramInfo {
                        root,
                        image: spec.image.clone(),
                        priority: spec.priority,
                        remote_origin: requester.lh != lh && requester.lh.0 != self.lh_base,
                        origin,
                    },
                );
                // A program created for a remote requester lives on a
                // lease from its origin from the moment it exists.
                if let Some(o) = origin {
                    out.merge(self.hold_lease(now, lh, o));
                }
                let created = ServiceMsg::ProgramCreated {
                    root,
                    lh,
                    host: self.host,
                };
                out = out.kernel(k.reply(now, self.pid, requester, seq, created, 0));
            }
            Pending::Install {
                requester,
                seq,
                temp,
                record,
                image,
                priority,
                fetch,
                origin,
            } => {
                let lh = record.desc.id;
                let root = record
                    .desc
                    .processes
                    .first()
                    .map(|pd| ProcessId::new(lh, pd.index))
                    .unwrap_or(ProcessId::new(lh, 0));
                out = out.kernel(k.install_migration_record(now, temp, &record));
                self.remember_install(temp, lh);
                self.programs.insert(
                    lh,
                    ProgramInfo {
                        root,
                        image,
                        priority,
                        remote_origin: true,
                        origin,
                    },
                );
                // The lease follows the program: the new host renews
                // against the same origin (whose grant rebinds on the
                // first heartbeat from here).
                if let Some(o) = origin {
                    out.merge(self.hold_lease(now, lh, o));
                }
                if let Some(plan) = fetch {
                    self.pending_fetch.insert(lh, plan);
                }
                // The copy now sits frozen under its original id; if the
                // source dies before sending UnfreezeMigrated, this
                // watchdog reclaims the zombie.
                self.awaiting_unfreeze.insert(lh);
                if self.migration_watchdog {
                    let t = self.token(Pending::UnfreezeExpire { lh });
                    out = out.timer(t, MIGRATION_INIT_TIMEOUT);
                }
                out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
            }
            Pending::Destroy { requester, seq, lh } => {
                self.stats.programs_destroyed += 1;
                // A deliberate destroy releases the lease at the origin
                // so the program is not presumed dead and re-executed.
                let origin = self.programs.get(&lh).and_then(|i| i.origin);
                if self.leases.remove(&lh).is_some() {
                    if let Some(o) = origin {
                        out.merge(self.release_lease_to(now, o, lh, k));
                    }
                }
                self.grants.remove(&lh);
                self.programs.remove(&lh);
                self.suspended.remove(&lh);
                out = out.kernel(k.delete_logical_host(now, lh));
                out = out.event(SvcEvent::ProgramDestroyed { lh });
                out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::Ok, 0));
                // Wake anyone blocked in WaitProgram.
                for (w, wseq) in self.waiters.remove(&lh).unwrap_or_default() {
                    out = out.kernel(k.reply(now, self.pid, w, wseq, ServiceMsg::Ok, 0));
                }
            }
            Pending::MigExpire { temp } => {
                // InstallState renames temp to the original id, so a
                // still-resident temp means the source never finished.
                if k.is_resident(temp) {
                    self.stats.migrations_expired += 1;
                    out = out.kernel(k.delete_logical_host(now, temp));
                }
            }
            Pending::UnfreezeExpire { lh } => {
                // Reclaim only if the copy is still frozen *and* never
                // saw its UnfreezeMigrated — a later SuspendProgram also
                // freezes, but clears `awaiting_unfreeze` first.
                let zombie = self.awaiting_unfreeze.contains(&lh)
                    && k.logical_host(lh).map(|l| l.is_frozen()).unwrap_or(false);
                if zombie {
                    self.awaiting_unfreeze.remove(&lh);
                    self.stats.migrations_expired += 1;
                    self.programs.remove(&lh);
                    // Keep the lease unreleased: the origin's probe will
                    // find nothing and re-execute the lost program.
                    self.leases.remove(&lh);
                    out = out.kernel(k.delete_logical_host(now, lh));
                    out = out.event(SvcEvent::ProgramDestroyed { lh });
                }
            }
            Pending::LeaseTick => {
                self.lease_tick_armed = false;
                out.merge(self.lease_tick(now, k));
            }
            Pending::GrantTick => {
                self.grant_tick_armed = false;
                out.merge(self.grant_tick(now, k));
            }
            other => {
                // A timer for send-driven state: impossible in normal
                // operation, but a crash-restart can leave stale timers
                // behind. Put the state back and ignore the tick.
                self.pending.insert(token.0, other);
            }
        }
        out
    }

    /// One holder-side heartbeat round: exterminate leases that ran out
    /// past grace, renew the rest, re-arm while any lease remains.
    fn lease_tick(&mut self, now: SimTime, k: &mut Kernel<ServiceMsg>) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let lhs: Vec<LogicalHostId> = self.leases.keys().copied().collect();
        for lh in lhs {
            if !self.programs.contains_key(&lh) {
                // The program went away through some other path; the
                // lease has nothing left to protect.
                self.leases.remove(&lh);
                continue;
            }
            let Some(lease) = self.leases.get(&lh) else {
                continue;
            };
            let (origin, renewing) = (lease.origin, lease.renewing);
            if now >= lease.expires_at + LEASE_GRACE {
                out = out.event(SvcEvent::LeasePoint {
                    lh,
                    step: ProtocolStep::LeaseExpiry,
                    party: Party::Target,
                });
                if self.lease_enforcement {
                    out.merge(self.exterminate(now, lh, k));
                }
                continue;
            }
            if !renewing {
                let t = self.token(Pending::AwaitRenewal { lh });
                let (sseq, kouts) = k.send_with_seq(
                    now,
                    self.pid,
                    Self::pm_of_host(origin),
                    ServiceMsg::RenewLease { lh },
                    0,
                );
                self.by_seq.insert(sseq, t.0);
                if let Some(l) = self.leases.get_mut(&lh) {
                    l.renewing = true;
                }
                out = out.event(SvcEvent::LeasePoint {
                    lh,
                    step: ProtocolStep::LeaseRenew,
                    party: Party::Target,
                });
                out.kernel.extend(kouts);
            }
        }
        out.merge(self.arm_lease_tick());
        out
    }

    /// One origin-side grant round: probe every remote host whose
    /// heartbeats stopped past grace, re-arm while any grant remains.
    fn grant_tick(&mut self, now: SimTime, k: &mut Kernel<ServiceMsg>) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let lhs: Vec<LogicalHostId> = self.grants.keys().copied().collect();
        for lh in lhs {
            if self.programs.contains_key(&lh) && k.is_resident(lh) {
                // The program migrated back home; no lease needed.
                self.grants.remove(&lh);
                self.leases.remove(&lh);
                continue;
            }
            let Some(g) = self.grants.get(&lh) else {
                continue;
            };
            let silence = now.since(g.renewed_at);
            if !g.probing && silence > LEASE_DURATION + LEASE_GRACE {
                out = out.event(SvcEvent::LeasePoint {
                    lh,
                    step: ProtocolStep::LeaseExpiry,
                    party: Party::Origin,
                });
                if let Some(g) = self.grants.get_mut(&lh) {
                    g.probing = true;
                }
                let t = self.token(Pending::AwaitProbe { lh });
                let (sseq, kouts) = k.send_with_seq(
                    now,
                    self.pid,
                    Destination::Group(GroupId::program_manager_of(lh)),
                    ServiceMsg::QueryProgram { lh },
                    0,
                );
                self.by_seq.insert(sseq, t.0);
                out.kernel.extend(kouts);
            }
        }
        out.merge(self.arm_grant_tick());
        out
    }

    /// Handles completion of a background demand-fetch (VM-flush).
    pub fn handle_copy_done(
        &mut self,
        _now: SimTime,
        xfer: vkernel::XferId,
        result: Result<u64, vkernel::SendError>,
        _k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        if let (Some(_), Ok(bytes)) = (self.fetches_in_flight.remove(&xfer), result) {
            self.stats.fetched_bytes += bytes;
        }
        SvcOutputs::new()
    }

    /// Removes a migrated-away program from the books (called by the
    /// migration engine after the old copy is deleted). Anyone blocked in
    /// WaitProgram here is failed so they can re-issue the wait to the
    /// program's new manager.
    pub fn forget_program(
        &mut self,
        now: SimTime,
        lh: LogicalHostId,
        k: &mut Kernel<ServiceMsg>,
    ) -> (Option<ProgramInfo>, SvcOutputs) {
        let mut out = SvcOutputs::new();
        for (w, wseq) in self.waiters.remove(&lh).unwrap_or_default() {
            out = out.kernel(k.reply(
                now,
                self.pid,
                w,
                wseq,
                ServiceMsg::Err(SvcError::UpstreamFailed),
                0,
            ));
        }
        self.suspended.remove(&lh);
        // The program lives on at its new host, which holds the lease
        // now; only this host's holder-side state is dropped (the origin
        // grant rebinds on the new host's first heartbeat).
        self.leases.remove(&lh);
        (self.programs.remove(&lh), out)
    }
}
