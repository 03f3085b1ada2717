//! The cluster runtime: the event loop that wires everything together.
//!
//! A [`Cluster`] owns the simulated Ethernet, one [`Workstation`] per
//! station (kernel + program manager + display + shell/executor +
//! migration engine), a dedicated file-server machine, and the programs
//! executing across them. It is the only place that touches the event
//! queue; every other layer is a sans-IO state machine.
//!
//! Per-packet CPU costs: small packets (requests, replies, control) are
//! charged [`vsim::calib::SMALL_PACKET_CPU`] on both the sending and the
//! receiving side; bulk-data packets are *not* (their CPU cost is already
//! inside the calibrated per-unit pacing).

use std::collections::{BTreeMap, VecDeque};

use vcore::{
    ExecEvent, ExecOutputs, ExecTarget, MigEvent, MigOutputs, MigrationConfig, MigrationReport,
    Migrator, ProgramMeta, RemoteExecutor, ReplyTo, PAGING_LH, PAGING_SPACE,
};
use vkernel::{
    Destination, GroupId, Kernel, KernelConfig, KernelOutput, LogicalHostId, MsgIn, Packet,
    Priority, ProcessId, SendSeq, TimerKey, XferId, PROGRAM_MANAGER_INDEX,
};
use vmem::{SpaceId, SpaceLayout};
use vnet::{Delivery, Ethernet, Frame, HostAddr, LossModel, McastGroup};
use vservices::{
    DisplayServer, ExecEnv, FileServer, ProgramSpec, ServiceMsg, SvcEvent, SvcOutputs, SvcToken,
    MAX_GUEST_PROGRAMS,
};
use vsim::calib::{CONTEXT_SWITCH, CPU_QUANTUM, SMALL_PACKET_CPU};
use vsim::{
    DetRng, Engine, FaultKind, FaultPlan, FaultPoint, FaultTrigger, HostClock, MetricsReport,
    Party, ProfileReport, Profiler, ProtocolStep, SamplingSpec, ScopeMetrics, SeriesId,
    SeriesReport, SeriesStore, SimDuration, SimTime, SlotId, SpanContext, SpanIdGen, SpanTree,
    Subsystem, Trace, TraceEvent, TraceLevel, TraceSinkSpec, PARTY,
};
use vworkload::{
    OwnerState, ProgAction, ProgEvent, ProgramProfile, UserModel, UserModelParams, WorkloadProgram,
};

use crate::audit::{AuditReport, AuditViolation};

/// Multicast group carrying the program-manager process group.
const PM_MCAST: McastGroup = McastGroup(1);

/// Which service a timer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcKind {
    /// Program manager.
    Pm,
    /// File server.
    Fs,
    /// Display server.
    Display,
}

/// Scripted scenario commands (see [`Cluster::at`]).
#[derive(Debug)]
pub enum Command {
    /// Execute a program from workstation `ws`'s shell.
    Exec {
        /// Requesting workstation index.
        ws: usize,
        /// What to run.
        profile: ProgramProfile,
        /// `@`-target.
        target: ExecTarget,
        /// Priority ([`Priority::LOCAL`] or [`Priority::GUEST`]).
        priority: Priority,
    },
    /// `migrateprog` on workstation `ws`.
    Migrate {
        /// Workstation holding the program.
        ws: usize,
        /// The program's logical host (`None` = first guest program).
        lh: Option<LogicalHostId>,
        /// The `-n` flag.
        destroy_if_stuck: bool,
    },
    /// Power a station off (crash).
    Crash {
        /// Station index.
        ws: usize,
    },
    /// Power a station back on (reboot: kernel state is NOT restored).
    Reboot {
        /// Station index.
        ws: usize,
    },
    /// Force the owner-activity state.
    SetOwnerActive {
        /// Station index.
        ws: usize,
        /// New state.
        active: bool,
    },
}

/// Events on the cluster's queue.
#[derive(Debug)]
pub enum Event {
    /// A frame reached a station ("processed" includes receive CPU).
    Frame {
        /// Receiving station.
        host: HostAddr,
        /// The frame.
        frame: Frame<Packet<ServiceMsg>>,
    },
    /// A frame leaves a station (send CPU already charged).
    Transmit {
        /// The frame.
        frame: Frame<Packet<ServiceMsg>>,
    },
    /// A kernel timer fired.
    KernelTimer {
        /// The kernel's station.
        host: HostAddr,
        /// Timer key.
        key: TimerKey,
    },
    /// A service timer fired.
    SvcTimer {
        /// The service's station.
        host: HostAddr,
        /// Which service.
        which: SvcKind,
        /// Its token.
        token: SvcToken,
    },
    /// A CPU quantum ended on a workstation.
    QuantumEnd {
        /// The workstation.
        host: HostAddr,
        /// The program that was running.
        lh: LogicalHostId,
        /// CPU time it received.
        slice: SimDuration,
    },
    /// A program's sleep elapsed (routed by logical host: the program may
    /// have migrated meanwhile).
    SleepDone {
        /// The sleeping program.
        lh: LogicalHostId,
    },
    /// An owner activity transition.
    UserTransition {
        /// The workstation.
        host: HostAddr,
        /// How long the previous state was held.
        held: SimDuration,
    },
    /// A scripted command.
    Command(Command),
    /// A scheduled fault-plan event fires.
    ApplyFault {
        /// What the fault does.
        kind: FaultKind,
    },
    /// A timed partition heals (both directions).
    HealPartition {
        /// First station group.
        a: Vec<HostAddr>,
        /// Second station group.
        b: Vec<HostAddr>,
    },
    /// A periodic invariant-audit checkpoint (see
    /// [`ClusterConfig::audit_every`]).
    AuditTick,
}

/// A running program: kernel state lives in the kernel; this is the
/// behaviour object plus scheduling bookkeeping. It moves between
/// workstations when the logical host migrates.
pub struct ProgramRuntime {
    /// The behaviour model.
    pub behavior: WorkloadProgram,
    /// Root process.
    pub root: ProcessId,
    /// Team address space.
    pub team: SpaceId,
    /// Priority.
    pub priority: Priority,
    /// CPU still owed for the current `Compute` action.
    pub remaining_cpu: SimDuration,
    /// Outstanding send transaction, if blocked in Send.
    pub awaiting: Option<SendSeq>,
    /// True while queued or running on the CPU.
    pub scheduled: bool,
}

/// One machine on the segment.
pub struct Workstation {
    /// Station address.
    pub host: HostAddr,
    /// Host name (for `@ name`).
    pub name: String,
    /// The kernel.
    pub kernel: Kernel<ServiceMsg>,
    /// The program manager.
    pub pm: vservices::ProgramManager,
    /// The display server.
    pub display: DisplayServer,
    /// A file server, on machines that have one.
    pub fs: Option<FileServer>,
    /// The migration engine.
    pub migrator: Migrator,
    /// The shell's remote executor.
    pub exec: RemoteExecutor,
    /// The shell process.
    pub shell: ProcessId,
    /// The owner model (servers have none).
    pub user: Option<UserModel>,
    /// Programs whose behaviour currently runs here.
    pub programs: BTreeMap<LogicalHostId, ProgramRuntime>,
    /// CPU scheduler: the running program, and the ready queue.
    cpu_current: Option<LogicalHostId>,
    cpu_ready: VecDeque<LogicalHostId>,
    /// CPU time delivered to local-priority programs.
    pub cpu_local: SimDuration,
    /// CPU time delivered to guest programs.
    pub cpu_guest: SimDuration,
    /// True while crashed.
    pub down: bool,
}

impl Workstation {
    /// Programs holding or queued for the CPU.
    pub fn ready_programs(&self) -> usize {
        self.cpu_ready.len() + usize::from(self.cpu_current.is_some())
    }

    /// The workstation's system logical host.
    pub fn system_lh(&self) -> LogicalHostId {
        LogicalHostId(1 + self.host.0 as u32)
    }

    /// Fraction of `elapsed` this workstation's CPU spent on programs.
    pub fn cpu_utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.cpu_local + self.cpu_guest).as_secs_f64() / elapsed.as_secs_f64()
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of workstations (excluding the file-server machine).
    pub workstations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Wire loss model.
    pub loss: LossModel,
    /// Migration engine configuration.
    pub migration: MigrationConfig,
    /// Owner activity model (None = owners never present).
    pub users: Option<UserModelParams>,
    /// Evict guest programs when the owner returns (§1: reclaim "within a
    /// few seconds").
    pub evict_on_owner_return: bool,
    /// Trace verbosity.
    pub trace: TraceLevel,
    /// Where trace records are retained (unbounded, fixed ring, or off):
    /// the one buffer the runtime, wire, kernels and migrators share.
    pub trace_sink: TraceSinkSpec,
    /// Deterministic fault schedule executed by the runtime.
    pub faults: FaultPlan,
    /// Run the invariant auditor at this interval (`None` = only when a
    /// caller invokes [`Cluster::audit`] explicitly).
    pub audit_every: Option<SimDuration>,
    /// Record the time series, each value on change (`None` = telemetry
    /// off; the store still exists but holds no points).
    pub sampling: Option<SamplingSpec>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workstations: 4,
            seed: 1985,
            loss: LossModel::Bernoulli(vsim::calib::DEFAULT_LOSS_PROBABILITY),
            migration: MigrationConfig::default(),
            users: None,
            evict_on_owner_return: false,
            trace: TraceLevel::Warn,
            trace_sink: TraceSinkSpec::Unbounded,
            faults: FaultPlan::none(),
            audit_every: None,
            sampling: None,
        }
    }
}

/// Cluster-level counters.
#[derive(Debug, Default, Clone)]
pub struct ClusterStats {
    /// CPU quanta run by programs at local (owner) priority.
    pub quanta_local: u64,
    /// CPU quanta run by guest programs.
    pub quanta_guest: u64,
    /// Requests delivered to processes nobody implements.
    pub unroutable_deliveries: u64,
    /// Guest evictions triggered by owners returning.
    pub owner_evictions: u64,
    /// Programs that ran to completion.
    pub programs_finished: u64,
    /// Frames discarded because their checksum failed at the receiver.
    pub corrupt_frames_dropped: u64,
    /// Fault-plan events executed.
    pub faults_injected: u64,
    /// Invariant violations found by the auditor.
    pub audit_violations: u64,
    /// Orphan programs exterminated by lease expiry or revocation.
    pub orphans_exterminated: u64,
    /// Programs re-executed from their origin after being presumed dead.
    pub re_execs: u64,
}

impl ClusterStats {
    /// The scheduler, routing, fault and audit counters under the scope
    /// label `scope`.
    pub fn metrics(&self, scope: &str) -> ScopeMetrics {
        ScopeMetrics::new(scope)
            .with_counter(Subsystem::Cluster, "quanta_local", self.quanta_local)
            .with_counter(Subsystem::Cluster, "quanta_guest", self.quanta_guest)
            .with_counter(
                Subsystem::Cluster,
                "unroutable_deliveries",
                self.unroutable_deliveries,
            )
            .with_counter(Subsystem::Cluster, "owner_evictions", self.owner_evictions)
            .with_counter(
                Subsystem::Cluster,
                "programs_finished",
                self.programs_finished,
            )
            .with_counter(
                Subsystem::Cluster,
                "corrupt_frames_dropped",
                self.corrupt_frames_dropped,
            )
            .with_counter(Subsystem::Cluster, "faults_injected", self.faults_injected)
            .with_counter(
                Subsystem::Cluster,
                "audit_violations",
                self.audit_violations,
            )
    }
}

/// The whole simulated cluster.
pub struct Cluster {
    /// The event queue and simulated clock.
    pub engine: Engine<Event>,
    /// The one trace the runtime, wire, kernels and migrators emit into.
    trace: Trace,
    /// Charges every dispatch to its event kind's slot.
    profiler: Profiler,
    /// The wire.
    pub net: Ethernet<Packet<ServiceMsg>>,
    /// Machines; index 0 is the file-server machine.
    pub stations: Vec<Workstation>,
    /// Completed remote-execution reports.
    pub exec_reports: Vec<vcore::ExecReport>,
    /// Completed migration reports.
    pub migration_reports: Vec<MigrationReport>,
    /// Cluster counters.
    pub stats: ClusterStats,
    /// Invariant-audit reports collected so far (periodic checkpoints and
    /// explicit [`Cluster::audit`] calls).
    pub audit_reports: Vec<AuditReport>,
    /// Span ids for cluster-level scheduling spans.
    spans: SpanIdGen,
    /// Change-point telemetry (engine queue + cluster aggregates).
    series: SeriesStore,
    sids: SeriesIds,
    /// Pre-interned profiler slots, one per [`Event`] kind.
    slots: EventSlots,
    rng: DetRng,
    cfg: ClusterConfig,
    /// Fault-point-triggered faults still waiting for their protocol-step
    /// crossing (one-shot), with their pre-copy round filter, in plan
    /// order.
    point_faults: Vec<(FaultPoint, Option<u32>, FaultKind)>,
    /// Exec profile and priority by image, kept so a leased program
    /// presumed dead can be executed again from its origin.
    profiles_by_image: BTreeMap<String, (ProgramProfile, Priority)>,
    /// Image of each remotely executing program whose origin granted a
    /// lease; consumed by [`SvcEvent::ReExecNeeded`].
    reexec_images: BTreeMap<LogicalHostId, String>,
    /// Behaviours awaiting their ProgramStarted event, FIFO per image.
    pending_behaviors: BTreeMap<String, VecDeque<WorkloadProgram>>,
    /// Owner-reclaim measurements: (owner returned at, all guests gone at).
    pub reclaim_times: Vec<SimDuration>,
    reclaim_pending: BTreeMap<HostAddr, SimTime>,
}

/// Handles to the cluster's default time series.
struct SeriesIds {
    queue_depth: SeriesId,
    tombstones: SeriesId,
    ready: SeriesId,
    frozen: SeriesId,
    migrations: SeriesId,
    leases: SeriesId,
    retransmit: SeriesId,
}

/// One profiler slot per [`Event`] kind, interned at construction so the
/// dispatch loop never searches the slot table.
struct EventSlots {
    frame: SlotId,
    transmit: SlotId,
    kernel_timer: SlotId,
    svc_timer: SlotId,
    quantum_end: SlotId,
    sleep_done: SlotId,
    user_transition: SlotId,
    command: SlotId,
    apply_fault: SlotId,
    heal_partition: SlotId,
    audit_tick: SlotId,
}

impl EventSlots {
    fn intern(p: &mut Profiler) -> Self {
        EventSlots {
            frame: p.slot(Subsystem::Net, "Frame"),
            transmit: p.slot(Subsystem::Net, "Transmit"),
            kernel_timer: p.slot(Subsystem::Kernel, "KernelTimer"),
            svc_timer: p.slot(Subsystem::Services, "SvcTimer"),
            quantum_end: p.slot(Subsystem::Cluster, "QuantumEnd"),
            sleep_done: p.slot(Subsystem::Workload, "SleepDone"),
            user_transition: p.slot(Subsystem::Workload, "UserTransition"),
            command: p.slot(Subsystem::Cluster, "Command"),
            apply_fault: p.slot(Subsystem::Cluster, "ApplyFault"),
            heal_partition: p.slot(Subsystem::Net, "HealPartition"),
            audit_tick: p.slot(Subsystem::Cluster, "AuditTick"),
        }
    }

    fn for_event(&self, ev: &Event) -> SlotId {
        match ev {
            Event::Frame { .. } => self.frame,
            Event::Transmit { .. } => self.transmit,
            Event::KernelTimer { .. } => self.kernel_timer,
            Event::SvcTimer { .. } => self.svc_timer,
            Event::QuantumEnd { .. } => self.quantum_end,
            Event::SleepDone { .. } => self.sleep_done,
            Event::UserTransition { .. } => self.user_transition,
            Event::Command(_) => self.command,
            Event::ApplyFault { .. } => self.apply_fault,
            Event::HealPartition { .. } => self.heal_partition,
            Event::AuditTick => self.audit_tick,
        }
    }
}

impl Cluster {
    /// Builds a cluster: station 0 is the file-server machine, stations
    /// 1..=N are user workstations named `ws1`, `ws2`, ...
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut rng = DetRng::seed(cfg.seed);
        let trace = Trace::with_sink(cfg.trace, cfg.trace_sink);
        let mut net = Ethernet::new(cfg.loss.clone(), rng.fork(), trace.clone());
        let mut stations = Vec::new();
        let total = cfg.workstations + 1;

        // First pass: create kernels and system processes.
        for i in 0..total {
            let host = net.attach();
            let mut kernel: Kernel<ServiceMsg> =
                Kernel::new(host, KernelConfig::default(), trace.clone());
            let system_lh = LogicalHostId(1 + i as u32);
            let l = kernel.create_logical_host(system_lh);
            let team = l.create_space(SpaceLayout {
                code_bytes: 64 * 1024,
                init_data_bytes: 8 * 1024,
                heap_bytes: 64 * 1024,
                stack_bytes: 8 * 1024,
            });
            let pm_pid = l.create_process(team, Priority::SYSTEM, false);
            let display_pid = l.create_process(team, Priority::SYSTEM, false);
            let shell_pid = l.create_process(team, Priority::SYSTEM, false);
            let mig_pid = l.create_process(team, Priority::SYSTEM, false);
            let fs_pid = l.create_process(team, Priority::SYSTEM, false);
            kernel.register_well_known(PROGRAM_MANAGER_INDEX, pm_pid);
            kernel.register_well_known(vkernel::KERNEL_SERVER_INDEX, pm_pid);
            kernel.set_group_route(GroupId::PROGRAM_MANAGERS, PM_MCAST);

            let is_fs_machine = i == 0;
            let name = if is_fs_machine {
                "fileserver".to_string()
            } else {
                format!("ws{i}")
            };
            // The global file server lives on station 0; every PM points
            // at it. Its pid is deterministic: system lh 1, index 16+4.
            let global_fs_pid = ProcessId::new(LogicalHostId(1), vkernel::FIRST_USER_INDEX + 4);
            let pm = vservices::ProgramManager::new(
                pm_pid,
                host,
                name.clone(),
                global_fs_pid,
                10_000 * (i as u32 + 1),
                if is_fs_machine { 0 } else { MAX_GUEST_PROGRAMS },
            );
            let fs = if is_fs_machine {
                // The paging store for VM-flush migration.
                let pl = kernel.create_logical_host(PAGING_LH);
                pl.create_space_with_id(
                    PAGING_SPACE,
                    SpaceLayout {
                        code_bytes: 0,
                        init_data_bytes: 0,
                        heap_bytes: 16 * 1024 * 1024,
                        stack_bytes: 0,
                    },
                );
                Some(FileServer::new(fs_pid))
            } else {
                None
            };
            let user = if is_fs_machine {
                None
            } else {
                cfg.users
                    .as_ref()
                    .map(|p| UserModel::new(p.clone(), &mut rng))
            };
            stations.push(Workstation {
                host,
                name,
                kernel,
                pm,
                display: DisplayServer::new(display_pid),
                fs,
                migrator: Migrator::new(
                    mig_pid,
                    host,
                    1_000_000 + 10_000 * i as u32,
                    trace.clone(),
                ),
                exec: RemoteExecutor::new(shell_pid, host, pm_pid),
                shell: shell_pid,
                user,
                programs: BTreeMap::new(),
                cpu_current: None,
                cpu_ready: VecDeque::new(),
                cpu_local: SimDuration::ZERO,
                cpu_guest: SimDuration::ZERO,
                down: false,
            });
        }

        // Second pass: group membership and binding seeds.
        let fs_host = stations[0].host;
        for station in &mut stations {
            let pm_pid = station.pm.pid();
            let outs = station.kernel.join_group(GroupId::PROGRAM_MANAGERS, pm_pid);
            for o in outs {
                if let KernelOutput::JoinMcast(g) = o {
                    net.join(g, station.host);
                }
            }
            // Every kernel knows where the file-server machine's system
            // logical host (and the paging store) lives — these would be
            // learned from boot-time name-server traffic in real V.
            station.kernel.learn_binding(LogicalHostId(1), fs_host);
            station.kernel.learn_binding(PAGING_LH, fs_host);
        }

        let mut profiler = Profiler::null();
        let slots = EventSlots::intern(&mut profiler);
        // Default telemetry series, all updated after each dispatch by
        // `update_series`; the engine's queue comes first.
        let mut series = SeriesStore::new(cfg.sampling.unwrap_or_default());
        let sids = SeriesIds {
            queue_depth: series.manual(Subsystem::Engine, "queue_depth", "events"),
            tombstones: series.manual(Subsystem::Engine, "tombstones", "events"),
            ready: series.manual(Subsystem::Cluster, "ready_programs", "programs"),
            frozen: series.manual(Subsystem::Cluster, "frozen_programs", "programs"),
            migrations: series.manual(Subsystem::Migration, "inflight_migrations", "migrations"),
            leases: series.manual(Subsystem::Services, "active_leases", "leases"),
            retransmit: series.manual(Subsystem::Kernel, "retransmit_backlog", "sends"),
        };
        let mut cluster = Cluster {
            engine: Engine::new(),
            trace,
            profiler,
            net,
            stations,
            exec_reports: Vec::new(),
            migration_reports: Vec::new(),
            stats: ClusterStats::default(),
            audit_reports: Vec::new(),
            spans: SpanIdGen::new(1),
            series,
            sids,
            slots,
            rng,
            cfg,
            point_faults: Vec::new(),
            profiles_by_image: BTreeMap::new(),
            reexec_images: BTreeMap::new(),
            pending_behaviors: BTreeMap::new(),
            reclaim_times: Vec::new(),
            reclaim_pending: BTreeMap::new(),
        };
        cluster.seed_user_transitions();
        // Schedule the fault plan: timed faults go straight on the queue;
        // point-triggered ones wait for their protocol-step crossing.
        for ev in cluster.cfg.faults.clone().events {
            match ev.trigger {
                FaultTrigger::At(t) => {
                    cluster
                        .engine
                        .schedule_at(t, Event::ApplyFault { kind: ev.kind });
                }
                FaultTrigger::AtFaultPoint { point, round } => {
                    cluster.point_faults.push((point, round, ev.kind));
                }
            }
        }
        if let Some(every) = cluster.cfg.audit_every {
            cluster.engine.schedule_after(every, Event::AuditTick);
        }
        cluster
    }

    fn seed_user_transitions(&mut self) {
        for i in 0..self.stations.len() {
            if let Some(u) = &self.stations[i].user {
                let host = self.stations[i].host;
                let active = u.is_active();
                let held = u.holding_time(&mut self.rng);
                self.stations[i].pm.set_owner_active(active);
                self.engine
                    .schedule_after(held, Event::UserTransition { host, held });
            }
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The dedicated file-server machine's server.
    ///
    /// # Panics
    ///
    /// Panics if station 0 has no file server; [`Cluster::new`] always
    /// installs one.
    #[allow(clippy::expect_used)]
    pub fn file_server(&self) -> &FileServer {
        self.stations[0].fs.as_ref().expect("station 0 has the FS")
    }

    /// Mutable file-server access (for registering images/files).
    ///
    /// # Panics
    ///
    /// Panics if station 0 has no file server; [`Cluster::new`] always
    /// installs one.
    #[allow(clippy::expect_used)]
    pub fn file_server_mut(&mut self) -> &mut FileServer {
        self.stations[0].fs.as_mut().expect("station 0 has the FS")
    }

    /// Registers a program image derived from a profile.
    pub fn add_image(&mut self, profile: &ProgramProfile) {
        let name = profile.name.clone();
        let layout = profile.layout;
        self.file_server_mut().add_image(name, layout);
    }

    /// Station index for a host address.
    pub fn index_of(&self, host: HostAddr) -> usize {
        host.0 as usize
    }

    /// Which station currently hosts logical host `lh`, if any.
    pub fn locate(&self, lh: LogicalHostId) -> Option<HostAddr> {
        self.stations
            .iter()
            .find(|w| w.kernel.is_resident(lh))
            .map(|w| w.host)
    }

    /// The workstation whose *behaviour table* holds program `lh`.
    pub fn behavior_station(&self, lh: LogicalHostId) -> Option<usize> {
        self.stations
            .iter()
            .position(|w| w.programs.contains_key(&lh))
    }

    /// Schedules a scripted command.
    pub fn at(&mut self, t: SimTime, cmd: Command) {
        self.engine.schedule_at(t, Event::Command(cmd));
    }

    /// Immediately starts executing `profile` from workstation `ws`'s
    /// shell (`ws` is 1-based like host names; station 0 is the file
    /// server).
    pub fn exec(
        &mut self,
        ws: usize,
        profile: ProgramProfile,
        target: ExecTarget,
        priority: Priority,
    ) {
        let display = self.stations[ws].display.pid();
        let fs = self.file_server().pid();
        let env = ExecEnv::standard(display, fs);
        self.exec_with_env(ws, profile, target, priority, env);
    }

    /// Like [`Cluster::exec`] with a caller-built environment — used to
    /// point a program at non-standard servers (e.g. a workstation-local
    /// file server for the §3.3 residual-dependency demonstration).
    pub fn exec_with_env(
        &mut self,
        ws: usize,
        profile: ProgramProfile,
        target: ExecTarget,
        priority: Priority,
        env: ExecEnv,
    ) {
        let now = self.engine.now();
        self.add_image(&profile);
        self.profiles_by_image
            .insert(profile.name.clone(), (profile.clone(), priority));
        let spec = ProgramSpec {
            image: profile.name.clone(),
            priority,
        };
        self.pending_behaviors
            .entry(profile.name.clone())
            .or_default()
            .push_back(WorkloadProgram::new(profile, env));
        let outs = {
            let w = &mut self.stations[ws];
            let (k, ex) = (&mut w.kernel, &mut w.exec);
            ex.execute(now, spec, target, k)
        };
        self.apply_exec_outputs(ws, outs);
    }

    /// Installs a *workstation-local* file server on `ws` — exactly the
    /// kind of host-bound state §3.3 warns about. Returns its pid.
    ///
    /// # Panics
    ///
    /// Panics if `ws` already has a file server.
    #[allow(clippy::expect_used)]
    pub fn add_local_file_server(&mut self, ws: usize) -> ProcessId {
        assert!(self.stations[ws].fs.is_none(), "ws already has a server");
        let system_lh = self.stations[ws].system_lh();
        let pid = {
            let l = self.stations[ws]
                .kernel
                .logical_host_mut(system_lh)
                .expect("system lh exists");
            let team = l
                .processes()
                .next()
                .map(|p| p.team)
                .expect("system processes exist");
            l.create_process(team, Priority::SYSTEM, false)
        };
        self.stations[ws].fs = Some(FileServer::new(pid));
        pid
    }

    /// Starts `migrateprog` for `lh` on workstation `ws` via the real IPC
    /// path (shell → PM → migration engine).
    pub fn migrateprog(&mut self, ws: usize, lh: LogicalHostId, destroy_if_stuck: bool) {
        let now = self.engine.now();
        let shell = self.stations[ws].shell;
        let body = ServiceMsg::MigrateProgram {
            lh,
            destroy_if_stuck,
        };
        // Address "the program manager of whatever workstation hosts lh"
        // through its well-known local group (§2.1) — location-independent
        // even if the program just moved.
        let dest = Destination::Group(GroupId::program_manager_of(lh));
        let outs = self.stations[ws].kernel.send(now, shell, dest, body, 0);
        self.apply_kernel_outputs(ws, outs);
    }

    /// `suspendprog`: freezes a program in place, from any workstation's
    /// shell, via the hosting manager's well-known local group (§2:
    /// suspension works "independent of whether the program is executing
    /// locally or remotely").
    pub fn suspendprog(&mut self, ws: usize, lh: LogicalHostId) {
        self.pm_op(ws, lh, ServiceMsg::SuspendProgram { lh });
    }

    /// `resumeprog`: unfreezes a suspended program.
    pub fn resumeprog(&mut self, ws: usize, lh: LogicalHostId) {
        self.pm_op(ws, lh, ServiceMsg::ResumeProgram { lh });
    }

    fn pm_op(&mut self, ws: usize, lh: LogicalHostId, body: ServiceMsg) {
        let now = self.engine.now();
        let shell = self.stations[ws].shell;
        let dest = Destination::Group(GroupId::program_manager_of(lh));
        let outs = self.stations[ws].kernel.send(now, shell, dest, body, 0);
        self.apply_kernel_outputs(ws, outs);
    }

    /// Runs until the queue drains or `limit` passes.
    ///
    /// Every dispatch is charged to its event kind's profiler slot; under
    /// the default null clock that costs two free reads and a counter
    /// bump, so the loop stays deterministic and cheap. Bench bins inject
    /// a real clock via [`Cluster::set_host_clock`] to turn the counts
    /// into wall-clock attribution. With [`ClusterConfig::sampling`] on,
    /// each dispatch ends by updating the time series.
    pub fn run_until(&mut self, limit: SimTime) {
        let sampling = self.cfg.sampling.is_some();
        while let Some((_, ev)) = self.engine.step_due(limit) {
            let slot = self.slots.for_event(&ev);
            let t0 = self.profiler.begin();
            self.dispatch(ev);
            if sampling {
                self.update_series();
            }
            self.profiler.end(slot, t0);
        }
    }

    /// Runs for `d` more simulated time, leaving the clock at exactly
    /// `now + d` (events beyond the window stay queued).
    pub fn run_for(&mut self, d: SimDuration) {
        let limit = self.engine.now() + d;
        self.run_until(limit);
        // Everything at or before `limit` has been delivered; move the
        // clock to the window edge so callers measure fixed windows.
        if self.engine.now() < limit {
            self.engine.advance_to(limit);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Events still pending on the queue (0 = the cluster has quiesced).
    pub fn pending(&self) -> usize {
        self.engine.pending()
    }

    /// Events delivered by the engine so far.
    pub fn events_delivered(&self) -> u64 {
        self.engine.events_delivered()
    }

    /// The cluster trace: the one timeline the runtime, wire, kernels and
    /// migrators emit into, in time order.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Snapshots every component's metrics into one report: the event
    /// engine, the wire, the cluster scheduler, and each station's kernel
    /// + migration engine + CPU time under the station's name.
    pub fn metrics_report(&self) -> MetricsReport {
        let elapsed = self.engine.now().since(SimTime::ZERO);
        let mut report = MetricsReport::new();
        report.push(self.engine.metrics("engine"));
        report.push(self.net.metrics("net"));
        report.push(self.stats.metrics("cluster"));
        let ms = |d: SimDuration| d.as_secs_f64() * 1e3;
        for w in &self.stations {
            let busy = w.cpu_local + w.cpu_guest;
            report.push(
                w.kernel
                    .metrics(&w.name)
                    .merge(w.migrator.metrics(&w.name))
                    .with_gauge(Subsystem::Cluster, "cpu_local_ms", ms(w.cpu_local))
                    .with_gauge(Subsystem::Cluster, "cpu_guest_ms", ms(w.cpu_guest))
                    .with_gauge(
                        Subsystem::Cluster,
                        "cpu_idle_ms",
                        ms(elapsed.saturating_sub(busy)),
                    )
                    .with_gauge(
                        Subsystem::Cluster,
                        "cpu_utilization",
                        w.cpu_utilization(elapsed),
                    ),
            );
        }
        report
    }

    /// The causal span tree of the whole run so far. Call after the
    /// simulation has quiesced; spans still open at that point (e.g.
    /// transactions lost to a destroyed host) show up via
    /// [`SpanTree::unclosed`].
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::build(&self.trace)
    }

    // --- Event dispatch. ---

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Transmit { frame } => {
                let now = self.engine.now();
                let deliveries = self.net.transmit(now, frame);
                self.schedule_deliveries(deliveries);
            }
            Event::Frame { host, frame } => {
                let i = self.index_of(host);
                if self.stations[i].down {
                    return;
                }
                let now = self.engine.now();
                // Hardware check sequence: a corrupted frame never reaches
                // the kernel; the sender recovers by retransmission.
                if !frame.checksum_valid() {
                    self.stats.corrupt_frames_dropped += 1;
                    self.trace.warn(
                        self.engine.now(),
                        Subsystem::Net,
                        TraceEvent::CorruptFrame {
                            from: frame.src.0,
                            to: host.0,
                            bytes: frame.payload_bytes,
                        },
                    );
                    return;
                }
                let outs = self.stations[i].kernel.handle_frame(now, frame);
                self.apply_kernel_outputs(i, outs);
            }
            Event::KernelTimer { host, key } => {
                let i = self.index_of(host);
                if self.stations[i].down {
                    return;
                }
                let now = self.engine.now();
                let outs = self.stations[i].kernel.handle_timer(now, key);
                self.apply_kernel_outputs(i, outs);
            }
            Event::SvcTimer { host, which, token } => {
                let i = self.index_of(host);
                if self.stations[i].down {
                    return;
                }
                let now = self.engine.now();
                let outs = {
                    let w = &mut self.stations[i];
                    match which {
                        SvcKind::Pm => w.pm.handle_timer(now, token, &mut w.kernel),
                        SvcKind::Fs => match &mut w.fs {
                            Some(fs) => fs.handle_timer(now, token, &mut w.kernel),
                            None => SvcOutputs::new(),
                        },
                        SvcKind::Display => w.display.handle_timer(now, token, &mut w.kernel),
                    }
                };
                self.apply_svc_outputs(i, which, outs);
            }
            Event::QuantumEnd { host, lh, slice } => self.on_quantum_end(host, lh, slice),
            Event::SleepDone { lh } => self.on_sleep_done(lh),
            Event::UserTransition { host, held } => self.on_user_transition(host, held),
            Event::Command(cmd) => self.on_command(cmd),
            Event::ApplyFault { kind } => self.apply_fault(kind),
            Event::HealPartition { a, b } => self.net.heal(&a, &b),
            Event::AuditTick => {
                self.audit(false);
                // Audits follow the simulation: they stop at quiescence
                // instead of keeping the queue alive.
                if let Some(every) = self.cfg.audit_every {
                    if self.engine.pending() > 0 {
                        self.engine.schedule_after(every, Event::AuditTick);
                    }
                }
            }
        }
    }

    /// Reads the seven series from counts the components hold — the
    /// engine's queue depth and tombstones plus the cluster aggregates —
    /// and hands them to the store, which keeps only the changes.
    fn update_series(&mut self) {
        let (mut ready, mut frozen, mut migrations, mut leases, mut retransmit) = (0, 0, 0, 0, 0);
        for w in self.stations.iter().filter(|w| !w.down) {
            ready += w.ready_programs();
            frozen += w.kernel.frozen_count();
            migrations += w.migrator.job_count();
            leases += w.pm.lease_count();
            retransmit += w.kernel.outstanding_count();
        }
        let ids = &self.sids;
        self.series.update(
            self.engine.now(),
            &[
                (ids.queue_depth, self.engine.pending() as f64),
                (ids.tombstones, self.engine.tombstones() as f64),
                (ids.ready, ready as f64),
                (ids.frozen, frozen as f64),
                (ids.migrations, migrations as f64),
                (ids.leases, leases as f64),
                (ids.retransmit, retransmit as f64),
            ],
        );
    }

    /// The telemetry store (engine queue + cluster aggregates).
    pub fn series(&self) -> &SeriesStore {
        &self.series
    }

    /// Snapshots every series (the `series` artifact section).
    pub fn series_report(&self) -> SeriesReport {
        self.series.report()
    }

    /// Snapshots the dispatch profiler (the `profile` artifact section).
    pub fn profile_report(&self) -> ProfileReport {
        self.profiler.report()
    }

    /// Injects a real host clock so dispatch profiling attributes wall
    /// time. Bench binaries only — library and test code stays on the
    /// deterministic null clock.
    pub fn set_host_clock(&mut self, clock: Box<dyn HostClock>) {
        self.profiler.set_clock(clock);
    }

    // --- Fault injection. ---

    /// Executes one fault-plan event against the live cluster.
    fn apply_fault(&mut self, kind: FaultKind) {
        let now = self.engine.now();
        self.stats.faults_injected += 1;
        self.trace.warn(
            self.engine.now(),
            Subsystem::Cluster,
            TraceEvent::FaultInjected { kind: kind.label() },
        );
        match kind {
            FaultKind::Crash { ws, reboot_after } => {
                let ws = ws as usize;
                if ws >= self.stations.len() || self.stations[ws].down {
                    return;
                }
                self.on_command(Command::Crash { ws });
                if let Some(d) = reboot_after {
                    self.engine
                        .schedule_after(d, Event::Command(Command::Reboot { ws }));
                }
            }
            FaultKind::Partition {
                a,
                b,
                symmetric,
                heal_after,
            } => {
                let hosts = |group: &[u16]| -> Vec<HostAddr> {
                    group
                        .iter()
                        .filter(|&&w| (w as usize) < self.stations.len())
                        .map(|&w| self.stations[w as usize].host)
                        .collect()
                };
                let (ha, hb) = (hosts(&a), hosts(&b));
                self.net.partition(&ha, &hb, symmetric);
                if let Some(d) = heal_after {
                    self.engine
                        .schedule_after(d, Event::HealPartition { a: ha, b: hb });
                }
            }
            FaultKind::LatencySpike {
                from,
                to,
                extra,
                duration,
            } => {
                if (from as usize) < self.stations.len() && (to as usize) < self.stations.len() {
                    let f = self.stations[from as usize].host;
                    let t = self.stations[to as usize].host;
                    self.net.set_link_latency(f, t, extra, now + duration);
                }
            }
            FaultKind::Corrupt {
                probability,
                duration,
            } => {
                self.net.set_corruption(probability, now + duration);
            }
            FaultKind::ServiceRestart { ws } => {
                let ws = ws as usize;
                if ws >= self.stations.len() || self.stations[ws].down {
                    return;
                }
                // The manager process dies and restarts: the kernel aborts
                // the transactions it was serving (clients re-deliver by
                // retransmission) and the manager re-arms its reclaim
                // watchdogs from what survives in the kernel's tables.
                let outs = {
                    let w = &mut self.stations[ws];
                    let pm_pid = w.pm.pid();
                    w.kernel.abort_server_transactions(now, pm_pid);
                    w.pm.restart(&w.kernel)
                };
                self.apply_svc_outputs(ws, SvcKind::Pm, outs);
            }
        }
    }

    /// Records an audit violation in the trace and stats.
    pub(crate) fn note_violation(&mut self, v: &AuditViolation) {
        self.stats.audit_violations += 1;
        self.trace.warn(
            self.engine.now(),
            Subsystem::Cluster,
            TraceEvent::AuditViolation {
                kind: v.kind(),
                lh: v.lh().map_or(0, |l| l.0),
            },
        );
    }

    fn schedule_deliveries(&mut self, deliveries: Vec<Delivery<Packet<ServiceMsg>>>) {
        for Delivery { to, at, frame } in deliveries {
            // Receive-side CPU for small packets.
            let at = if is_bulk(&frame.payload) {
                at
            } else {
                at + SMALL_PACKET_CPU
            };
            self.engine
                .schedule_at(at, Event::Frame { host: to, frame });
        }
    }

    fn apply_kernel_outputs(&mut self, i: usize, outs: Vec<KernelOutput<ServiceMsg>>) {
        let host = self.stations[i].host;
        for o in outs {
            match o {
                KernelOutput::Transmit(frame) => {
                    if is_bulk(&frame.payload) {
                        let now = self.engine.now();
                        let deliveries = self.net.transmit(now, frame);
                        self.schedule_deliveries(deliveries);
                    } else {
                        // Send-side CPU.
                        self.engine
                            .schedule_after(SMALL_PACKET_CPU, Event::Transmit { frame });
                    }
                }
                KernelOutput::SetTimer { key, after } => {
                    self.engine
                        .schedule_after(after, Event::KernelTimer { host, key });
                }
                KernelOutput::Deliver(msg) => self.route_delivery(i, msg),
                KernelOutput::SendDone { pid, seq, result } => {
                    self.route_send_done(i, pid, seq, result)
                }
                KernelOutput::CopyDone {
                    xfer,
                    initiator,
                    result,
                } => self.route_copy_done(i, xfer, initiator, result),
                KernelOutput::JoinMcast(g) => self.net.join(g, host),
                KernelOutput::LeaveMcast(g) => self.net.leave(g, host),
            }
        }
    }

    fn apply_svc_outputs(&mut self, i: usize, which: SvcKind, outs: SvcOutputs) {
        let host = self.stations[i].host;
        for (token, after) in outs.timers {
            self.engine
                .schedule_after(after, Event::SvcTimer { host, which, token });
        }
        for e in outs.events {
            self.on_svc_event(i, e);
        }
        self.apply_kernel_outputs(i, outs.kernel);
    }

    fn apply_mig_outputs(&mut self, i: usize, outs: MigOutputs) {
        for e in outs.events {
            self.on_mig_event(i, e);
        }
        self.apply_kernel_outputs(i, outs.kernel);
    }

    fn apply_exec_outputs(&mut self, i: usize, outs: ExecOutputs) {
        for e in outs.events {
            match e {
                ExecEvent::Done(report) => {
                    if self.trace.enabled(TraceLevel::Info) {
                        self.trace.info(
                            self.engine.now(),
                            Subsystem::Exec,
                            TraceEvent::ExecDone {
                                image: report.image.clone(),
                                host: report.chosen_host.map(|h| h.0),
                                success: report.success,
                                selection_us: report.selection_time.as_micros(),
                                creation_us: report.creation_time.as_micros(),
                            },
                        );
                    }
                    if !report.success {
                        // The behaviour queued for this image never starts.
                        if let Some(q) = self.pending_behaviors.get_mut(&report.image) {
                            q.pop_front();
                        }
                    } else if let (Some(h), Some(lh)) = (report.chosen_host, report.lh) {
                        // Remote execution: the origin grants the remote
                        // host a lease and remembers the image so it can
                        // re-execute the program if the remote goes silent.
                        if h != self.stations[i].host {
                            self.reexec_images.insert(lh, report.image.clone());
                            let now = self.engine.now();
                            let louts = self.stations[i].pm.grant_lease(now, lh, h);
                            self.apply_svc_outputs(i, SvcKind::Pm, louts);
                        }
                    }
                    self.exec_reports.push(*report);
                }
            }
        }
        self.apply_kernel_outputs(i, outs.kernel);
    }

    // --- Routing. ---

    #[allow(clippy::expect_used)]
    fn route_delivery(&mut self, i: usize, msg: MsgIn<ServiceMsg>) {
        let now = self.engine.now();
        let w = &mut self.stations[i];
        if msg.to == w.pm.pid() {
            let outs = w.pm.handle_request(now, msg, &mut w.kernel);
            self.apply_svc_outputs(i, SvcKind::Pm, outs);
        } else if Some(msg.to) == w.fs.as_ref().map(|f| f.pid()) {
            let fs = w.fs.as_mut().expect("checked");
            let outs = fs.handle_request(now, msg, &mut w.kernel);
            self.apply_svc_outputs(i, SvcKind::Fs, outs);
        } else if msg.to == w.display.pid() {
            let outs = w.display.handle_request(now, msg, &mut w.kernel);
            self.apply_svc_outputs(i, SvcKind::Display, outs);
        } else {
            self.stats.unroutable_deliveries += 1;
            self.trace.warn(
                self.engine.now(),
                Subsystem::Cluster,
                TraceEvent::Unroutable {
                    lh: msg.to.lh.0,
                    index: msg.to.index,
                },
            );
        }
    }

    #[allow(clippy::expect_used)]
    fn route_send_done(
        &mut self,
        i: usize,
        pid: ProcessId,
        seq: SendSeq,
        result: Result<vkernel::ReplyIn<ServiceMsg>, vkernel::SendError>,
    ) {
        let now = self.engine.now();
        let w = &mut self.stations[i];
        if pid == w.pm.pid() {
            let outs = w.pm.handle_send_done(now, seq, result, &mut w.kernel);
            self.apply_svc_outputs(i, SvcKind::Pm, outs);
        } else if pid == w.migrator.pid() {
            let outs = w.migrator.handle_send_done(now, seq, result, &mut w.kernel);
            self.apply_mig_outputs(i, outs);
        } else if pid == w.shell {
            let outs = w.exec.handle_send_done(now, seq, result, &mut w.kernel);
            self.apply_exec_outputs(i, outs);
        } else if let Some(lh) = w
            .programs
            .iter()
            .find(|(_, p)| p.root == pid && p.awaiting == Some(seq))
            .map(|(&lh, _)| lh)
        {
            let ev = match result {
                Ok(r) => ProgEvent::Reply(r.body),
                Err(_) => ProgEvent::SendFailed,
            };
            self.stations[i]
                .programs
                .get_mut(&lh)
                .expect("found above")
                .awaiting = None;
            self.step_program(i, lh, ev);
        }
    }

    #[allow(clippy::expect_used)]
    fn route_copy_done(
        &mut self,
        i: usize,
        xfer: XferId,
        initiator: ProcessId,
        result: Result<u64, vkernel::SendError>,
    ) {
        let now = self.engine.now();
        let w = &mut self.stations[i];
        if Some(initiator) == w.fs.as_ref().map(|f| f.pid()) {
            let fs = w.fs.as_mut().expect("checked");
            let outs = fs.handle_copy_done(now, xfer, result, &mut w.kernel);
            self.apply_svc_outputs(i, SvcKind::Fs, outs);
        } else if initiator == w.migrator.pid() {
            let outs = w
                .migrator
                .handle_copy_done(now, xfer, result, &mut w.kernel);
            self.apply_mig_outputs(i, outs);
        } else if initiator == w.pm.pid() {
            let outs = w.pm.handle_copy_done(now, xfer, result, &mut w.kernel);
            self.apply_svc_outputs(i, SvcKind::Pm, outs);
        }
    }

    // --- Service / migration events. ---

    #[allow(clippy::expect_used)]
    fn on_svc_event(&mut self, i: usize, e: SvcEvent) {
        let now = self.engine.now();
        match e {
            SvcEvent::ProgramStarted { root, lh, image } => {
                let behavior = self
                    .pending_behaviors
                    .get_mut(&image)
                    .and_then(|q| q.pop_front());
                let Some(behavior) = behavior else {
                    if self.trace.enabled(TraceLevel::Warn) {
                        self.trace.warn(
                            self.engine.now(),
                            Subsystem::Cluster,
                            TraceEvent::BehaviorMissing {
                                image: image.clone(),
                            },
                        );
                    }
                    return;
                };
                let team = self.stations[i]
                    .kernel
                    .logical_host(lh)
                    .and_then(|l| l.process(root.index))
                    .map(|p| p.team)
                    .expect("started program has a root process");
                let priority = self.stations[i]
                    .pm
                    .program(lh)
                    .map(|p| p.priority)
                    .unwrap_or(Priority::GUEST);
                if self.trace.enabled(TraceLevel::Info) {
                    self.trace.info(
                        self.engine.now(),
                        Subsystem::Cluster,
                        TraceEvent::ProgramStarted {
                            image: image.clone(),
                            lh: lh.0,
                        },
                    );
                }
                self.stations[i].programs.insert(
                    lh,
                    ProgramRuntime {
                        behavior,
                        root,
                        team,
                        priority,
                        remaining_cpu: SimDuration::ZERO,
                        awaiting: None,
                        scheduled: false,
                    },
                );
                self.step_program(i, lh, ProgEvent::Started);
            }
            SvcEvent::ProgramDestroyed { lh } => {
                self.stations[i].programs.remove(&lh);
                self.stations[i].cpu_ready.retain(|&x| x != lh);
                if self.stations[i].cpu_current == Some(lh) {
                    self.stations[i].cpu_current = None;
                    self.cpu_dispatch(i);
                }
            }
            SvcEvent::ProgramResumed { lh } => {
                self.resume_scheduling(i, lh);
            }
            SvcEvent::LogicalHostAdopted { lh } => {
                self.trace.info(
                    self.engine.now(),
                    Subsystem::Migration,
                    TraceEvent::Adopted { lh: lh.0 },
                );
                // The behaviour object arrives with the MigEvent::Evicted
                // from the source; nothing to do here.
            }
            SvcEvent::MigrateRequested {
                lh,
                destroy_if_stuck,
                requester,
                seq,
            } => {
                let cfg = self.cfg.migration.clone();
                let w = &mut self.stations[i];
                let meta =
                    w.pm.program(lh)
                        .map(|p| ProgramMeta {
                            image: p.image.clone(),
                            priority: p.priority,
                            origin: p.origin,
                        })
                        .unwrap_or(ProgramMeta {
                            image: "unknown".into(),
                            priority: Priority::GUEST,
                            origin: None,
                        });
                if !w.kernel.is_resident(lh) || w.migrator.migrating(lh) {
                    let pm_pid = w.pm.pid();
                    let outs = w.kernel.reply(
                        now,
                        pm_pid,
                        requester,
                        seq,
                        ServiceMsg::Err(vservices::SvcError::BadRequest),
                        0,
                    );
                    self.apply_kernel_outputs(i, outs);
                    return;
                }
                let reply_to = ReplyTo {
                    from: w.pm.pid(),
                    to: requester,
                    seq,
                };
                let outs = w.migrator.start(
                    now,
                    lh,
                    meta,
                    cfg,
                    Some(reply_to),
                    destroy_if_stuck,
                    &mut w.kernel,
                );
                self.apply_mig_outputs(i, outs);
            }
            SvcEvent::OrphanExterminated { lh } => {
                self.stats.orphans_exterminated += 1;
                if self.trace.enabled(TraceLevel::Warn) {
                    self.trace.warn(
                        self.engine.now(),
                        Subsystem::Services,
                        TraceEvent::OrphanExterminated { lh: lh.0 },
                    );
                }
            }
            SvcEvent::LeaseRebound { lh, to } => {
                if self.trace.enabled(TraceLevel::Info) {
                    self.trace.info(
                        self.engine.now(),
                        Subsystem::Services,
                        TraceEvent::LeaseRebound { lh: lh.0, to: to.0 },
                    );
                }
            }
            SvcEvent::ReExecNeeded { lh } => {
                self.re_exec(i, lh);
            }
            SvcEvent::LeasePoint { lh, step, party } => {
                if step == ProtocolStep::LeaseExpiry && self.trace.enabled(TraceLevel::Warn) {
                    self.trace.warn(
                        self.engine.now(),
                        Subsystem::Services,
                        TraceEvent::LeaseExpired {
                            lh: lh.0,
                            party: party.label(),
                        },
                    );
                }
                self.fire_points(step, None, &[(party, Some(self.stations[i].host.0))]);
            }
        }
    }

    /// Re-executes a leased program from its origin after it was presumed
    /// dead (origin-side lease silence, or extermination notice). Re-exec
    /// gives at-least-once semantics: the origin may briefly race a live
    /// copy, which the lease protocol then exterminates.
    fn re_exec(&mut self, i: usize, lh: LogicalHostId) {
        let Some(image) = self.reexec_images.remove(&lh) else {
            return;
        };
        self.stats.re_execs += 1;
        if self.trace.enabled(TraceLevel::Warn) {
            self.trace.warn(
                self.engine.now(),
                Subsystem::Services,
                TraceEvent::ReExecuted {
                    lh: lh.0,
                    image: image.clone(),
                },
            );
        }
        self.fire_points(
            ProtocolStep::ReExec,
            None,
            &[(Party::Origin, Some(self.stations[i].host.0))],
        );
        let Some((profile, priority)) = self.profiles_by_image.get(&image).cloned() else {
            return;
        };
        self.exec(i, profile, ExecTarget::AnyIdle, priority);
    }

    /// Fires one-shot point faults pinned to `(step, party)` crossings, in
    /// plan order. `round` is the pre-copy round a `PrecopyRound` crossing
    /// completed (`None` for every other step); a fault with a round
    /// filter fires only on that round. `parties` lists which protocol
    /// parties this crossing represents and (when known) the station each
    /// party runs on, so `PARTY`-relative fault kinds can be resolved to a
    /// concrete station.
    fn fire_points(
        &mut self,
        step: ProtocolStep,
        round: Option<u32>,
        parties: &[(Party, Option<u16>)],
    ) {
        if self.point_faults.is_empty() {
            return;
        }
        let n = self.stations.len() as u16;
        let mut fired = Vec::new();
        self.point_faults.retain(|(point, want_round, kind)| {
            if point.step != step || want_round.is_some_and(|r| Some(r) != round) {
                return true;
            }
            let Some((_, ws)) = parties.iter().find(|(p, _)| *p == point.party) else {
                return true;
            };
            // A party we cannot place (e.g. target not yet chosen) keeps
            // the fault armed for a later crossing of the same step.
            let Some(ws) = ws else {
                return true;
            };
            fired.push((*point, resolve_party(kind.clone(), *ws, n)));
            false
        });
        for (point, kind) in fired {
            if self.trace.enabled(TraceLevel::Warn) {
                self.trace.warn(
                    self.engine.now(),
                    Subsystem::Cluster,
                    TraceEvent::FaultPointHit {
                        step: point.step.label(),
                        party: point.party.label(),
                    },
                );
            }
            self.apply_fault(kind);
        }
    }

    fn on_mig_event(&mut self, i: usize, e: MigEvent) {
        let now = self.engine.now();
        match e {
            MigEvent::Evicted { lh, to_host } => {
                let j = self.index_of(to_host);
                let (info, fouts) = {
                    let w = &mut self.stations[i];
                    w.pm.forget_program(now, lh, &mut w.kernel)
                };
                self.apply_svc_outputs(i, SvcKind::Pm, fouts);
                // If the evicting station is the program's origin, the
                // program has just *become* remote: grant a lease to the
                // destination and remember the image for possible re-exec.
                // (A guest's existing lease travels in InstallState.origin;
                // the new holder heartbeats and the origin rebinds.)
                if let Some(info) = info {
                    if info.origin == Some(self.stations[i].host) {
                        self.reexec_images.insert(lh, info.image.clone());
                        let louts = self.stations[i].pm.grant_lease(now, lh, to_host);
                        self.apply_svc_outputs(i, SvcKind::Pm, louts);
                    }
                }
                self.stations[i].cpu_ready.retain(|&x| x != lh);
                if self.stations[i].cpu_current == Some(lh) {
                    self.stations[i].cpu_current = None;
                }
                if let Some(prt) = self.stations[i].programs.remove(&lh) {
                    self.trace.info(
                        self.engine.now(),
                        Subsystem::Migration,
                        TraceEvent::Rebind {
                            lh: lh.0,
                            from: self.stations[i].host.0,
                            to: self.stations[j].host.0,
                        },
                    );
                    let mut prt = prt;
                    prt.scheduled = false;
                    let resume_cpu = prt.remaining_cpu > SimDuration::ZERO;
                    self.stations[j].programs.insert(lh, prt);
                    if resume_cpu {
                        self.cpu_make_ready(j, lh);
                    }
                }
                self.cpu_dispatch(i);
            }
            MigEvent::Done(report) => {
                if self.trace.enabled(TraceLevel::Info) {
                    self.trace.info(
                        self.engine.now(),
                        Subsystem::Migration,
                        TraceEvent::MigrationDone {
                            image: report.image.clone(),
                            lh: report.lh.0,
                            success: report.success,
                            iterations: report.iterations.len() as u32,
                            residual_kb: report.residual_bytes / 1024,
                            freeze_us: report.freeze_time.as_micros(),
                        },
                    );
                }
                self.note_reclaim_progress(i);
                self.migration_reports.push(*report);
            }
            MigEvent::UnfrozeInPlace { lh } => {
                self.resume_scheduling(i, lh);
            }
            MigEvent::Point {
                lh,
                step,
                round,
                target,
            } => {
                let origin = self.stations[i]
                    .pm
                    .program(lh)
                    .and_then(|p| p.origin)
                    .map(|h| h.0);
                self.fire_points(
                    step,
                    round,
                    &[
                        (Party::Source, Some(self.stations[i].host.0)),
                        (Party::Target, target.map(|h| h.0)),
                        (Party::Origin, origin),
                    ],
                );
            }
            MigEvent::Destroyed { lh } => {
                let (info, fouts) = {
                    let w = &mut self.stations[i];
                    w.pm.forget_program(now, lh, &mut w.kernel)
                };
                self.apply_svc_outputs(i, SvcKind::Pm, fouts);
                // A deliberate destroy releases the lease back to the
                // origin so it does not later presume the program dead.
                if let Some(o) = info.and_then(|p| p.origin) {
                    let louts = {
                        let w = &mut self.stations[i];
                        w.pm.release_lease_to(now, o, lh, &mut w.kernel)
                    };
                    self.apply_svc_outputs(i, SvcKind::Pm, louts);
                }
                self.reexec_images.remove(&lh);
                self.stations[i].programs.remove(&lh);
                self.stations[i].cpu_ready.retain(|&x| x != lh);
                if self.stations[i].cpu_current == Some(lh) {
                    self.stations[i].cpu_current = None;
                    self.cpu_dispatch(i);
                }
            }
        }
    }

    /// Re-queues a program whose logical host was unfrozen in place
    /// (resume after suspension, or an aborted migration).
    fn resume_scheduling(&mut self, i: usize, lh: LogicalHostId) {
        let needs_cpu = self.stations[i]
            .programs
            .get(&lh)
            .map(|p| p.remaining_cpu > SimDuration::ZERO && !p.scheduled)
            .unwrap_or(false);
        if needs_cpu {
            self.cpu_make_ready(i, lh);
        }
    }

    // --- Program execution. ---

    fn step_program(&mut self, i: usize, lh: LogicalHostId, ev: ProgEvent) {
        let now = self.engine.now();
        let action = {
            let w = &mut self.stations[i];
            let Some(prt) = w.programs.get_mut(&lh) else {
                return;
            };
            prt.behavior.next(now, ev, &mut self.rng)
        };
        self.perform_action(i, lh, action);
    }

    #[allow(clippy::expect_used)]
    fn perform_action(&mut self, i: usize, lh: LogicalHostId, action: ProgAction) {
        let now = self.engine.now();
        match action {
            ProgAction::Compute(d) => {
                let prt = self.stations[i]
                    .programs
                    .get_mut(&lh)
                    .expect("acting program exists");
                prt.remaining_cpu = d;
                self.cpu_make_ready(i, lh);
            }
            ProgAction::Sleep(d) => {
                self.engine.schedule_after(d, Event::SleepDone { lh });
            }
            ProgAction::Send {
                to,
                body,
                data_bytes,
                register_child,
            } => {
                if let Some(profile) = register_child {
                    // A subprogram is being created; queue its behaviour
                    // (it inherits the parent's environment, §2.1).
                    let env = self.stations[i]
                        .programs
                        .get(&lh)
                        .expect("acting program")
                        .behavior
                        .env()
                        .clone();
                    self.add_image(&profile);
                    self.pending_behaviors
                        .entry(profile.name.clone())
                        .or_default()
                        .push_back(WorkloadProgram::new(*profile, env));
                }
                let (outs, seq) = {
                    let w = &mut self.stations[i];
                    let root = w.programs.get(&lh).expect("acting program").root;
                    let (seq, outs) = w.kernel.send_with_seq(now, root, to, body, data_bytes);
                    (outs, seq)
                };
                self.stations[i]
                    .programs
                    .get_mut(&lh)
                    .expect("acting program")
                    .awaiting = Some(seq);
                self.apply_kernel_outputs(i, outs);
            }
            ProgAction::Exit => {
                self.stats.programs_finished += 1;
                // The finished program is destroyed via "the program
                // manager of whatever workstation hosts lh" — the
                // well-known local group of §2.1, which keeps working
                // across migrations.
                let outs = {
                    let w = &mut self.stations[i];
                    let shell = w.shell;
                    let dest = Destination::Group(GroupId::program_manager_of(lh));
                    w.kernel
                        .send(now, shell, dest, ServiceMsg::DestroyProgram { lh }, 0)
                };
                self.apply_kernel_outputs(i, outs);
            }
        }
    }

    fn on_sleep_done(&mut self, lh: LogicalHostId) {
        if let Some(i) = self.behavior_station(lh) {
            // A frozen program's sleep completion waits for the unfreeze
            // (execution is suspended); model: re-queue the event shortly.
            // Likewise while the hosting station is powered off.
            let frozen = self.stations[i]
                .kernel
                .logical_host(lh)
                .map(|l| l.is_frozen())
                .unwrap_or(false);
            if frozen || self.stations[i].down {
                self.engine
                    .schedule_after(SimDuration::from_millis(10), Event::SleepDone { lh });
                return;
            }
            self.step_program(i, lh, ProgEvent::SleepDone);
        }
    }

    // --- CPU scheduling (priority, round-robin within a level). ---

    fn cpu_make_ready(&mut self, i: usize, lh: LogicalHostId) {
        let w = &mut self.stations[i];
        let Some(prt) = w.programs.get_mut(&lh) else {
            return;
        };
        if prt.scheduled || prt.remaining_cpu.is_zero() {
            return;
        }
        prt.scheduled = true;
        w.cpu_ready.push_back(lh);
        self.cpu_dispatch(i);
    }

    #[allow(clippy::expect_used)]
    fn cpu_dispatch(&mut self, i: usize) {
        let w = &mut self.stations[i];
        if w.cpu_current.is_some() || w.cpu_ready.is_empty() {
            return;
        }
        // Pick the highest-priority ready program (lowest Priority value),
        // FIFO within a level — "priority scheduling for locally invoked
        // programs" (§2).
        let best = w
            .cpu_ready
            .iter()
            .enumerate()
            .min_by_key(|(pos, lh)| {
                let pr = w
                    .programs
                    .get(lh)
                    .map(|p| p.priority)
                    .unwrap_or(Priority::GUEST);
                (pr, *pos)
            })
            .map(|(pos, _)| pos);
        let Some(pos) = best else { return };
        let lh = w.cpu_ready.remove(pos).expect("position valid");
        let Some(prt) = w.programs.get_mut(&lh) else {
            return;
        };
        // Frozen programs do not execute.
        let frozen = w
            .kernel
            .logical_host(lh)
            .map(|l| l.is_frozen())
            .unwrap_or(true);
        if frozen {
            prt.scheduled = false;
            return;
        }
        let slice = prt.remaining_cpu.min(CPU_QUANTUM);
        w.cpu_current = Some(lh);
        let host = w.host;
        self.engine.schedule_after(
            slice + CONTEXT_SWITCH,
            Event::QuantumEnd { host, lh, slice },
        );
    }

    #[allow(clippy::expect_used)]
    fn on_quantum_end(&mut self, host: HostAddr, lh: LogicalHostId, slice: SimDuration) {
        let i = self.index_of(host);
        if self.stations[i].down {
            return;
        }
        if self.stations[i].cpu_current != Some(lh) {
            // The program migrated or was destroyed mid-quantum.
            self.cpu_dispatch(i);
            return;
        }
        self.stations[i].cpu_current = None;
        let frozen = self.stations[i]
            .kernel
            .logical_host(lh)
            .map(|l| l.is_frozen())
            .unwrap_or(true);
        let mut cpu_done = false;
        if let Some(prt) = self.stations[i].programs.get_mut(&lh) {
            prt.scheduled = false;
            if !frozen {
                // The slice began a slice ago: record it whole as one
                // "quantum" span stamped now, so the trace stays in time
                // order.
                let now = self.engine.now();
                self.spans.next().done(
                    &mut self.trace,
                    TraceLevel::Detail,
                    SimTime::from_micros(now.as_micros().saturating_sub(slice.as_micros())),
                    now,
                    Subsystem::Cluster,
                    SpanContext::NONE,
                    "quantum",
                    host.0,
                );
                // Charge the slice: the behaviour dirties pages.
                let w = &mut self.stations[i];
                let prt = w.programs.get_mut(&lh).expect("checked");
                if prt.priority <= Priority::LOCAL {
                    w.cpu_local += slice;
                    self.stats.quanta_local += 1;
                } else {
                    w.cpu_guest += slice;
                    self.stats.quanta_guest += 1;
                }
                if let Some(space) = w
                    .kernel
                    .logical_host_mut(lh)
                    .and_then(|l| l.space_mut(prt.team))
                {
                    prt.behavior.on_cpu(slice, space, &mut self.rng);
                }
                prt.remaining_cpu = prt.remaining_cpu.saturating_sub(slice);
                if prt.remaining_cpu.is_zero() {
                    cpu_done = true;
                } else {
                    prt.scheduled = true;
                    w.cpu_ready.push_back(lh);
                }
            }
        }
        if cpu_done {
            self.step_program(i, lh, ProgEvent::CpuDone);
        }
        self.cpu_dispatch(i);
    }

    // --- Owners. ---

    fn on_user_transition(&mut self, host: HostAddr, held: SimDuration) {
        let i = self.index_of(host);
        let Some(user) = self.stations[i].user.as_mut() else {
            return;
        };
        let new_state = user.transition(held);
        let next_held = user.holding_time(&mut self.rng);
        let active = new_state == OwnerState::Active;
        self.stations[i].pm.set_owner_active(active);
        self.engine.schedule_after(
            next_held,
            Event::UserTransition {
                host,
                held: next_held,
            },
        );
        if active && self.cfg.evict_on_owner_return {
            self.reclaim_for_owner(i);
        }
    }

    /// The owner of station `i` came back: evict its guests and start
    /// timing the reclaim.
    fn reclaim_for_owner(&mut self, i: usize) {
        let host = self.stations[i].host;
        self.reclaim_pending.insert(host, self.engine.now());
        self.evict_guests(i);
        self.note_reclaim_progress(i);
    }

    #[allow(clippy::expect_used)]
    fn evict_guests(&mut self, i: usize) {
        let now = self.engine.now();
        let guests: Vec<LogicalHostId> = self.stations[i]
            .pm
            .programs()
            .iter()
            .filter(|(_, p)| p.remote_origin)
            .map(|(&lh, _)| lh)
            .collect();
        for lh in guests {
            if self.stations[i].migrator.migrating(lh) {
                continue;
            }
            self.stats.owner_evictions += 1;
            let cfg = self.cfg.migration.clone();
            let w = &mut self.stations[i];
            let meta =
                w.pm.program(lh)
                    .map(|p| ProgramMeta {
                        image: p.image.clone(),
                        priority: p.priority,
                        origin: p.origin,
                    })
                    .expect("guest is registered");
            let outs = w
                .migrator
                .start(now, lh, meta, cfg, None, true, &mut w.kernel);
            self.apply_mig_outputs(i, outs);
        }
    }

    fn note_reclaim_progress(&mut self, i: usize) {
        let host = self.stations[i].host;
        let Some(&since) = self.reclaim_pending.get(&host) else {
            return;
        };
        let guests_left = self.stations[i]
            .pm
            .programs()
            .values()
            .filter(|p| p.remote_origin)
            .count();
        if guests_left == 0 {
            let now = self.engine.now();
            self.reclaim_pending.remove(&host);
            self.reclaim_times.push(now.since(since));
        }
    }

    // --- Commands. ---

    fn on_command(&mut self, cmd: Command) {
        match cmd {
            Command::Exec {
                ws,
                profile,
                target,
                priority,
            } => self.exec(ws, profile, target, priority),
            Command::Migrate {
                ws,
                lh,
                destroy_if_stuck,
            } => {
                let lh = lh.or_else(|| {
                    self.stations[ws]
                        .pm
                        .programs()
                        .iter()
                        .find(|(_, p)| p.remote_origin)
                        .map(|(&lh, _)| lh)
                });
                if let Some(lh) = lh {
                    self.migrateprog(ws, lh, destroy_if_stuck);
                }
            }
            Command::Crash { ws } => {
                let host = self.stations[ws].host;
                self.net.set_up(host, false);
                self.stations[ws].down = true;
            }
            Command::Reboot { ws } => {
                let host = self.stations[ws].host;
                self.net.set_up(host, true);
                self.stations[ws].down = false;
                // A reboot loses volatile state — most importantly any
                // Demos/MP forwarding addresses (§5).
                self.stations[ws].kernel.clear_forwarding();
                // Every timer callback pending at crash time was consumed
                // while the station was down; re-arm the kernel's
                // retransmission/retention timers, fail its in-flight bulk
                // transfers, and re-arm the program manager's watchdogs.
                let now = self.engine.now();
                let kouts = self.stations[ws].kernel.reboot_recover(now);
                self.apply_kernel_outputs(ws, kouts);
                let souts = self.stations[ws].pm.reboot_recover();
                self.apply_svc_outputs(ws, SvcKind::Pm, souts);
                // The CPU scheduler's quantum events died with the power:
                // rebuild the ready queue from programs that still owe CPU.
                self.stations[ws].cpu_current = None;
                self.stations[ws].cpu_ready.clear();
                let mut runnable: Vec<LogicalHostId> = Vec::new();
                for (&lh, prt) in self.stations[ws].programs.iter_mut() {
                    prt.scheduled = false;
                    if prt.remaining_cpu > SimDuration::ZERO {
                        runnable.push(lh);
                    }
                }
                runnable.sort_by_key(|l| l.0);
                for lh in runnable {
                    self.cpu_make_ready(ws, lh);
                }
            }
            Command::SetOwnerActive { ws, active } => {
                self.stations[ws].pm.set_owner_active(active);
                if active && self.cfg.evict_on_owner_return {
                    self.reclaim_for_owner(ws);
                }
            }
        }
    }

    /// Point-triggered faults still waiting for their protocol-step
    /// crossing. Matrix tests assert this reaches zero — i.e. every
    /// scheduled fault point was actually crossed and fired.
    pub fn pending_point_faults(&self) -> usize {
        self.point_faults.len()
    }
}

/// Replaces the [`PARTY`] placeholder in a fault kind with the concrete
/// station `ws` the matched protocol party runs on. A `Partition` with an
/// empty `b` side isolates the party from everyone else.
fn resolve_party(kind: FaultKind, ws: u16, stations: u16) -> FaultKind {
    let fix = |s: u16| if s == PARTY { ws } else { s };
    match kind {
        FaultKind::Crash {
            ws: w,
            reboot_after,
        } => FaultKind::Crash {
            ws: fix(w),
            reboot_after,
        },
        FaultKind::Partition {
            a,
            b,
            symmetric,
            heal_after,
        } => {
            let a: Vec<u16> = a.into_iter().map(fix).collect();
            let b: Vec<u16> = if b.is_empty() {
                (0..stations).filter(|s| !a.contains(s)).collect()
            } else {
                b.into_iter().map(fix).collect()
            };
            FaultKind::Partition {
                a,
                b,
                symmetric,
                heal_after,
            }
        }
        FaultKind::LatencySpike {
            from,
            to,
            extra,
            duration,
        } => FaultKind::LatencySpike {
            from: fix(from),
            to: fix(to),
            extra,
            duration,
        },
        FaultKind::ServiceRestart { ws: w } => FaultKind::ServiceRestart { ws: fix(w) },
        k @ FaultKind::Corrupt { .. } => k,
    }
}

fn is_bulk(p: &Packet<ServiceMsg>) -> bool {
    matches!(
        p,
        Packet::BulkData { .. }
            | Packet::BulkAck { .. }
            | Packet::BulkPull { .. }
            | Packet::BulkPullNak { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_lays_out_stations() {
        let c = Cluster::new(ClusterConfig {
            workstations: 3,
            loss: LossModel::None,
            ..ClusterConfig::default()
        });
        assert_eq!(c.stations.len(), 4, "file server + 3 workstations");
        assert_eq!(c.stations[0].name, "fileserver");
        assert_eq!(c.stations[1].name, "ws1");
        assert_eq!(c.stations[3].name, "ws3");
        assert!(c.stations[0].fs.is_some());
        assert!(c.stations[1].fs.is_none());
        // System logical hosts are 1 + station index.
        assert_eq!(c.stations[2].system_lh(), LogicalHostId(3));
        // The paging store lives on the file-server machine.
        assert_eq!(c.locate(PAGING_LH), Some(c.stations[0].host));
        // index_of inverts host addresses.
        for (i, w) in c.stations.iter().enumerate() {
            assert_eq!(c.index_of(w.host), i);
        }
    }

    #[test]
    fn cpu_utilization_accounts_priorities() {
        let mut w = Cluster::new(ClusterConfig {
            workstations: 1,
            loss: LossModel::None,
            ..ClusterConfig::default()
        });
        let ws = &mut w.stations[1];
        ws.cpu_local = SimDuration::from_secs(3);
        ws.cpu_guest = SimDuration::from_secs(1);
        let util = ws.cpu_utilization(SimDuration::from_secs(10));
        assert!((util - 0.4).abs() < 1e-9);
        assert_eq!(ws.cpu_utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn pm_group_membership_is_wired() {
        let c = Cluster::new(ClusterConfig {
            workstations: 2,
            loss: LossModel::None,
            ..ClusterConfig::default()
        });
        // All three PMs (fileserver included) joined the multicast group.
        assert_eq!(c.net.members(PM_MCAST).len(), 3);
    }

    #[test]
    fn bulk_packets_are_classified() {
        let p: Packet<ServiceMsg> = Packet::BulkAck {
            xfer: vkernel::XferId(1),
            unit: 0,
            refused: false,
        };
        assert!(is_bulk(&p));
        let p: Packet<ServiceMsg> = Packet::NewBinding {
            lh: LogicalHostId(1),
            host: HostAddr(0),
        };
        assert!(!is_bulk(&p));
    }
}
