//! The cluster runtime: the event loop and the router between stations.
//!
//! A [`Cluster`] owns the event queue, the simulated Ethernet, the fault
//! plan, the auditor and the telemetry, and one [`Station`] per machine:
//! a dedicated file-server machine plus the user workstations. Stations
//! are sans-IO state machines like every other layer; the cluster is the
//! only place that touches the event queue or the wire.
//!
//! Each dispatch finds the station an event is for, calls
//! [`Station::handle`], and applies the [`Output`]s in order. An output
//! that feeds a station again is handled at once, so everything it causes
//! is applied before the next one: engine sequence numbers, RNG draws and
//! trace records come out in the order of one direct call chain (see
//! [`crate::station`]).
//!
//! Per-packet CPU costs: small packets (requests, replies, control) are
//! charged [`vsim::calib::SMALL_PACKET_CPU`] on both the sending and the
//! receiving side; bulk-data packets are *not* (their CPU cost is already
//! inside the calibrated per-unit pacing).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use vcore::{ExecTarget, MigrationConfig, MigrationReport};
use vkernel::{LogicalHostId, Packet, Priority, ProcessId};
use vnet::{Arrival, Ethernet, Frame, HostAddr, LossModel};
use vservices::{ExecEnv, FileServer, ProgramSpec, ServiceMsg};
use vsim::calib::SMALL_PACKET_CPU;
use vsim::{
    DetRng, Engine, FaultKind, FaultPlan, FaultPoint, FaultTrigger, HostClock, MetricsReport,
    Party, ProfileReport, Profiler, ProtocolStep, SamplingSpec, ScopeMetrics, SeriesId,
    SeriesReport, SeriesStore, SimDuration, SimTime, SlotId, SpanIdGen, SpanTree, Subsystem, Trace,
    TraceEvent, TraceLevel, TraceSinkSpec,
};
use vworkload::{ProgramProfile, UserModelParams, WorkloadProgram};

use crate::audit::{AuditReport, AuditViolation};
use crate::station::{is_bulk, Input, Output, Station, Timer};

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

/// Events on the cluster's queue. Frames, receiver lists, commands and
/// fault kinds are boxed: the queue moves each entry it sifts, so a small
/// `Event` keeps every dispatch cheap.
///
/// One transmit queues its receivers as few events as it can: each run of
/// consecutive receivers that hear the one shared frame at the same
/// instant is one [`Event::Frames`]. A receiver alone at its instant (a
/// unicast, or one behind a latency spike) and a receiver with its own
/// corrupted copy are an [`Event::Frame`]. Both feed each receiver
/// through [`Input::Frame`], so a station that went down since the
/// transmit, or a failed checksum, drops the frame at that receiver as
/// before.
pub enum Event {
    /// A frame reaches the station at this address (receive CPU already
    /// charged).
    Frame(HostAddr, Box<Frame<Packet<ServiceMsg>>>),
    /// One frame reaches the stations at these addresses, in this order,
    /// at one instant (receive CPU already charged). Each receiver is fed
    /// its own copy; the last takes this one.
    Frames(Box<[HostAddr]>, Box<Frame<Packet<ServiceMsg>>>),
    /// A timer of the station at this address comes due. A program's
    /// `SleepDone` goes to wherever the program runs by then.
    Timer(HostAddr, Timer),
    /// A frame leaves a station (send CPU already charged).
    Transmit {
        /// The frame.
        frame: Box<Frame<Packet<ServiceMsg>>>,
    },
    /// A scripted command.
    Command(Box<Command>),
    /// A scheduled fault-plan event fires.
    ApplyFault {
        /// What the fault does.
        kind: Box<FaultKind>,
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

// The queue moves every entry it sifts: keep an event within six words.
const _: () = assert!(std::mem::size_of::<Event>() <= 48);

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
        [
            ("quanta_local", self.quanta_local),
            ("quanta_guest", self.quanta_guest),
            ("unroutable_deliveries", self.unroutable_deliveries),
            ("owner_evictions", self.owner_evictions),
            ("programs_finished", self.programs_finished),
            ("corrupt_frames_dropped", self.corrupt_frames_dropped),
            ("faults_injected", self.faults_injected),
            ("audit_violations", self.audit_violations),
        ]
        .into_iter()
        .fold(ScopeMetrics::new(scope), |m, (name, n)| {
            m.with_counter(Subsystem::Cluster, name, n)
        })
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
    pub stations: Vec<Station>,
    /// Completed remote-execution reports.
    pub exec_reports: Vec<vcore::ExecReport>,
    /// Completed migration reports.
    pub migration_reports: Vec<MigrationReport>,
    /// Cluster counters.
    pub stats: ClusterStats,
    /// Invariant-audit reports collected so far (periodic checkpoints and
    /// explicit [`Cluster::audit`] calls).
    pub audit_reports: Vec<AuditReport>,
    /// Change-point telemetry (engine queue + cluster aggregates).
    series: SeriesStore,
    sids: SeriesIds,
    /// Each station's [`Station::gauges`] as of the last series update,
    /// and their cluster-wide sums (sampling on only).
    gauges: Vec<[usize; 5]>,
    gauge_sums: [usize; 5],
    /// Stations fed or crashed since the last series update, possibly
    /// more than once (sampling on only).
    touched: Vec<usize>,
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
    /// lease; consumed when the origin presumes the program dead.
    reexec_images: BTreeMap<LogicalHostId, String>,
    /// Behaviours awaiting their ProgramStarted event, FIFO per image.
    pending_behaviors: BTreeMap<String, VecDeque<WorkloadProgram>>,
    /// Owner-reclaim measurements: (owner returned at, all guests gone at).
    pub reclaim_times: Vec<SimDuration>,
    /// Output buffers, one per nesting level of [`Cluster::feed`],
    /// reused by every dispatch.
    buffers: Vec<Vec<Output>>,
    /// The arrivals of the frame being put on the wire, reused by every
    /// transmit the way `buffers` are by every feed.
    arrivals: Vec<Arrival<Packet<ServiceMsg>>>,
}

/// Handles to the cluster's default time series.
struct SeriesIds {
    queue_depth: SeriesId,
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

    /// The slot an event is charged to, and how many dispatches it
    /// counts: one per receiver of a [`Event::Frames`], so the `Frame`
    /// slot counts frames handled, however they were queued.
    fn for_event(&self, ev: &Event) -> (SlotId, u64) {
        let slot = match ev {
            Event::Frame(..) => self.frame,
            Event::Frames(to, _) => return (self.frame, to.len() as u64),
            Event::Timer(_, timer) => match timer {
                Timer::Kernel(_) => self.kernel_timer,
                Timer::Service(..) => self.svc_timer,
                Timer::QuantumEnd(..) => self.quantum_end,
                Timer::SleepDone(_) => self.sleep_done,
                Timer::Owner(_) => self.user_transition,
            },
            Event::Transmit { .. } => self.transmit,
            Event::Command(_) => self.command,
            Event::ApplyFault { .. } => self.apply_fault,
            Event::HealPartition { .. } => self.heal_partition,
            Event::AuditTick => self.audit_tick,
        };
        (slot, 1)
    }
}

impl Cluster {
    /// Builds a cluster: station 0 is the file-server machine, stations
    /// 1..=N are user workstations named `ws1`, `ws2`, ...
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut rng = DetRng::seed(cfg.seed);
        let trace = Trace::with_sink(cfg.trace, cfg.trace_sink);
        let mut net = Ethernet::new(cfg.loss.clone(), rng.fork(), trace.clone());
        let quantum_spans = Rc::new(RefCell::new(SpanIdGen::new(1)));
        let stations: Vec<Station> = (0..=cfg.workstations)
            .map(|i| Station::new(i, net.attach(), &cfg, &trace, &quantum_spans, &mut rng))
            .collect();

        let mut profiler = Profiler::null();
        let slots = EventSlots::intern(&mut profiler);
        // Default telemetry series, all updated after each dispatch by
        // `update_series`; the engine's queue comes first.
        let mut series = SeriesStore::new(cfg.sampling.unwrap_or_default());
        let sids = SeriesIds {
            queue_depth: series.manual(Subsystem::Engine, "queue_depth", "events"),
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
            series,
            sids,
            gauges: Vec::new(),
            gauge_sums: [0; 5],
            touched: Vec::new(),
            slots,
            rng,
            cfg,
            point_faults: Vec::new(),
            profiles_by_image: BTreeMap::new(),
            reexec_images: BTreeMap::new(),
            pending_behaviors: BTreeMap::new(),
            reclaim_times: Vec::new(),
            buffers: Vec::new(),
            arrivals: Vec::new(),
        };
        // Group membership and binding seeds, once every station exists.
        for i in 0..cluster.stations.len() {
            cluster.feed(i, Input::Boot(cluster.stations[0].host));
        }
        // Owners start in their initial state and hold it a random while.
        for w in &mut cluster.stations {
            if let Some(u) = &w.user {
                let (host, held) = (w.host, u.holding_time(&mut cluster.rng));
                w.pm.set_owner_active(u.is_active());
                let ev = Event::Timer(host, Timer::Owner(held));
                cluster.engine.schedule_after(held, ev);
            }
        }
        // Schedule the fault plan: timed faults go straight on the queue;
        // point-triggered ones wait for their protocol-step crossing.
        for ev in cluster.cfg.faults.clone().events {
            match ev.trigger {
                FaultTrigger::At(t) => {
                    cluster.engine.schedule_at(
                        t,
                        Event::ApplyFault {
                            kind: Box::new(ev.kind),
                        },
                    );
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
        self.engine.schedule_at(t, Event::Command(Box::new(cmd)));
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
        self.feed(ws, Input::Exec(Box::new(spec), target));
    }

    /// Installs a *workstation-local* file server on `ws` — exactly the
    /// kind of host-bound state §3.3 warns about. Returns its pid.
    ///
    /// # Panics
    ///
    /// Panics if `ws` already has a file server.
    pub fn add_local_file_server(&mut self, ws: usize) -> ProcessId {
        self.stations[ws].add_local_file_server()
    }

    /// Starts `migrateprog` for `lh` on workstation `ws` via the real IPC
    /// path (shell → PM → migration engine).
    pub fn migrateprog(&mut self, ws: usize, lh: LogicalHostId, destroy_if_stuck: bool) {
        self.pm_op(
            ws,
            lh,
            ServiceMsg::MigrateProgram {
                lh,
                destroy_if_stuck,
            },
        );
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

    /// Sends `body` from `ws`'s shell to the manager hosting `lh`.
    fn pm_op(&mut self, ws: usize, lh: LogicalHostId, body: ServiceMsg) {
        self.feed(ws, Input::PmRequest(lh, Box::new(body)));
    }

    /// Runs until the queue drains or `limit` passes.
    ///
    /// Every dispatch is charged to its event kind's profiler slot; under
    /// the default null clock that costs two free reads and a counter
    /// bump, so the loop stays deterministic and cheap. Bench bins inject
    /// a real clock via [`Cluster::set_host_clock`] to turn the counts
    /// into wall-clock attribution. With [`ClusterConfig::sampling`] on,
    /// each dispatch ends by updating the time series. The call starts
    /// with one walk over every station, so state a caller changed
    /// between runs is counted; after that, a dispatch re-reads only the
    /// stations it touched.
    pub fn run_until(&mut self, limit: SimTime) {
        let sampling = self.cfg.sampling.is_some();
        if sampling {
            self.gauges.clear();
            self.gauges
                .extend(self.stations.iter().map(Station::gauges));
            self.gauge_sums = sum_gauges(self.gauges.iter().copied());
            self.touched.clear();
        }
        while let Some((_, ev)) = self.engine.step_due(limit) {
            let (slot, dispatches) = self.slots.for_event(&ev);
            let t0 = self.profiler.begin();
            self.dispatch(ev);
            if sampling {
                self.update_series();
            }
            self.profiler.end(slot, t0, dispatches);
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

    // --- Event dispatch: find the station, call `handle`, apply. ---

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Transmit { frame } => self.put_on_wire(frame),
            Event::Frame(host, frame) => self.feed(self.index_of(host), Input::Frame(frame)),
            Event::Frames(to, frame) => {
                let copies = std::iter::repeat_n(frame, to.len());
                for (&host, frame) in to.iter().zip(copies) {
                    self.feed(self.index_of(host), Input::Frame(frame));
                }
            }
            Event::Timer(_, Timer::SleepDone(lh)) => {
                // Routed by logical host: the program may have migrated.
                if let Some(i) = self.behavior_station(lh) {
                    self.feed(i, Input::Timer(Timer::SleepDone(lh)));
                }
            }
            Event::Timer(host, timer) => self.feed(self.index_of(host), Input::Timer(timer)),
            Event::Command(cmd) => self.on_command(*cmd),
            Event::ApplyFault { kind } => self.apply_fault(*kind),
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

    /// Hands `input` to station `i` and applies its outputs in order. An
    /// output that feeds a station again does so at once, so everything
    /// it causes is applied before the next one: the order is depth-first.
    fn feed(&mut self, i: usize, input: Input) {
        self.touch(i);
        let mut outs = self.buffers.pop().unwrap_or_default();
        let now = self.engine.now();
        self.stations[i].handle(now, input, &mut self.rng, &mut outs);
        for out in outs.drain(..) {
            self.apply(i, out);
        }
        self.buffers.push(outs);
    }

    /// Applies one output of station `i`.
    fn apply(&mut self, i: usize, out: Output) {
        let now = self.engine.now();
        let host = self.stations[i].host;
        match out {
            Output::Step(step) => self.feed(i, Input::Step(step)),
            // Send-side CPU for small packets; bulk pacing already holds it.
            Output::Transmit(frame) if !is_bulk(&frame.payload) => {
                self.engine
                    .schedule_after(SMALL_PACKET_CPU, Event::Transmit { frame });
            }
            Output::Transmit(frame) => self.put_on_wire(frame),
            Output::Schedule(after, timer) => {
                self.engine.schedule_after(after, Event::Timer(host, timer))
            }
            Output::JoinMcast(g) => self.net.join(g, host),
            Output::LeaveMcast(g) => self.net.leave(g, host),
            Output::Count(counter) => *counter(&mut self.stats) += 1,
            Output::FaultPoint(step, round, parties) => self.fire_points(step, round, parties),
            Output::ExecDone(report) => {
                // A failed execution's queued behaviour never starts.
                let queued = self.pending_behaviors.get_mut(&report.image);
                if let (false, Some(q)) = (report.success, queued) {
                    q.pop_front();
                }
                self.exec_reports.push(*report);
            }
            Output::MigrationDone(report) => self.migration_reports.push(*report),
            Output::Leased(lh, image) => {
                self.reexec_images.insert(lh, image);
            }
            Output::Unleased(lh) => {
                self.reexec_images.remove(&lh);
            }
            Output::Started(root, lh, image) => {
                match self
                    .pending_behaviors
                    .get_mut(&image)
                    .and_then(VecDeque::pop_front)
                {
                    Some(b) => self.feed(i, Input::Start(root, lh, image, Box::new(b))),
                    None => {
                        let ev = TraceEvent::BehaviorMissing { image };
                        self.trace.warn(now, Subsystem::Cluster, ev);
                    }
                }
            }
            Output::Moved(to, lh, program) => {
                self.feed(self.index_of(to), Input::Adopt(lh, program))
            }
            Output::Child(profile, env) => {
                self.add_image(&profile);
                self.pending_behaviors
                    .entry(profile.name.clone())
                    .or_default()
                    .push_back(WorkloadProgram::new(*profile, env));
            }
            Output::ReExec(lh) => {
                // The origin presumed a leased program dead (lease silence,
                // or an extermination notice) and executes it again: at
                // least once, since the origin may briefly race a live
                // copy, which the lease protocol then exterminates.
                let Some(image) = self.reexec_images.remove(&lh) else {
                    return;
                };
                self.stats.re_execs += 1;
                if self.trace.enabled(TraceLevel::Warn) {
                    self.trace.warn(
                        now,
                        Subsystem::Services,
                        TraceEvent::ReExecuted {
                            lh: lh.0,
                            image: image.clone(),
                        },
                    );
                }
                let mut origin = [None; 3];
                origin[Party::Origin as usize] = Some(host.0);
                self.fire_points(ProtocolStep::ReExec, None, origin);
                if let Some((profile, priority)) = self.profiles_by_image.get(&image).cloned() {
                    self.exec(i, profile, ExecTarget::AnyIdle, priority);
                }
            }
            Output::Reclaimed(d) => self.reclaim_times.push(d),
        }
    }

    /// Marks station `i` for the next series update: a station's gauges
    /// change only while it handles an input or when it crashes.
    fn touch(&mut self, i: usize) {
        if self.cfg.sampling.is_some() && self.touched.last() != Some(&i) {
            self.touched.push(i);
        }
    }

    /// Transmits a frame now and queues its arrivals in receiver order:
    /// each run of consecutive receivers that hear the shared frame at one
    /// instant as one event, and each corrupted copy as its own. The frame
    /// keeps the box its station made, so a unicast allocates nothing
    /// here; it is copied only when a spike or a corrupted copy splits the
    /// receivers into several runs, and the last run takes it.
    ///
    /// This is exact. The arrivals of one transmit get consecutive
    /// sequence numbers, so the receivers of one run would run back to
    /// back anyway, and whatever one of them schedules for that instant
    /// runs after the last of them either way.
    fn put_on_wire(&mut self, frame: Box<Frame<Packet<ServiceMsg>>>) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.net.transmit(self.engine.now(), &frame, &mut arrivals);
        // Receive-side CPU for small packets.
        let cpu = if is_bulk(&frame.payload) {
            SimDuration::ZERO
        } else {
            SMALL_PACKET_CPU
        };
        let runs = (0..arrivals.len())
            .filter(|&k| arrivals[k].corrupted.is_none() && ends_run(&arrivals, k))
            .count();
        let mut shared = std::iter::repeat_n(frame, runs);
        let mut start = 0;
        for k in 0..arrivals.len() {
            let (to, at) = (arrivals[k].to, arrivals[k].at + cpu);
            if let Some(copy) = arrivals[k].corrupted.take() {
                self.engine.schedule_at(at, Event::Frame(to, copy));
                start = k + 1;
            } else if ends_run(&arrivals, k) {
                let Some(frame) = shared.next() else { break };
                let ev = if start == k {
                    Event::Frame(to, frame)
                } else {
                    let run = arrivals[start..=k].iter().map(|a| a.to).collect();
                    Event::Frames(run, frame)
                };
                self.engine.schedule_at(at, ev);
                start = k + 1;
            }
        }
        arrivals.clear();
        self.arrivals = arrivals;
    }

    /// Hands the six series to the store, which keeps only the changes:
    /// the engine's queue depth and the five cluster sums. The sums are
    /// kept up to date by re-reading only the stations the dispatch
    /// touched; debug builds check them against a walk over every
    /// station.
    fn update_series(&mut self) {
        for i in self.touched.drain(..) {
            let new = self.stations[i].gauges();
            let old = std::mem::replace(&mut self.gauges[i], new);
            for ((sum, old), new) in self.gauge_sums.iter_mut().zip(old).zip(new) {
                *sum = *sum - old + new;
            }
        }
        debug_assert_eq!(
            self.gauge_sums,
            sum_gauges(self.stations.iter().map(Station::gauges)),
            "series sums drifted from the stations at {}",
            self.engine.now()
        );
        let [ready, frozen, migrations, leases, retransmit] = self.gauge_sums;
        let ids = &self.sids;
        self.series.update(
            self.engine.now(),
            &[
                (ids.queue_depth, self.engine.pending() as f64),
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
                        .schedule_after(d, Event::Command(Box::new(Command::Reboot { ws })));
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
                if ws < self.stations.len() && !self.stations[ws].down {
                    self.feed(ws, Input::ServiceRestart);
                }
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

    /// Fires one-shot point faults pinned to `(step, party)` crossings, in
    /// plan order, each with everything it causes before the next. `round`
    /// is the pre-copy round a `PrecopyRound` crossing completed (`None`
    /// for every other step); a fault with a round filter fires only on
    /// that round. `parties` places the protocol parties of this crossing
    /// on stations (indexed by [`Party`]), so `PARTY`-relative fault kinds
    /// resolve to a concrete station; a party not placed (e.g. target not
    /// yet chosen) keeps the fault armed for a later crossing of the step.
    fn fire_points(&mut self, step: ProtocolStep, round: Option<u32>, parties: [Option<u16>; 3]) {
        if self.point_faults.is_empty() {
            return;
        }
        let n = self.stations.len() as u16;
        let mut fired = Vec::new();
        self.point_faults.retain(|(point, want_round, kind)| {
            if point.step != step || want_round.is_some_and(|r| Some(r) != round) {
                return true;
            }
            let Some(ws) = parties[point.party as usize] else {
                return true;
            };
            fired.push((*point, kind.clone().resolve_party(ws, n)));
            false
        });
        for (point, kind) in fired {
            let (step, party) = (point.step.label(), point.party.label());
            let ev = TraceEvent::FaultPointHit { step, party };
            self.trace.warn(self.engine.now(), Subsystem::Cluster, ev);
            self.apply_fault(kind);
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
                if let Some(lh) = lh.or_else(|| self.stations[ws].guests().next()) {
                    self.migrateprog(ws, lh, destroy_if_stuck);
                }
            }
            Command::Crash { ws } => {
                self.net.set_up(self.stations[ws].host, false);
                self.stations[ws].down = true;
                self.touch(ws);
            }
            Command::Reboot { ws } => {
                self.net.set_up(self.stations[ws].host, true);
                self.feed(ws, Input::Reboot);
            }
            Command::SetOwnerActive { ws, active } => self.feed(ws, Input::SetOwnerActive(active)),
        }
    }

    /// Point-triggered faults still waiting for their protocol-step
    /// crossing. Matrix tests assert this reaches zero — i.e. every
    /// scheduled fault point was actually crossed and fired.
    pub fn pending_point_faults(&self) -> usize {
        self.point_faults.len()
    }
}

/// True when intact arrival `k` is the last of its run: the next arrival,
/// if any, comes at another instant or with its own corrupted copy.
fn ends_run<P>(arrivals: &[Arrival<P>], k: usize) -> bool {
    arrivals
        .get(k + 1)
        .is_none_or(|next| next.at != arrivals[k].at || next.corrupted.is_some())
}

/// Element-wise sum of per-station gauges.
fn sum_gauges(gauges: impl Iterator<Item = [usize; 5]>) -> [usize; 5] {
    gauges.fold([0; 5], |mut sums, g| {
        for (sum, n) in sums.iter_mut().zip(g) {
            *sum += n;
        }
        sums
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::PM_MCAST;
    use vcore::PAGING_LH;

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
