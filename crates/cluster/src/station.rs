//! One machine on the segment, as a sans-IO state machine.
//!
//! A [`Station`] holds what the paper puts on one workstation (§2,
//! Figure 2-1): the kernel, program manager, display server, shell with
//! its remote executor, migration engine, owner model, and the behaviour
//! of every program running there, plus its CPU scheduler. It never
//! touches the event queue, the wire or another station:
//! [`Station::handle`] takes one [`Input`] and returns the [`Output`]s it
//! caused, in order, and the cluster router applies them.
//!
//! The station runs its own follow-up work (a kernel delivery routed to a
//! service, a service or migration event, the rest of an eviction after
//! the outputs it caused) at once, depth first, as a direct call chain
//! would. Once it has output something that must take effect before the
//! station goes on (a bulk transmit, which the wire may trace; a
//! fault-point crossing; anything that feeds a station again), the rest
//! comes back as [`Output::Step`]s instead, and the router feeds each to
//! `handle` again before it applies any later output. So a fault-point
//! crossing crashes or restarts a station before the transmits that follow
//! it, a program moving here is ready before its old station dispatches
//! again, and RNG draws and trace records keep the order of one call chain.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use vcore::{
    ExecEvent, ExecReport, ExecTarget, MigEvent, MigrationConfig, MigrationReport, Migrator,
    ProgramMeta, RemoteExecutor, ReplyTo, PAGING_LH, PAGING_SPACE,
};
use vkernel::{
    Destination, GroupId, Kernel, KernelConfig, KernelOutput, LogicalHostId, MsgIn, Packet,
    Priority, ProcessId, ReplyIn, SendError, SendSeq, TimerKey, XferId, PROGRAM_MANAGER_INDEX,
};
use vmem::{SpaceId, SpaceLayout};
use vnet::{Frame, HostAddr, McastGroup};
use vservices::{
    DisplayServer, ExecEnv, FileServer, ProgramSpec, ServiceMsg, SvcEvent, SvcOutputs, SvcToken,
    MAX_GUEST_PROGRAMS,
};
use vsim::calib::{CONTEXT_SWITCH, CPU_QUANTUM};
use vsim::{
    DetRng, ProtocolStep, SimDuration, SimTime, SpanContext, SpanIdGen, Subsystem, Trace,
    TraceEvent, TraceLevel,
};
use vworkload::{OwnerState, ProgAction, ProgEvent, ProgramProfile, UserModel, WorkloadProgram};

use crate::runtime::{ClusterConfig, ClusterStats};

/// Multicast group carrying the program-manager process group.
pub(crate) const PM_MCAST: McastGroup = McastGroup(1);

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

/// What a station reacts to.
pub enum Input {
    /// First power-on: join the program-manager group and learn the
    /// bindings real V learns from boot-time name-server traffic (the
    /// file-server machine's system logical host and paging store live at
    /// this address).
    Boot(HostAddr),
    /// A frame arrived (receive CPU already charged).
    Frame(Box<Frame<Packet<ServiceMsg>>>),
    /// A timer the station set came due.
    Timer(Timer),
    /// Force the owner-activity state.
    SetOwnerActive(bool),
    /// The shell executes a program.
    Exec(Box<ProgramSpec>, ExecTarget),
    /// The shell sends a request to the program manager of whatever
    /// workstation hosts the logical host.
    PmRequest(LogicalHostId, Box<ServiceMsg>),
    /// The station powers back on (kernel state is NOT restored).
    Reboot,
    /// The program-manager process dies and restarts.
    ServiceRestart,
    /// The behaviour of a program the local manager started (answers
    /// [`Output::Started`]).
    Start(ProcessId, LogicalHostId, String, Box<WorkloadProgram>),
    /// A program migrated here: its behaviour moves in.
    Adopt(LogicalHostId, Box<ProgramRuntime>),
    /// A step this station handed back as [`Output::Step`].
    Step(Step),
}

/// A timer a station sets ([`Output::Schedule`]) and gets back as
/// [`Input::Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// A kernel timer.
    Kernel(TimerKey),
    /// A service timer.
    Service(SvcKind, SvcToken),
    /// The CPU quantum of this length given to this program ends.
    QuantumEnd(LogicalHostId, SimDuration),
    /// A program's sleep elapses.
    SleepDone(LogicalHostId),
    /// The owner changes state after holding the current one this long.
    Owner(SimDuration),
}

/// Work a station hands back to itself through the router (opaque).
pub struct Step(Box<Kind>);

enum Kind {
    Deliver(MsgIn<ServiceMsg>),
    SendDone(ProcessId, SendSeq, Result<ReplyIn<ServiceMsg>, SendError>),
    CopyDone(XferId, ProcessId, Result<u64, SendError>),
    Svc(SvcEvent),
    Mig(MigEvent),
    Exec(ExecEvent),
    CpuDispatch,
    /// Evict the remaining guests, last one first, then time the reclaim.
    Evict(Vec<LogicalHostId>),
    /// Move an evicted program's behaviour to its new host, after the
    /// origin (this station, when an image is given) grants that host a
    /// lease.
    Evicted(LogicalHostId, HostAddr, Option<String>),
    /// Drop a destroyed program, after its lease goes back to its origin.
    Destroyed(LogicalHostId, Option<HostAddr>),
    RebootPm,
    RebootCpu,
}

/// What a station asks of the cluster, in the order it must happen.
pub enum Output {
    /// Feed this step back to the same station before any later output.
    Step(Step),
    /// Put a frame on the wire (small frames after the send CPU).
    Transmit(Box<Frame<Packet<ServiceMsg>>>),
    /// Give this timer back to the station this long from now.
    Schedule(SimDuration, Timer),
    /// Join a multicast group on the wire.
    JoinMcast(McastGroup),
    /// Leave a multicast group on the wire.
    LeaveMcast(McastGroup),
    /// Bump the cluster counter this selects.
    Count(fn(&mut ClusterStats) -> &mut u64),
    /// A registered protocol step was crossed (with the pre-copy round it
    /// completed, on `PrecopyRound` crossings): fire the faults pinned to
    /// it. The array places each [`vsim::Party`] (indexed `party as usize`) on a
    /// station, `None` when it is not involved or not yet known.
    FaultPoint(ProtocolStep, Option<u32>, [Option<u16>; 3]),
    /// A remote execution finished; a failed one's queued behaviour never
    /// starts.
    ExecDone(Box<ExecReport>),
    /// A migration finished.
    MigrationDone(Box<MigrationReport>),
    /// The origin leased a program out: remember its image for re-exec.
    Leased(LogicalHostId, String),
    /// A program was destroyed on purpose: forget its image.
    Unleased(LogicalHostId),
    /// The local manager started this root process and logical host of
    /// this image; the router answers with its behaviour ([`Input::Start`]).
    Started(ProcessId, LogicalHostId, String),
    /// A program's behaviour moves to the station at this address.
    Moved(HostAddr, LogicalHostId, Box<ProgramRuntime>),
    /// A subprogram is being created: register its image and queue its
    /// behaviour with the parent's environment (§2.1).
    Child(Box<ProgramProfile>, ExecEnv),
    /// The origin presumes a leased program dead: execute it again.
    ReExec(LogicalHostId),
    /// The owner's return was fully reclaimed after this long.
    Reclaimed(SimDuration),
}

/// True for bulk-transfer packets, whose CPU cost is already inside the
/// calibrated per-unit pacing (small packets are charged send and
/// receive CPU on top).
pub(crate) fn is_bulk(p: &Packet<ServiceMsg>) -> bool {
    matches!(
        p,
        Packet::BulkData { .. }
            | Packet::BulkAck { .. }
            | Packet::BulkPull { .. }
            | Packet::BulkPullNak { .. }
    )
}

/// One machine on the segment.
pub struct Station {
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
    /// When the running program's quantum ends: a `QuantumEnd` due at any
    /// other instant is stale (armed before a crash) and is ignored.
    cpu_due: SimTime,
    /// CPU time delivered to local-priority programs.
    pub cpu_local: SimDuration,
    /// CPU time delivered to guest programs.
    pub cpu_guest: SimDuration,
    /// True while crashed.
    pub down: bool,
    /// When the owner came back, while guests are still being evicted.
    reclaim_since: Option<SimTime>,
    migration: MigrationConfig,
    evict_on_owner_return: bool,
    trace: Trace,
    /// Ids of "quantum" spans, one cluster-wide sequence that the stations
    /// share as they share the trace.
    quantum_spans: Rc<RefCell<SpanIdGen>>,
    /// The input being handled arrived at this instant.
    now: SimTime,
    /// The cluster's random stream and output buffer, lent for the input
    /// being handled.
    rng: DetRng,
    out: Vec<Output>,
    /// An output that must take effect first is waiting in `out`: further
    /// steps go back to the router.
    defer: bool,
}

impl Station {
    /// Builds station `i` at `host`: station 0 is the file-server machine
    /// (global file server, paging store, no guests, no owner); the others
    /// are user workstations named `ws1`, `ws2`, ...
    pub fn new(
        i: usize,
        host: HostAddr,
        cfg: &ClusterConfig,
        trace: &Trace,
        quantum_spans: &Rc<RefCell<SpanIdGen>>,
        rng: &mut DetRng,
    ) -> Self {
        let mut kernel: Kernel<ServiceMsg> =
            Kernel::new(host, KernelConfig::default(), trace.clone());
        let l = kernel.create_logical_host(LogicalHostId(1 + i as u32));
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
        // The global file server lives on station 0; every PM points at
        // it. Its pid is deterministic: system lh 1, index 16+4.
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
        let users = cfg.users.as_ref().filter(|_| !is_fs_machine);
        let user = users.map(|p| UserModel::new(p.clone(), rng));
        Station {
            host,
            name,
            kernel,
            pm,
            display: DisplayServer::new(display_pid),
            fs,
            migrator: Migrator::new(mig_pid, host, 1_000_000 + 10_000 * i as u32, trace.clone()),
            exec: RemoteExecutor::new(shell_pid, host, pm_pid),
            shell: shell_pid,
            user,
            programs: BTreeMap::new(),
            cpu_current: None,
            cpu_ready: VecDeque::new(),
            cpu_due: SimTime::ZERO,
            cpu_local: SimDuration::ZERO,
            cpu_guest: SimDuration::ZERO,
            down: false,
            reclaim_since: None,
            migration: cfg.migration.clone(),
            evict_on_owner_return: cfg.evict_on_owner_return,
            trace: trace.clone(),
            quantum_spans: Rc::clone(quantum_spans),
            now: SimTime::ZERO,
            rng: DetRng::seed(0),
            out: Vec::new(),
            defer: false,
        }
    }

    /// Programs holding or queued for the CPU.
    pub fn ready_programs(&self) -> usize {
        self.cpu_ready.len() + usize::from(self.cpu_current.is_some())
    }

    /// The station's share of the five per-station time series: ready
    /// programs, frozen logical hosts, migrator jobs, granted leases and
    /// outstanding sends. A station that is down counts for nothing.
    pub(crate) fn gauges(&self) -> [usize; 5] {
        if self.down {
            return [0; 5];
        }
        [
            self.ready_programs(),
            self.kernel.frozen_count(),
            self.migrator.job_count(),
            self.pm.lease_count(),
            self.kernel.outstanding_count(),
        ]
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

    /// Guest programs (executed here for a remote requester), in logical
    /// host order.
    pub fn guests(&self) -> impl Iterator<Item = LogicalHostId> + '_ {
        self.pm
            .programs()
            .iter()
            .filter(|(_, p)| p.remote_origin)
            .map(|(&lh, _)| lh)
    }

    /// Installs a *workstation-local* file server — exactly the kind of
    /// host-bound state §3.3 warns about. Returns its pid.
    ///
    /// # Panics
    ///
    /// Panics if the station already has a file server.
    #[allow(clippy::expect_used)]
    pub fn add_local_file_server(&mut self) -> ProcessId {
        assert!(self.fs.is_none(), "ws already has a server");
        let l = self
            .kernel
            .logical_host_mut(self.system_lh())
            .expect("system lh exists");
        let team = l
            .processes()
            .next()
            .map(|p| p.team)
            .expect("system processes exist");
        let pid = l.create_process(team, Priority::SYSTEM, false);
        self.fs = Some(FileServer::new(pid));
        pid
    }

    /// Handles one input arriving at `now`, appending what it caused to
    /// `out` in the order the router must apply it (one buffer serves
    /// every input). Frames, and timers set before a crash, are lost
    /// while the station is down.
    pub fn handle(&mut self, now: SimTime, input: Input, rng: &mut DetRng, out: &mut Vec<Output>) {
        (self.now, self.defer) = (now, false);
        std::mem::swap(&mut self.rng, rng);
        std::mem::swap(&mut self.out, out);
        self.input(input);
        std::mem::swap(&mut self.out, out);
        std::mem::swap(&mut self.rng, rng);
    }

    fn input(&mut self, input: Input) {
        let now = self.now;
        match input {
            // Frames reaching a station that is down are lost.
            Input::Frame(_) if self.down => {}
            Input::Frame(frame) => {
                // Hardware check sequence: a corrupted frame never reaches
                // the kernel; the sender recovers by retransmission.
                if frame.checksum_valid() {
                    let mut outs = Vec::new();
                    self.kernel.handle_frame(now, *frame, &mut outs);
                    self.kernel_outputs(outs);
                } else {
                    self.count(|s| &mut s.corrupt_frames_dropped);
                    self.trace.warn(
                        now,
                        Subsystem::Net,
                        TraceEvent::CorruptFrame {
                            from: frame.src.0,
                            to: self.host.0,
                            bytes: frame.payload_bytes,
                        },
                    );
                }
            }
            Input::Timer(timer) => self.timer(timer),
            Input::Boot(fs_host) => {
                let mut outs = Vec::new();
                let pm = self.pm.pid();
                self.kernel
                    .join_group(GroupId::PROGRAM_MANAGERS, pm, &mut outs);
                self.kernel_outputs(outs);
                self.kernel.learn_binding(LogicalHostId(1), fs_host);
                self.kernel.learn_binding(PAGING_LH, fs_host);
            }
            Input::SetOwnerActive(active) => self.set_owner_active(active),
            Input::Exec(spec, target) => {
                let mut outs = SvcOutputs::default();
                self.exec
                    .execute(now, *spec, target, &mut self.kernel, &mut outs);
                self.apply(None, outs, Kind::Exec);
            }
            Input::PmRequest(lh, body) => {
                // Address "the program manager of whatever workstation
                // hosts lh" through its well-known local group (§2.1):
                // location-independent even if the program just moved.
                let dest = Destination::Group(GroupId::program_manager_of(lh));
                let mut outs = Vec::new();
                self.kernel.send(now, self.shell, dest, *body, 0, &mut outs);
                self.kernel_outputs(outs);
            }
            Input::Reboot => {
                self.down = false;
                // A reboot loses volatile state — most importantly any
                // Demos/MP forwarding addresses (§5). Timers armed before
                // the crash may still be queued; each owner ignores its
                // own stale ones. Re-arm the kernel's retransmission and
                // retention timers and fail its in-flight bulk transfers,
                // then re-arm the program manager's watchdogs.
                self.kernel.clear_forwarding();
                let mut outs = Vec::new();
                self.kernel.reboot_recover(now, &mut outs);
                self.kernel_outputs(outs);
                self.then(Kind::RebootPm);
            }
            Input::ServiceRestart => {
                // The manager process dies and restarts: the kernel aborts
                // the transactions it was serving (clients re-deliver by
                // retransmission) and the manager re-arms its reclaim
                // watchdogs from what survives in the kernel's tables.
                let pm_pid = self.pm.pid();
                self.kernel.abort_server_transactions(now, pm_pid);
                let mut outs = SvcOutputs::default();
                self.pm.restart(&self.kernel, &mut outs);
                self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
            }
            Input::Start(root, lh, image, behavior) => {
                self.start_program(root, lh, image, behavior)
            }
            Input::Adopt(lh, mut prt) => {
                prt.scheduled = false;
                self.programs.insert(lh, *prt);
                self.cpu_make_ready(lh);
            }
            Input::Step(Step(kind)) => self.step(*kind),
        }
    }

    fn timer(&mut self, timer: Timer) {
        let now = self.now;
        match timer {
            // Timers armed before a crash are lost with the power.
            Timer::Kernel(_) | Timer::Service(..) | Timer::QuantumEnd(..) if self.down => {}
            Timer::Kernel(key) => {
                let mut outs = Vec::new();
                self.kernel.handle_timer(now, key, &mut outs);
                self.kernel_outputs(outs);
            }
            Timer::Service(which, token) => {
                let (k, mut outs) = (&mut self.kernel, SvcOutputs::default());
                match (which, &mut self.fs) {
                    (SvcKind::Pm, _) => self.pm.handle_timer(now, token, k, &mut outs),
                    (SvcKind::Fs, Some(fs)) => fs.handle_timer(now, token, k, &mut outs),
                    (SvcKind::Fs, None) => {}
                    (SvcKind::Display, _) => self.display.handle_timer(now, token, k, &mut outs),
                }
                self.apply(Some(which), outs, Kind::Svc);
            }
            Timer::QuantumEnd(lh, slice) => self.quantum_end(lh, slice),
            Timer::SleepDone(lh) => {
                // A frozen program's sleep completion waits for the
                // unfreeze (execution is suspended); model: re-queue the
                // event shortly. Likewise while the station is powered off.
                if self.down || self.kernel.is_frozen(lh) {
                    self.schedule(SimDuration::from_millis(10), Timer::SleepDone(lh));
                } else {
                    self.step_program(lh, ProgEvent::SleepDone);
                }
            }
            Timer::Owner(held) => {
                if let Some(user) = self.user.as_mut() {
                    let active = user.transition(held) == OwnerState::Active;
                    let next = user.holding_time(&mut self.rng);
                    self.schedule(next, Timer::Owner(next));
                    self.set_owner_active(active);
                }
            }
        }
    }

    fn step(&mut self, kind: Kind) {
        let now = self.now;
        match kind {
            Kind::Deliver(msg) => self.deliver(msg),
            Kind::SendDone(pid, seq, result) => self.send_done(pid, seq, result),
            Kind::CopyDone(xfer, initiator, result) => {
                let k = &mut self.kernel;
                if let Some(fs) = self.fs.as_mut().filter(|f| f.pid() == initiator) {
                    let mut outs = SvcOutputs::default();
                    fs.handle_copy_done(now, xfer, result, k, &mut outs);
                    self.apply(Some(SvcKind::Fs), outs, Kind::Svc);
                } else if initiator == self.migrator.pid() {
                    let mut outs = SvcOutputs::default();
                    self.migrator
                        .handle_copy_done(now, xfer, result, k, &mut outs);
                    self.apply(None, outs, Kind::Mig);
                } else if initiator == self.pm.pid() {
                    self.pm.handle_copy_done(xfer, result);
                }
            }
            Kind::Svc(e) => self.svc_event(e),
            Kind::Mig(e) => self.mig_event(e),
            Kind::Exec(ExecEvent::Done(report)) => {
                if self.trace.enabled(TraceLevel::Info) {
                    self.trace.info(
                        now,
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
                // Remote execution: the origin grants the remote host a
                // lease and remembers the image so it can re-execute the
                // program if the remote goes silent.
                if let (true, Some(h), Some(lh)) = (report.success, report.chosen_host, report.lh) {
                    if h != self.host {
                        self.emit(Output::Leased(lh, report.image.clone()));
                        let mut outs = SvcOutputs::default();
                        self.pm.grant_lease(now, lh, h, &mut outs);
                        self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
                    }
                }
                self.emit(Output::ExecDone(report));
            }
            Kind::CpuDispatch => self.cpu_dispatch(),
            Kind::Evict(guests) => self.evict(guests),
            Kind::Evicted(lh, to, Some(image)) => {
                // This station is the program's origin, so the program has
                // just *become* remote: grant the destination a lease and
                // remember the image for possible re-exec. (A guest's
                // existing lease travels in InstallState.origin; the new
                // holder heartbeats and the origin rebinds.)
                self.emit(Output::Leased(lh, image));
                let mut outs = SvcOutputs::default();
                self.pm.grant_lease(now, lh, to, &mut outs);
                self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
                self.then(Kind::Evicted(lh, to, None));
            }
            Kind::Evicted(lh, to, None) => {
                if let Some(prt) = self.drop_program(lh).0 {
                    self.trace.info(
                        now,
                        Subsystem::Migration,
                        TraceEvent::Rebind {
                            lh: lh.0,
                            from: self.host.0,
                            to: to.0,
                        },
                    );
                    self.emit(Output::Moved(to, lh, Box::new(prt)));
                }
                self.cpu_dispatch();
            }
            Kind::Destroyed(lh, Some(origin)) => {
                // A deliberate destroy releases the lease back to the
                // origin so it does not later presume the program dead.
                let mut outs = SvcOutputs::default();
                let k = &mut self.kernel;
                self.pm.release_lease_to(now, origin, lh, k, &mut outs);
                self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
                self.then(Kind::Destroyed(lh, None));
            }
            Kind::Destroyed(lh, None) => {
                self.emit(Output::Unleased(lh));
                if self.drop_program(lh).1 {
                    self.cpu_dispatch();
                }
            }
            Kind::RebootPm => {
                let mut outs = SvcOutputs::default();
                self.pm.reboot_recover(&mut outs);
                self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
                self.then(Kind::RebootCpu);
            }
            Kind::RebootCpu => {
                // The CPU scheduler's state died with the power: rebuild
                // the ready queue from programs that still owe CPU.
                self.cpu_current = None;
                self.cpu_ready.clear();
                self.programs.values_mut().for_each(|p| p.scheduled = false);
                let lhs: Vec<LogicalHostId> = self.programs.keys().copied().collect();
                for lh in lhs {
                    self.cpu_make_ready(lh);
                }
            }
        }
    }

    // --- Outputs. ---

    /// Runs follow-up work now, or hands it back to the router while an
    /// output that must take effect first is waiting.
    fn then(&mut self, kind: Kind) {
        if self.defer {
            self.out.push(Output::Step(Step(Box::new(kind))));
        } else {
            self.step(kind);
        }
    }

    fn emit(&mut self, out: Output) {
        // These take effect before anything the station does next: the
        // wire may trace a bulk frame, a crossing may crash or restart this
        // station, `Started` and `ReExec` feed it again, and `Child`
        // registers an image on the file server, which may be this one. A
        // move only readies its target, which nothing here observes.
        self.defer |= match &out {
            Output::Transmit(frame) => is_bulk(&frame.payload),
            Output::FaultPoint(..)
            | Output::Started(..)
            | Output::Child(..)
            | Output::ReExec(_) => true,
            Output::Step(_)
            | Output::Schedule(..)
            | Output::JoinMcast(_)
            | Output::LeaveMcast(_)
            | Output::Count(_)
            | Output::ExecDone(_)
            | Output::MigrationDone(_)
            | Output::Leased(..)
            | Output::Unleased(_)
            | Output::Moved(..)
            | Output::Reclaimed(_) => false,
        };
        self.out.push(out);
    }

    fn schedule(&mut self, after: SimDuration, timer: Timer) {
        self.emit(Output::Schedule(after, timer));
    }

    fn count(&mut self, counter: fn(&mut ClusterStats) -> &mut u64) {
        self.emit(Output::Count(counter));
    }

    fn kernel_outputs(&mut self, outs: Vec<KernelOutput<ServiceMsg>>) {
        for o in outs {
            match o {
                KernelOutput::Transmit(frame) => self.emit(Output::Transmit(Box::new(frame))),
                KernelOutput::SetTimer { key, after } => self.schedule(after, Timer::Kernel(key)),
                KernelOutput::Deliver(msg) => self.then(Kind::Deliver(msg)),
                KernelOutput::SendDone { pid, seq, result } => {
                    self.then(Kind::SendDone(pid, seq, result))
                }
                KernelOutput::CopyDone {
                    xfer,
                    initiator,
                    result,
                } => self.then(Kind::CopyDone(xfer, initiator, result)),
                KernelOutput::JoinMcast(g) => self.emit(Output::JoinMcast(g)),
                KernelOutput::LeaveMcast(g) => self.emit(Output::LeaveMcast(g)),
            }
        }
    }

    /// Applies what a service, the migration engine or the executor
    /// appended: its service timers (`which` names the service that armed
    /// them; the other two arm none), then its events, each followed up in
    /// turn, then its kernel actions.
    fn apply<E>(&mut self, which: Option<SvcKind>, outs: SvcOutputs<E>, step: fn(E) -> Kind) {
        debug_assert!(which.is_some() || outs.timers.is_empty());
        if let Some(which) = which {
            for (token, after) in outs.timers {
                self.schedule(after, Timer::Service(which, token));
            }
        }
        for e in outs.events {
            self.then(step(e));
        }
        self.kernel_outputs(outs.kernel);
    }

    // --- Routing a kernel delivery or completion. ---

    fn deliver(&mut self, msg: MsgIn<ServiceMsg>) {
        let (now, k, mut outs) = (self.now, &mut self.kernel, SvcOutputs::default());
        if msg.to == self.pm.pid() {
            self.pm.handle_request(now, msg, k, &mut outs);
            self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
        } else if let Some(fs) = self.fs.as_mut().filter(|f| f.pid() == msg.to) {
            fs.handle_request(now, msg, k, &mut outs);
            self.apply(Some(SvcKind::Fs), outs, Kind::Svc);
        } else if msg.to == self.display.pid() {
            self.display.handle_request(now, msg, k, &mut outs);
            self.apply(Some(SvcKind::Display), outs, Kind::Svc);
        } else {
            self.count(|s| &mut s.unroutable_deliveries);
            let (lh, index) = (msg.to.lh.0, msg.to.index);
            let ev = TraceEvent::Unroutable { lh, index };
            self.trace.warn(now, Subsystem::Cluster, ev);
        }
    }

    fn send_done(
        &mut self,
        pid: ProcessId,
        seq: SendSeq,
        result: Result<ReplyIn<ServiceMsg>, SendError>,
    ) {
        let (now, k) = (self.now, &mut self.kernel);
        if pid == self.pm.pid() {
            let mut outs = SvcOutputs::default();
            self.pm.handle_send_done(now, seq, result, k, &mut outs);
            self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
        } else if pid == self.migrator.pid() {
            let mut outs = SvcOutputs::default();
            self.migrator
                .handle_send_done(now, seq, result, k, &mut outs);
            self.apply(None, outs, Kind::Mig);
        } else if pid == self.shell {
            let mut outs = SvcOutputs::default();
            self.exec.handle_send_done(now, seq, result, k, &mut outs);
            self.apply(None, outs, Kind::Exec);
        } else if let Some((&lh, prt)) = self
            .programs
            .iter_mut()
            .find(|(_, p)| p.root == pid && p.awaiting == Some(seq))
        {
            prt.awaiting = None;
            let ev = result.map_or(ProgEvent::SendFailed, |r| ProgEvent::Reply(r.body));
            self.step_program(lh, ev);
        }
    }

    // --- Service and migration events. ---

    fn svc_event(&mut self, e: SvcEvent) {
        let now = self.now;
        match e {
            SvcEvent::ProgramStarted { root, lh, image } => {
                self.emit(Output::Started(root, lh, image));
            }
            SvcEvent::ProgramDestroyed { lh } => {
                if self.drop_program(lh).1 {
                    self.cpu_dispatch();
                }
            }
            SvcEvent::ProgramResumed { lh } => self.cpu_make_ready(lh),
            SvcEvent::LogicalHostAdopted { lh } => {
                // The behaviour object arrives with the MigEvent::Evicted
                // from the source; nothing to do here.
                self.trace
                    .info(now, Subsystem::Migration, TraceEvent::Adopted { lh: lh.0 });
            }
            SvcEvent::MigrateRequested {
                lh,
                destroy_if_stuck,
                requester,
                seq,
            } => {
                let pm_pid = self.pm.pid();
                if !self.kernel.is_resident(lh) || self.migrator.migrating(lh) {
                    let err = ServiceMsg::Err(vservices::SvcError::BadRequest);
                    let mut outs = Vec::new();
                    self.kernel
                        .reply(now, pm_pid, requester, seq, err, 0, &mut outs);
                    self.kernel_outputs(outs);
                    return;
                }
                let reply_to = ReplyTo {
                    from: pm_pid,
                    to: requester,
                    seq,
                };
                self.migrate(lh, Some(reply_to), destroy_if_stuck);
            }
            SvcEvent::OrphanExterminated { lh } => {
                self.count(|s| &mut s.orphans_exterminated);
                let ev = TraceEvent::OrphanExterminated { lh: lh.0 };
                self.trace.warn(now, Subsystem::Services, ev);
            }
            SvcEvent::LeaseRebound { lh, to } => {
                let ev = TraceEvent::LeaseRebound { lh: lh.0, to: to.0 };
                self.trace.info(now, Subsystem::Services, ev);
            }
            SvcEvent::ReExecNeeded { lh } => self.emit(Output::ReExec(lh)),
            SvcEvent::LeasePoint { lh, step, party } => {
                if step == ProtocolStep::LeaseExpiry && self.trace.enabled(TraceLevel::Warn) {
                    self.trace.warn(
                        now,
                        Subsystem::Services,
                        TraceEvent::LeaseExpired {
                            lh: lh.0,
                            party: party.label(),
                        },
                    );
                }
                let mut parties = [None; 3];
                parties[party as usize] = Some(self.host.0);
                self.emit(Output::FaultPoint(step, None, parties));
            }
        }
    }

    fn mig_event(&mut self, e: MigEvent) {
        let now = self.now;
        match e {
            MigEvent::Evicted { lh, to_host } => {
                let mut outs = SvcOutputs::default();
                let info = self.pm.forget_program(now, lh, &mut self.kernel, &mut outs);
                self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
                let image = info
                    .filter(|p| p.origin == Some(self.host))
                    .map(|p| p.image);
                self.then(Kind::Evicted(lh, to_host, image));
            }
            MigEvent::Done(report) => {
                if self.trace.enabled(TraceLevel::Info) {
                    self.trace.info(
                        now,
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
                self.note_reclaim_progress();
                self.emit(Output::MigrationDone(report));
            }
            MigEvent::UnfrozeInPlace { lh } => self.cpu_make_ready(lh),
            MigEvent::Point {
                lh,
                step,
                round,
                target,
            } => {
                // Source, target, origin: the `Party` order.
                let origin = self.pm.program(lh).and_then(|p| p.origin);
                let parties = [Some(self.host), target, origin].map(|h| h.map(|h| h.0));
                self.emit(Output::FaultPoint(step, round, parties));
            }
            MigEvent::Destroyed { lh } => {
                let mut outs = SvcOutputs::default();
                let info = self.pm.forget_program(now, lh, &mut self.kernel, &mut outs);
                self.apply(Some(SvcKind::Pm), outs, Kind::Svc);
                self.then(Kind::Destroyed(lh, info.and_then(|p| p.origin)));
            }
        }
    }

    /// Starts migrating program `lh`, with the metadata its manager
    /// holds.
    fn migrate(&mut self, lh: LogicalHostId, reply_to: Option<ReplyTo>, destroy_if_stuck: bool) {
        let meta = self
            .pm
            .program(lh)
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
        let (cfg, k) = (self.migration.clone(), &mut self.kernel);
        let mut outs = SvcOutputs::default();
        let now = self.now;
        self.migrator
            .start(now, lh, meta, cfg, reply_to, destroy_if_stuck, k, &mut outs);
        self.apply(None, outs, Kind::Mig);
    }

    // --- Programs. ---

    #[allow(clippy::expect_used)]
    fn start_program(
        &mut self,
        root: ProcessId,
        lh: LogicalHostId,
        image: String,
        behavior: Box<WorkloadProgram>,
    ) {
        let team = self
            .kernel
            .logical_host(lh)
            .and_then(|l| l.process(root.index))
            .map(|p| p.team)
            .expect("started program has a root process");
        let priority = self
            .pm
            .program(lh)
            .map(|p| p.priority)
            .unwrap_or(Priority::GUEST);
        let ev = TraceEvent::ProgramStarted { image, lh: lh.0 };
        self.trace.info(self.now, Subsystem::Cluster, ev);
        self.programs.insert(
            lh,
            ProgramRuntime {
                behavior: *behavior,
                root,
                team,
                priority,
                remaining_cpu: SimDuration::ZERO,
                awaiting: None,
                scheduled: false,
            },
        );
        self.step_program(lh, ProgEvent::Started);
    }

    /// Gives program `lh` its next event and performs the action it asks
    /// for.
    fn step_program(&mut self, lh: LogicalHostId, ev: ProgEvent) {
        let now = self.now;
        let Some(prt) = self.programs.get_mut(&lh) else {
            return;
        };
        match prt.behavior.next(now, ev, &mut self.rng) {
            ProgAction::Compute(d) => {
                prt.remaining_cpu = d;
                self.cpu_make_ready(lh);
            }
            ProgAction::Sleep(d) => self.schedule(d, Timer::SleepDone(lh)),
            ProgAction::Send {
                to,
                body,
                data_bytes,
                register_child,
            } => {
                let root = prt.root;
                if let Some(profile) = register_child {
                    let env = prt.behavior.env().clone();
                    self.emit(Output::Child(profile, env));
                }
                let mut outs = Vec::new();
                let seq = self.kernel.send(now, root, to, body, data_bytes, &mut outs);
                if let Some(prt) = self.programs.get_mut(&lh) {
                    prt.awaiting = Some(seq);
                }
                self.kernel_outputs(outs);
            }
            ProgAction::Exit => {
                self.count(|s| &mut s.programs_finished);
                // The finished program is destroyed via "the program
                // manager of whatever workstation hosts lh" — the
                // well-known local group of §2.1, which keeps working
                // across migrations.
                let dest = Destination::Group(GroupId::program_manager_of(lh));
                let body = ServiceMsg::DestroyProgram { lh };
                let mut outs = Vec::new();
                self.kernel.send(now, self.shell, dest, body, 0, &mut outs);
                self.kernel_outputs(outs);
            }
        }
    }

    /// Drops program `lh` from the behaviour table and the CPU; returns
    /// its behaviour and whether it held the CPU.
    fn drop_program(&mut self, lh: LogicalHostId) -> (Option<ProgramRuntime>, bool) {
        self.cpu_ready.retain(|&x| x != lh);
        let was_current = self.cpu_current == Some(lh);
        if was_current {
            self.cpu_current = None;
        }
        (self.programs.remove(&lh), was_current)
    }

    // --- CPU scheduling (priority, round-robin within a level). ---

    /// Queues program `lh` for the CPU unless it is already queued or
    /// owes no CPU (also how a program unfrozen in place, resumed or
    /// rebooted with CPU still owed gets back on the CPU).
    fn cpu_make_ready(&mut self, lh: LogicalHostId) {
        let Some(prt) = self.programs.get_mut(&lh) else {
            return;
        };
        if prt.scheduled || prt.remaining_cpu.is_zero() {
            return;
        }
        prt.scheduled = true;
        self.cpu_ready.push_back(lh);
        self.cpu_dispatch();
    }

    fn cpu_dispatch(&mut self) {
        if self.cpu_current.is_some() {
            return;
        }
        // Pick the highest-priority ready program (lowest Priority value),
        // FIFO within a level — "priority scheduling for locally invoked
        // programs" (§2). A lone ready program needs no pick.
        let mut pos = 0;
        if self.cpu_ready.len() > 1 {
            let programs = &self.programs;
            let priority = |lh| programs.get(lh).map_or(Priority::GUEST, |p| p.priority);
            pos = (self.cpu_ready.iter().enumerate())
                .min_by_key(|&(pos, lh)| (priority(lh), pos))
                .map_or(0, |(pos, _)| pos);
        }
        let Some(lh) = self.cpu_ready.remove(pos) else {
            return;
        };
        let Some(prt) = self.programs.get_mut(&lh) else {
            return;
        };
        // Frozen (or absent) programs do not execute.
        if self.kernel.logical_host(lh).is_none_or(|l| l.is_frozen()) {
            prt.scheduled = false;
            return;
        }
        let owed = prt.remaining_cpu;
        self.run_slice(lh, owed);
    }

    /// Gives program `lh`, which owes `owed` CPU, its next slice.
    fn run_slice(&mut self, lh: LogicalHostId, owed: SimDuration) {
        let slice = owed.min(CPU_QUANTUM);
        self.cpu_current = Some(lh);
        self.cpu_due = self.now + slice + CONTEXT_SWITCH;
        self.schedule(slice + CONTEXT_SWITCH, Timer::QuantumEnd(lh, slice));
    }

    /// Ends the running program's quantum and charges it in place, unless
    /// the program was frozen or moved away meanwhile.
    fn quantum_end(&mut self, lh: LogicalHostId, slice: SimDuration) {
        let now = self.now;
        if self.cpu_current != Some(lh) || self.cpu_due != now {
            // The program migrated or was destroyed mid-quantum, or a
            // reboot has dispatched a fresh quantum since this one.
            return self.cpu_dispatch();
        }
        self.cpu_current = None;
        let Some(prt) = self.programs.get_mut(&lh) else {
            return self.cpu_dispatch();
        };
        prt.scheduled = false;
        let Some(l) = self.kernel.logical_host_mut(lh).filter(|l| !l.is_frozen()) else {
            return self.cpu_dispatch();
        };
        if self.trace.enabled(TraceLevel::Detail) {
            // The slice began a slice ago: record it whole as one
            // "quantum" span stamped now, so the trace stays in time
            // order.
            let start = SimTime::from_micros(now.as_micros().saturating_sub(slice.as_micros()));
            self.quantum_spans.borrow_mut().next().done(
                &mut self.trace,
                TraceLevel::Detail,
                start,
                now,
                Subsystem::Cluster,
                SpanContext::NONE,
                "quantum",
                self.host.0,
            );
        }
        if prt.priority <= Priority::LOCAL {
            self.cpu_local += slice;
            self.out.push(Output::Count(|s| &mut s.quanta_local));
        } else {
            self.cpu_guest += slice;
            self.out.push(Output::Count(|s| &mut s.quanta_guest));
        }
        if let Some(space) = l.space_mut(prt.team) {
            prt.behavior.on_cpu(slice, space, &mut self.rng);
        }
        prt.remaining_cpu = prt.remaining_cpu.saturating_sub(slice);
        let owed = prt.remaining_cpu;
        prt.scheduled = !owed.is_zero();
        if owed.is_zero() {
            self.step_program(lh, ProgEvent::CpuDone);
            self.then(Kind::CpuDispatch);
        } else if self.cpu_ready.is_empty() {
            // Uncontested: its next slice starts at once, as a lone dispatch's would.
            self.run_slice(lh, owed);
        } else {
            self.cpu_ready.push_back(lh);
            self.cpu_dispatch();
        }
    }

    // --- Owners. ---

    fn set_owner_active(&mut self, active: bool) {
        self.pm.set_owner_active(active);
        if active && self.evict_on_owner_return {
            // The owner came back: evict the guests and time the reclaim,
            // if there is any guest to reclaim the station from.
            let mut guests: Vec<LogicalHostId> = self.guests().collect();
            self.reclaim_since = (!guests.is_empty()).then_some(self.now);
            guests.reverse();
            self.evict(guests);
        }
    }

    /// Starts evicting the last guest in `guests` (each eviction's
    /// outputs go out before the next one starts); once none is left,
    /// checks whether the reclaim is complete.
    fn evict(&mut self, mut guests: Vec<LogicalHostId>) {
        while let Some(lh) = guests.pop() {
            if self.migrator.migrating(lh) {
                continue;
            }
            self.count(|s| &mut s.owner_evictions);
            self.migrate(lh, None, true);
            self.then(Kind::Evict(guests));
            return;
        }
        self.note_reclaim_progress();
    }

    fn note_reclaim_progress(&mut self) {
        let Some(since) = self.reclaim_since else {
            return;
        };
        if self.guests().next().is_none() {
            self.reclaim_since = None;
            self.emit(Output::Reclaimed(self.now.since(since)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet::NetDest;
    use vworkload::profiles::simulation_profile;

    /// The file-server machine and `ws1`, wired by hand instead of by a
    /// cluster: frames arrive a millisecond after they leave, timers fire
    /// in time order, steps re-enter at once.
    struct Pair {
        st: [Station; 2],
        queue: BTreeMap<(SimTime, u64), (usize, Input)>,
        seq: u64,
        now: SimTime,
        rng: DetRng,
        behaviors: VecDeque<WorkloadProgram>,
        stats: ClusterStats,
        /// CPU time of every quantum that was counted.
        charged: SimDuration,
    }

    impl Pair {
        /// Boots the pair and has the file-server machine's shell run one
        /// guest `@ ws1` for each CPU demand in `cpu`.
        fn new(cfg: &ClusterConfig, cpu: &[u64]) -> Pair {
            let (trace, mut rng) = (Trace::new(TraceLevel::Warn), DetRng::seed(1985));
            let spans = Rc::new(RefCell::new(SpanIdGen::new(1)));
            let mut st =
                [0, 1].map(|i| Station::new(i, HostAddr(i as u16), cfg, &trace, &spans, &mut rng));
            let fs = st[0].fs.as_mut().expect("station 0 serves files");
            let env = ExecEnv::standard(st[1].display.pid(), fs.pid());
            let profile = |&s| simulation_profile(SimDuration::from_secs(s));
            let image = profile(&0);
            fs.add_image(image.name.clone(), image.layout);
            let mut pair = Pair {
                st,
                queue: BTreeMap::new(),
                seq: 0,
                now: SimTime::ZERO,
                rng,
                behaviors: (cpu.iter().map(profile))
                    .map(|p| WorkloadProgram::new(p, env.clone()))
                    .collect(),
                stats: ClusterStats::default(),
                charged: SimDuration::ZERO,
            };
            for i in 0..2 {
                pair.feed(i, Input::Boot(HostAddr(0)));
            }
            for _ in cpu {
                let (image, priority) = (image.name.clone(), Priority::GUEST);
                let spec = Box::new(ProgramSpec { image, priority });
                pair.feed(0, Input::Exec(spec, ExecTarget::Named("ws1".into())));
            }
            pair
        }

        fn at(&mut self, after: SimDuration, i: usize, input: Input) {
            self.seq += 1;
            self.queue.insert((self.now + after, self.seq), (i, input));
        }

        #[allow(clippy::wildcard_enum_match_arm)]
        fn feed(&mut self, i: usize, input: Input) {
            let mut outs = Vec::new();
            self.st[i].handle(self.now, input, &mut self.rng, &mut outs);
            for out in outs {
                match out {
                    Output::Step(s) => self.feed(i, Input::Step(s)),
                    Output::Transmit(f) => {
                        self.at(SimDuration::from_millis(1), 1 - i, Input::Frame(f))
                    }
                    Output::Schedule(after, timer) => self.at(after, i, Input::Timer(timer)),
                    Output::Started(root, lh, image) => {
                        let behavior = Box::new(self.behaviors.pop_front().expect("one per exec"));
                        self.feed(i, Input::Start(root, lh, image, behavior));
                    }
                    Output::Count(counter) => *counter(&mut self.stats) += 1,
                    _ => {}
                }
            }
        }

        fn run_for(&mut self, d: SimDuration) {
            let until = self.now + d;
            while let Some(e) = self.queue.first_entry().filter(|e| e.key().0 <= until) {
                let ((at, _), (i, input)) = e.remove_entry();
                let quanta = |s: &ClusterStats| s.quanta_local + s.quanta_guest;
                let (before, mut slice) = (quanta(&self.stats), SimDuration::ZERO);
                if let Input::Timer(Timer::QuantumEnd(_, s)) = input {
                    slice = s;
                }
                self.now = at;
                self.feed(i, input);
                if quanta(&self.stats) > before {
                    assert!(!slice.is_zero(), "only a quantum end charges");
                    self.charged += slice;
                }
                let ws = &self.st[1];
                assert_eq!(ws.cpu_local + ws.cpu_guest, self.charged);
                assert!(self.charged <= self.now.since(SimTime::ZERO));
            }
        }
    }

    #[test]
    fn owner_return_starts_migrating_the_guest_without_a_cluster() {
        let cfg = ClusterConfig {
            evict_on_owner_return: true,
            ..ClusterConfig::default()
        };
        // The file-server machine's shell runs the program `@ ws1`.
        let mut pair = Pair::new(&cfg, &[30]);
        pair.run_for(SimDuration::from_secs(3));
        let guest = pair.st[1].guests().next().expect("ws1 hosts a guest");
        assert!(pair.st[1].programs.contains_key(&guest));
        assert!(pair.charged > SimDuration::from_secs(1), "the guest ran");

        let mut outs = Vec::new();
        let (now, rng) = (pair.now, &mut pair.rng);
        pair.st[1].handle(now, Input::SetOwnerActive(true), rng, &mut outs);
        assert!(pair.st[1].migrator.migrating(guest));
        let mut stats = ClusterStats::default();
        for o in &outs {
            if let Output::Count(counter) = o {
                *counter(&mut stats) += 1;
            }
        }
        assert_eq!(stats.owner_evictions, 1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Transmit(f) if f.dest == NetDest::Multicast(PM_MCAST))));
    }

    /// Two guests share `ws1`. The one holding the CPU is frozen: its
    /// quantum is not charged, and the CPU passes to the other, which then
    /// runs alone and is re-armed at once at the end of its quantum.
    #[test]
    fn a_frozen_quantum_is_not_charged_and_an_uncontested_one_re_arms() {
        let mut pair = Pair::new(&ClusterConfig::default(), &[30, 30]);
        pair.run_for(SimDuration::from_secs(3));
        let ws = &pair.st[1];
        let frozen = ws.cpu_current.expect("a guest holds the CPU");
        assert_eq!(ws.cpu_ready.len(), 1, "the other guest waits");
        let (next, cpu_guest) = (ws.cpu_ready[0], ws.cpu_guest);
        let (owed, quanta) = (ws.programs[&frozen].remaining_cpu, pair.stats.quanta_guest);
        pair.st[1].kernel.freeze(frozen);
        let mut due = pair.st[1].cpu_due;
        for charged in [0, 1] {
            pair.run_for(due.since(pair.now));
            let ws = &pair.st[1];
            assert_eq!(ws.cpu_guest, cpu_guest + CPU_QUANTUM * charged);
            assert_eq!(pair.stats.quanta_guest, quanta + charged);
            assert_eq!(ws.programs[&frozen].remaining_cpu, owed);
            assert!(!ws.programs[&frozen].scheduled);
            assert!(ws.programs[&next].scheduled && ws.cpu_ready.is_empty());
            assert_eq!(ws.cpu_current, Some(next));
            due = due + CPU_QUANTUM + CONTEXT_SWITCH;
            assert_eq!(ws.cpu_due, due);
            let armed = Timer::QuantumEnd(next, CPU_QUANTUM);
            assert!((pair.queue.iter()).any(|(&(at, _), (i, input))| at == due
                && *i == 1
                && matches!(input, Input::Timer(t) if *t == armed)));
        }
    }
}
