//! Program behaviour models.
//!
//! The kernel models *mechanism*; this module models what programs *do*:
//! compute (dirtying pages per their writable-working-set profile), read
//! and write files on the file server, write to the display, and exit. A
//! [`WorkloadProgram`] is a sequential state machine: the cluster runtime
//! feeds it events (CPU granted, reply received, timer fired) and executes
//! the single action it requests next — exactly the shape of a V program
//! blocked in synchronous Send most of its life.
//!
//! Because the behaviour object holds only location-independent state
//! (phase counter, file handles, name cache), the runtime can move it
//! between workstations when its logical host migrates — the program
//! itself cannot tell.

use vkernel::{Destination, GroupId, LogicalHostId, ProcessId};
use vmem::{AddressSpace, SpaceLayout, WwsParams, WwsSampler};
use vservices::{ExecEnv, FileHandle, ServiceMsg};
use vsim::{DetRng, Samples, SimDuration, SimTime};

/// One step of a program's life.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Burn CPU for this long, dirtying pages per the WWS model.
    Compute(SimDuration),
    /// Read a file sequentially in `chunk`-byte requests.
    FileRead {
        /// File name (resolved via the file server in the name cache).
        name: String,
        /// Total bytes to read.
        bytes: u64,
        /// Request size.
        chunk: u64,
    },
    /// Create and write a file sequentially.
    FileWrite {
        /// File name.
        name: String,
        /// Total bytes to write.
        bytes: u64,
        /// Request size.
        chunk: u64,
    },
    /// Write characters to the display server.
    Display {
        /// Character count.
        chars: u64,
    },
    /// Interactive loop (an editing user): think, then a burst of CPU and
    /// an echo to the display. Records keystroke→echo response times.
    Interactive {
        /// Mean think time between keystrokes.
        mean_gap: SimDuration,
        /// CPU burst per keystroke.
        burst: SimDuration,
        /// Keystrokes before the phase ends.
        count: u64,
    },
    /// Open a file and *hold* the handle (never closing it) — the §3.3
    /// convention violation that creates a residual dependency when the
    /// program later migrates.
    OpenAndHold {
        /// File name.
        name: String,
    },
    /// Decompose: run a subprogram on some other idle host and wait for it
    /// to finish (§2: "a program may be decomposed into subprograms, each
    /// of which can be run on a separate host"). Drives the full remote
    /// execution protocol — candidate query, create, start, wait — from
    /// inside the program.
    SpawnAndWait {
        /// The subprogram to run.
        profile: Box<ProgramProfile>,
    },
    /// Sleep without using CPU.
    Sleep(SimDuration),
}

/// Static description of a program: image layout, dirty behaviour, phases.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramProfile {
    /// Image name (as stored on the file server).
    pub name: String,
    /// Address-space layout.
    pub layout: SpaceLayout,
    /// Writable-working-set parameters.
    pub wws: WwsParams,
    /// The program's life, in order.
    pub phases: Vec<Phase>,
}

impl ProgramProfile {
    /// A pure-compute profile (used by the Table 4-1 measurement, where
    /// the paper measured steady compilation/typesetting).
    pub fn steady(
        name: impl Into<String>,
        layout: SpaceLayout,
        wws: WwsParams,
        cpu: SimDuration,
    ) -> Self {
        ProgramProfile {
            name: name.into(),
            layout,
            wws,
            phases: vec![Phase::Compute(cpu)],
        }
    }

    /// Total CPU the program will request.
    pub fn total_cpu(&self) -> SimDuration {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Compute(d) => *d,
                Phase::Interactive { burst, count, .. } => *burst * *count,
                _ => SimDuration::ZERO,
            })
            .sum()
    }
}

/// What the program asks the runtime to do next.
#[derive(Debug, Clone)]
pub enum ProgAction {
    /// Schedule CPU time (the runtime slices it into quanta and calls
    /// [`WorkloadProgram::on_cpu`] per quantum).
    Compute(SimDuration),
    /// Sleep (no CPU) and deliver [`ProgEvent::SleepDone`] after.
    Sleep(SimDuration),
    /// Send a request from the program's root process.
    Send {
        /// Target server, group, or well-known local group.
        to: Destination,
        /// Request body.
        body: ServiceMsg,
        /// Appended data bytes.
        data_bytes: u64,
        /// When spawning a subprogram: its behaviour profile, which the
        /// runtime queues so the created program gets a body.
        register_child: Option<Box<ProgramProfile>>,
    },
    /// The program is finished.
    Exit,
}

/// What happened that lets the program take its next step.
#[derive(Debug, Clone)]
pub enum ProgEvent {
    /// The initial process was started by its creator.
    Started,
    /// The requested CPU time has been fully delivered.
    CpuDone,
    /// The requested sleep elapsed.
    SleepDone,
    /// The outstanding Send completed.
    Reply(ServiceMsg),
    /// The outstanding Send failed (timeout / refused).
    SendFailed,
}

/// Counters a program accumulates (they migrate with it).
#[derive(Debug, Clone, Default)]
pub struct ProgStats {
    /// CPU actually consumed.
    pub cpu_micros: u64,
    /// Bytes read from files.
    pub file_bytes_read: u64,
    /// Bytes written to files.
    pub file_bytes_written: u64,
    /// Characters written to the display.
    pub display_chars: u64,
    /// Send failures observed.
    pub send_failures: u64,
}

#[derive(Debug)]
enum Step {
    /// Not yet started.
    Embryonic,
    /// Executing phase `idx`, at sub-state `sub`.
    InPhase { idx: usize, sub: PhaseSub },
    /// All phases done.
    Finished,
}

#[derive(Debug)]
enum PhaseSub {
    /// Entering the phase (no progress yet).
    Enter,
    /// File phase: waiting for Open reply.
    Opening,
    /// File phase: transferring, `left` bytes to go with `handle`.
    Transferring { handle: FileHandle, left: u64 },
    /// File phase: waiting for Close reply.
    Closing,
    /// Interactive: `done` keystrokes completed, waiting think-time.
    Thinking { done: u64 },
    /// Interactive: burst scheduled, keystroke timestamped.
    Bursting { done: u64, keystroke_at: SimTime },
    /// Interactive: echo request sent.
    Echoing { done: u64, keystroke_at: SimTime },
    /// Waiting for a display reply (Display phase).
    DisplayWait,
    /// Compute in progress (runtime tracks remaining).
    Computing,
    /// Subprogram spawn protocol in progress.
    Spawn(SpawnStep),
}

/// Where the spawn protocol stands.
#[derive(Debug)]
enum SpawnStep {
    /// Candidate-host query multicast, awaiting the first response.
    Query,
    /// CreateProgram sent to the chosen manager.
    Create {
        /// The chosen program manager.
        pm: ProcessId,
    },
    /// StartProgram sent.
    Start {
        /// The child's logical host.
        child: LogicalHostId,
    },
    /// WaitProgram outstanding.
    Wait {
        /// The child's logical host.
        child: LogicalHostId,
    },
}

/// A live program instance.
pub struct WorkloadProgram {
    profile: ProgramProfile,
    env: ExecEnv,
    step: Step,
    sampler: Option<WwsSampler>,
    /// Keystroke→echo latencies, in seconds (experiment E10).
    pub response_times: Samples,
    /// Handles opened by [`Phase::OpenAndHold`], never closed.
    pub held_handles: Vec<FileHandle>,
    stats: ProgStats,
}

impl WorkloadProgram {
    /// Creates a not-yet-started program.
    pub fn new(profile: ProgramProfile, env: ExecEnv) -> Self {
        WorkloadProgram {
            profile,
            env,
            step: Step::Embryonic,
            sampler: None,
            response_times: Samples::new(),
            held_handles: Vec::new(),
            stats: ProgStats::default(),
        }
    }

    /// The profile this instance runs.
    pub fn profile(&self) -> &ProgramProfile {
        &self.profile
    }

    /// The environment block.
    pub fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &ProgStats {
        &self.stats
    }

    /// True once the program has exited.
    pub fn finished(&self) -> bool {
        matches!(self.step, Step::Finished)
    }

    /// Delivers CPU time: the WWS sampler issues the page writes this
    /// quantum implies. Called by the runtime while a [`ProgAction::Compute`]
    /// is being serviced.
    pub fn on_cpu(&mut self, dt: SimDuration, space: &mut AddressSpace, rng: &mut DetRng) {
        self.stats.cpu_micros += dt.as_micros();
        let sampler = self
            .sampler
            .get_or_insert_with(|| WwsSampler::new(self.profile.wws, space, rng));
        sampler.advance(dt, space, rng);
    }

    /// Advances the state machine: given `event`, produce the next action.
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (an event that cannot occur in the
    /// current step), which indicate runtime bugs.
    #[allow(clippy::panic)]
    pub fn next(&mut self, now: SimTime, event: ProgEvent, rng: &mut DetRng) -> ProgAction {
        let step = std::mem::replace(&mut self.step, Step::Finished);
        match (step, event) {
            (Step::Embryonic, ProgEvent::Started) => {
                self.step = Step::InPhase {
                    idx: 0,
                    sub: PhaseSub::Enter,
                };
                self.enter_phase(now, rng)
            }
            (Step::InPhase { idx, sub }, ev) => {
                // Restore the step; `step_phase` updates the sub-state via
                // `set_sub` as it progresses.
                self.step = Step::InPhase {
                    idx,
                    sub: PhaseSub::Enter,
                };
                match self.step_phase(idx, sub, ev, now, rng) {
                    StepOutcome::Action(a) => a,
                    StepOutcome::PhaseDone => {
                        let next = idx + 1;
                        if next >= self.profile.phases.len() {
                            self.step = Step::Finished;
                            ProgAction::Exit
                        } else {
                            self.step = Step::InPhase {
                                idx: next,
                                sub: PhaseSub::Enter,
                            };
                            self.enter_phase(now, rng)
                        }
                    }
                }
            }
            (Step::Finished, _) => ProgAction::Exit,
            (step, ev) => panic!("program protocol violation: {ev:?} in {step:?}"),
        }
    }

    fn current_phase(&self, idx: usize) -> &Phase {
        &self.profile.phases[idx]
    }

    #[allow(clippy::expect_used)]
    fn enter_phase(&mut self, _now: SimTime, rng: &mut DetRng) -> ProgAction {
        let Step::InPhase { idx, sub } = &mut self.step else {
            unreachable!("enter_phase outside a phase");
        };
        let idx = *idx;
        match self.profile.phases[idx].clone() {
            Phase::Compute(d) => {
                *sub = PhaseSub::Computing;
                ProgAction::Compute(d)
            }
            Phase::Sleep(d) => {
                *sub = PhaseSub::Computing; // Reuse: next SleepDone finishes.
                ProgAction::Sleep(d)
            }
            Phase::FileRead { name, .. } | Phase::FileWrite { name, .. } => {
                *sub = PhaseSub::Opening;
                let fs = self
                    .env
                    .file_server()
                    .expect("file phase without a file server in the name cache");
                ProgAction::Send {
                    to: fs.into(),
                    body: ServiceMsg::Open { name, create: true },
                    data_bytes: 0,
                    register_child: None,
                }
            }
            Phase::Display { chars } => {
                *sub = PhaseSub::DisplayWait;
                let d = self
                    .env
                    .display()
                    .expect("display phase without a display in the name cache");
                self.stats.display_chars += chars;
                ProgAction::Send {
                    to: d.into(),
                    body: ServiceMsg::WriteChars { count: chars },
                    data_bytes: chars,
                    register_child: None,
                }
            }
            Phase::OpenAndHold { name } => {
                *sub = PhaseSub::Opening;
                let fs = self
                    .env
                    .file_server()
                    .expect("file phase without a file server in the name cache");
                ProgAction::Send {
                    to: fs.into(),
                    body: ServiceMsg::Open { name, create: true },
                    data_bytes: 0,
                    register_child: None,
                }
            }
            Phase::SpawnAndWait { .. } => {
                *sub = PhaseSub::Spawn(SpawnStep::Query);
                ProgAction::Send {
                    to: GroupId::PROGRAM_MANAGERS.into(),
                    body: ServiceMsg::QueryHost {
                        host_name: None,
                        exclude_hosts: Vec::new(),
                    },
                    data_bytes: 0,
                    register_child: None,
                }
            }
            Phase::Interactive { mean_gap, .. } => {
                *sub = PhaseSub::Thinking { done: 0 };
                ProgAction::Sleep(SimDuration::from_secs_f64(
                    rng.exp_f64(mean_gap.as_secs_f64()),
                ))
            }
        }
    }

    #[allow(clippy::expect_used, clippy::panic)]
    fn step_phase(
        &mut self,
        idx: usize,
        sub: PhaseSub,
        ev: ProgEvent,
        now: SimTime,
        rng: &mut DetRng,
    ) -> StepOutcome {
        use StepOutcome::{Action, PhaseDone};
        let phase = self.current_phase(idx).clone();
        match (phase, sub, ev) {
            (Phase::Compute(_), PhaseSub::Computing, ProgEvent::CpuDone) => PhaseDone,
            (Phase::Sleep(_), PhaseSub::Computing, ProgEvent::SleepDone) => PhaseDone,

            // --- Open-and-hold (§3.3 demonstration). ---
            (
                Phase::OpenAndHold { .. },
                PhaseSub::Opening,
                ProgEvent::Reply(ServiceMsg::Opened { handle, .. }),
            ) => {
                self.held_handles.push(handle);
                PhaseDone
            }

            // --- File transfer. ---
            (
                Phase::FileRead { bytes, .. } | Phase::FileWrite { bytes, .. },
                PhaseSub::Opening,
                ProgEvent::Reply(ServiceMsg::Opened { handle, .. }),
            ) => {
                let sub = PhaseSub::Transferring {
                    handle,
                    left: bytes,
                };
                self.set_sub(sub);
                Action(self.transfer_step(idx, handle, bytes))
            }
            (
                Phase::FileRead { chunk, .. },
                PhaseSub::Transferring { handle, left },
                ProgEvent::Reply(ServiceMsg::ReadDone { bytes }),
            ) => {
                self.stats.file_bytes_read += bytes;
                let left = left.saturating_sub(chunk.min(left)).min(
                    // A short read (EOF) ends the transfer early.
                    if bytes < chunk { 0 } else { u64::MAX },
                );
                self.finish_or_continue_transfer(idx, handle, left)
            }
            (
                Phase::FileWrite { chunk, .. },
                PhaseSub::Transferring { handle, left },
                ProgEvent::Reply(ServiceMsg::WriteDone),
            ) => {
                let step = chunk.min(left);
                self.stats.file_bytes_written += step;
                let left = left - step;
                self.finish_or_continue_transfer(idx, handle, left)
            }
            (
                Phase::FileRead { .. } | Phase::FileWrite { .. },
                PhaseSub::Closing,
                ProgEvent::Reply(_),
            ) => PhaseDone,

            // --- Display. ---
            (Phase::Display { .. }, PhaseSub::DisplayWait, ProgEvent::Reply(_)) => PhaseDone,

            // --- Interactive editing. ---
            (
                Phase::Interactive { burst, .. },
                PhaseSub::Thinking { done },
                ProgEvent::SleepDone,
            ) => {
                self.set_sub(PhaseSub::Bursting {
                    done,
                    keystroke_at: now,
                });
                Action(ProgAction::Compute(burst))
            }
            (
                Phase::Interactive { .. },
                PhaseSub::Bursting { done, keystroke_at },
                ProgEvent::CpuDone,
            ) => {
                self.set_sub(PhaseSub::Echoing { done, keystroke_at });
                let d = self.env.display().expect("interactive needs a display");
                self.stats.display_chars += 1;
                Action(ProgAction::Send {
                    to: d.into(),
                    body: ServiceMsg::WriteChars { count: 1 },
                    data_bytes: 1,
                    register_child: None,
                })
            }
            (
                Phase::Interactive {
                    mean_gap, count, ..
                },
                PhaseSub::Echoing { done, keystroke_at },
                ProgEvent::Reply(_),
            ) => {
                self.response_times
                    .add(now.since(keystroke_at).as_secs_f64());
                let done = done + 1;
                if done >= count {
                    PhaseDone
                } else {
                    self.set_sub(PhaseSub::Thinking { done });
                    Action(ProgAction::Sleep(SimDuration::from_secs_f64(
                        rng.exp_f64(mean_gap.as_secs_f64()),
                    )))
                }
            }

            // --- Subprogram decomposition (§2). ---
            (
                Phase::SpawnAndWait { profile },
                PhaseSub::Spawn(SpawnStep::Query),
                ProgEvent::Reply(ServiceMsg::HostCandidate { pm, .. }),
            ) => {
                self.set_sub(PhaseSub::Spawn(SpawnStep::Create { pm }));
                let spec = vservices::ProgramSpec {
                    image: profile.name.clone(),
                    args: Vec::new(),
                    priority: vkernel::Priority::GUEST,
                    env: self.env.clone(),
                };
                Action(ProgAction::Send {
                    to: pm.into(),
                    body: ServiceMsg::CreateProgram(Box::new(spec)),
                    data_bytes: 0,
                    register_child: Some(profile),
                })
            }
            (
                Phase::SpawnAndWait { .. },
                PhaseSub::Spawn(SpawnStep::Create { pm }),
                ProgEvent::Reply(ServiceMsg::ProgramCreated { root, lh, .. }),
            ) => {
                self.set_sub(PhaseSub::Spawn(SpawnStep::Start { child: lh }));
                Action(ProgAction::Send {
                    to: pm.into(),
                    body: ServiceMsg::StartProgram { root },
                    data_bytes: 512,
                    register_child: None,
                })
            }
            (
                Phase::SpawnAndWait { .. },
                PhaseSub::Spawn(SpawnStep::Start { child, .. }),
                ProgEvent::Reply(reply),
            ) if reply.is_ok() => {
                self.set_sub(PhaseSub::Spawn(SpawnStep::Wait { child }));
                // Address "the manager of whatever host runs the child" —
                // robust against the child itself migrating.
                Action(ProgAction::Send {
                    to: Destination::Group(GroupId::program_manager_of(child)),
                    body: ServiceMsg::WaitProgram { lh: child },
                    data_bytes: 0,
                    register_child: None,
                })
            }
            (
                Phase::SpawnAndWait { .. },
                PhaseSub::Spawn(SpawnStep::Wait { child }),
                ProgEvent::Reply(reply),
            ) => {
                if reply.is_ok() {
                    PhaseDone
                } else {
                    // The child migrated out from under its old manager;
                    // re-issue the wait, which re-routes to the new host.
                    self.set_sub(PhaseSub::Spawn(SpawnStep::Wait { child }));
                    Action(ProgAction::Send {
                        to: Destination::Group(GroupId::program_manager_of(child)),
                        body: ServiceMsg::WaitProgram { lh: child },
                        data_bytes: 0,
                        register_child: None,
                    })
                }
            }

            // --- Failures: count and end the phase. ---
            (_, _, ProgEvent::SendFailed) => {
                self.stats.send_failures += 1;
                PhaseDone
            }
            (phase, sub, ev) => {
                panic!("program protocol violation: {ev:?} in phase {phase:?} / {sub:?}")
            }
        }
    }

    #[allow(clippy::expect_used)]
    fn transfer_step(&self, idx: usize, handle: FileHandle, left: u64) -> ProgAction {
        match self.current_phase(idx) {
            Phase::FileRead { chunk, .. } => ProgAction::Send {
                to: self.env.file_server().expect("checked at open").into(),
                body: ServiceMsg::Read {
                    handle,
                    bytes: (*chunk).min(left),
                },
                data_bytes: 0,
                register_child: None,
            },
            Phase::FileWrite { chunk, .. } => {
                let n = (*chunk).min(left);
                ProgAction::Send {
                    to: self.env.file_server().expect("checked at open").into(),
                    body: ServiceMsg::Write { handle, bytes: n },
                    data_bytes: n,
                    register_child: None,
                }
            }
            other => unreachable!("transfer step in non-file phase {other:?}"),
        }
    }

    #[allow(clippy::expect_used)]
    fn finish_or_continue_transfer(
        &mut self,
        idx: usize,
        handle: FileHandle,
        left: u64,
    ) -> StepOutcome {
        if left == 0 {
            self.set_sub(PhaseSub::Closing);
            StepOutcome::Action(ProgAction::Send {
                to: self.env.file_server().expect("checked at open").into(),
                body: ServiceMsg::Close { handle },
                data_bytes: 0,
                register_child: None,
            })
        } else {
            self.set_sub(PhaseSub::Transferring { handle, left });
            StepOutcome::Action(self.transfer_step(idx, handle, left))
        }
    }

    fn set_sub(&mut self, new_sub: PhaseSub) {
        if let Step::InPhase { sub, .. } = &mut self.step {
            *sub = new_sub;
        }
    }
}

enum StepOutcome {
    Action(ProgAction),
    PhaseDone,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::LogicalHostId;
    use vmem::SpaceId;

    fn env() -> ExecEnv {
        ExecEnv::standard(
            ProcessId::new(LogicalHostId(1), 20),
            ProcessId::new(LogicalHostId(2), 16),
        )
    }

    fn wws() -> WwsParams {
        WwsParams {
            hot_kb: 10.0,
            hot_write_kb_per_sec: 100.0,
            cold_kb_per_sec: 5.0,
        }
    }

    #[test]
    fn compute_only_program_runs_and_exits() {
        let p = ProgramProfile::steady("t", SpaceLayout::tiny(), wws(), SimDuration::from_secs(1));
        let mut prog = WorkloadProgram::new(p, env());
        let mut rng = DetRng::seed(1);
        let a = prog.next(SimTime::ZERO, ProgEvent::Started, &mut rng);
        assert!(matches!(a, ProgAction::Compute(d) if d == SimDuration::from_secs(1)));
        let a = prog.next(SimTime::ZERO, ProgEvent::CpuDone, &mut rng);
        assert!(matches!(a, ProgAction::Exit));
        assert!(prog.finished());
    }

    #[test]
    fn on_cpu_dirties_pages() {
        let layout = SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: 256 * 1024,
            stack_bytes: 0,
        };
        let p = ProgramProfile::steady("t", layout, wws(), SimDuration::from_secs(1));
        let mut prog = WorkloadProgram::new(p, env());
        let mut rng = DetRng::seed(2);
        let mut space = AddressSpace::new(SpaceId(0), layout);
        prog.on_cpu(SimDuration::from_secs(1), &mut space, &mut rng);
        assert!(space.dirty_pages() > 0);
        assert_eq!(prog.stats().cpu_micros, 1_000_000);
    }

    #[test]
    fn file_read_phase_protocol() {
        let profile = ProgramProfile {
            name: "reader".into(),
            layout: SpaceLayout::tiny(),
            wws: wws(),
            phases: vec![Phase::FileRead {
                name: "input.c".into(),
                bytes: 70,
                chunk: 32,
            }],
        };
        let mut prog = WorkloadProgram::new(profile, env());
        let mut rng = DetRng::seed(3);
        let t = SimTime::ZERO;

        // Open.
        let a = prog.next(t, ProgEvent::Started, &mut rng);
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Open { .. },
                ..
            }
        ));
        // Three reads: 32 + 32 + 6.
        let h = FileHandle(7);
        let a = prog.next(
            t,
            ProgEvent::Reply(ServiceMsg::Opened {
                handle: h,
                size: 70,
            }),
            &mut rng,
        );
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Read { bytes: 32, .. },
                ..
            }
        ));
        let a = prog.next(
            t,
            ProgEvent::Reply(ServiceMsg::ReadDone { bytes: 32 }),
            &mut rng,
        );
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Read { bytes: 32, .. },
                ..
            }
        ));
        let a = prog.next(
            t,
            ProgEvent::Reply(ServiceMsg::ReadDone { bytes: 32 }),
            &mut rng,
        );
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Read { bytes: 6, .. },
                ..
            }
        ));
        // Short read closes.
        let a = prog.next(
            t,
            ProgEvent::Reply(ServiceMsg::ReadDone { bytes: 6 }),
            &mut rng,
        );
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Close { .. },
                ..
            }
        ));
        let a = prog.next(t, ProgEvent::Reply(ServiceMsg::Ok), &mut rng);
        assert!(matches!(a, ProgAction::Exit));
        assert_eq!(prog.stats().file_bytes_read, 70);
    }

    #[test]
    fn write_phase_counts_bytes() {
        let profile = ProgramProfile {
            name: "writer".into(),
            layout: SpaceLayout::tiny(),
            wws: wws(),
            phases: vec![Phase::FileWrite {
                name: "out.o".into(),
                bytes: 50,
                chunk: 32,
            }],
        };
        let mut prog = WorkloadProgram::new(profile, env());
        let mut rng = DetRng::seed(4);
        let t = SimTime::ZERO;
        prog.next(t, ProgEvent::Started, &mut rng);
        let h = FileHandle(1);
        let a = prog.next(
            t,
            ProgEvent::Reply(ServiceMsg::Opened { handle: h, size: 0 }),
            &mut rng,
        );
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Write { bytes: 32, .. },
                data_bytes: 32,
                ..
            }
        ));
        prog.next(t, ProgEvent::Reply(ServiceMsg::WriteDone), &mut rng);
        let a = prog.next(t, ProgEvent::Reply(ServiceMsg::WriteDone), &mut rng);
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Close { .. },
                ..
            }
        ));
        assert_eq!(prog.stats().file_bytes_written, 50);
    }

    #[test]
    fn interactive_phase_measures_response_times() {
        let profile = ProgramProfile {
            name: "edit".into(),
            layout: SpaceLayout::tiny(),
            wws: wws(),
            phases: vec![Phase::Interactive {
                mean_gap: SimDuration::from_millis(500),
                burst: SimDuration::from_millis(5),
                count: 2,
            }],
        };
        let mut prog = WorkloadProgram::new(profile, env());
        let mut rng = DetRng::seed(5);
        let mut t = SimTime::ZERO;

        let a = prog.next(t, ProgEvent::Started, &mut rng);
        assert!(matches!(a, ProgAction::Sleep(_)));
        t += SimDuration::from_millis(400);
        let a = prog.next(t, ProgEvent::SleepDone, &mut rng);
        assert!(matches!(a, ProgAction::Compute(_)));
        t += SimDuration::from_millis(5);
        let a = prog.next(t, ProgEvent::CpuDone, &mut rng);
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::WriteChars { count: 1 },
                ..
            }
        ));
        t += SimDuration::from_millis(2);
        let a = prog.next(t, ProgEvent::Reply(ServiceMsg::Ok), &mut rng);
        assert!(matches!(a, ProgAction::Sleep(_)), "second keystroke");
        // Response time = 5 ms burst + 2 ms echo = 7 ms.
        assert_eq!(prog.response_times.count(), 1);
        assert!((prog.response_times.values()[0] - 0.007).abs() < 1e-9);
    }

    #[test]
    fn open_and_hold_keeps_handle() {
        let profile = ProgramProfile {
            name: "holder".into(),
            layout: SpaceLayout::tiny(),
            wws: wws(),
            phases: vec![
                Phase::OpenAndHold {
                    name: "tmp/x".into(),
                },
                Phase::Compute(SimDuration::from_millis(1)),
            ],
        };
        let mut prog = WorkloadProgram::new(profile, env());
        let mut rng = DetRng::seed(9);
        let t = SimTime::ZERO;
        let a = prog.next(t, ProgEvent::Started, &mut rng);
        assert!(matches!(
            a,
            ProgAction::Send {
                body: ServiceMsg::Open { .. },
                ..
            }
        ));
        let a = prog.next(
            t,
            ProgEvent::Reply(ServiceMsg::Opened {
                handle: FileHandle(3),
                size: 0,
            }),
            &mut rng,
        );
        assert!(matches!(a, ProgAction::Compute(_)), "no Close issued");
        assert_eq!(prog.held_handles, vec![FileHandle(3)]);
    }

    #[test]
    fn send_failure_skips_phase() {
        let profile = ProgramProfile {
            name: "p".into(),
            layout: SpaceLayout::tiny(),
            wws: wws(),
            phases: vec![
                Phase::Display { chars: 10 },
                Phase::Compute(SimDuration::from_millis(1)),
            ],
        };
        let mut prog = WorkloadProgram::new(profile, env());
        let mut rng = DetRng::seed(6);
        let t = SimTime::ZERO;
        prog.next(t, ProgEvent::Started, &mut rng);
        let a = prog.next(t, ProgEvent::SendFailed, &mut rng);
        assert!(matches!(a, ProgAction::Compute(_)));
        assert_eq!(prog.stats().send_failures, 1);
    }

    #[test]
    fn total_cpu_sums_compute_and_interactive() {
        let profile = ProgramProfile {
            name: "p".into(),
            layout: SpaceLayout::tiny(),
            wws: wws(),
            phases: vec![
                Phase::Compute(SimDuration::from_secs(2)),
                Phase::Interactive {
                    mean_gap: SimDuration::from_millis(500),
                    burst: SimDuration::from_millis(10),
                    count: 100,
                },
            ],
        };
        assert_eq!(profile.total_cpu(), SimDuration::from_secs(3));
    }
}
