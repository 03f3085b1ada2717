//! Remote execution: the paper's §2.
//!
//! `program args @ machine` and `program args @ *` from the command
//! interpreter, and the equivalent library routine. The [`RemoteExecutor`]
//! is that library routine: it multicasts a candidate-host query to the
//! program-manager group, takes the *first* response ("it simply selects
//! the program manager that responds first since that is generally the
//! least loaded host"), asks that manager to create the program, and
//! finally starts the embryonic initial process — recording the timing
//! breakdown the paper reports in §4.1.

use std::collections::BTreeMap;

use vkernel::{GroupId, Kernel, KernelOutput, ProcessId, ReplyIn, SendError, SendSeq};
use vservices::{ProgramSpec, ServiceMsg};
use vsim::{SimDuration, SimTime};

use crate::report::{ExecReport, ExecTarget};

/// Events the executor reports to the runtime.
#[derive(Debug)]
pub enum ExecEvent {
    /// Execution set up (or failed); metrics attached.
    Done(Box<ExecReport>),
}

/// Outputs of one executor step.
#[derive(Debug, Default)]
pub struct ExecOutputs {
    /// Kernel actions to execute.
    pub kernel: Vec<KernelOutput<ServiceMsg>>,
    /// Events for the runtime.
    pub events: Vec<ExecEvent>,
}

impl ExecOutputs {
    fn kernel(mut self, outs: Vec<KernelOutput<ServiceMsg>>) -> Self {
        self.kernel.extend(outs);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Selecting,
    Creating,
    Starting,
}

struct Job {
    spec: ProgramSpec,
    state: JobState,
    started_at: SimTime,
    selected_at: Option<SimTime>,
    created_at: Option<SimTime>,
    chosen: Option<(ProcessId, vnet::HostAddr, String)>,
    root: Option<ProcessId>,
    lh: Option<vkernel::LogicalHostId>,
}

/// The `@`-operator implementation: one per requesting process (typically
/// the command interpreter / shell of a workstation).
pub struct RemoteExecutor {
    pid: ProcessId,
    host: vnet::HostAddr,
    local_pm: ProcessId,
    jobs: BTreeMap<u64, Job>,
    by_seq: BTreeMap<SendSeq, u64>,
    next_job: u64,
}

impl RemoteExecutor {
    /// Creates an executor sending as `pid` on `host`, with the
    /// workstation's own program manager for local execution.
    pub fn new(pid: ProcessId, host: vnet::HostAddr, local_pm: ProcessId) -> Self {
        RemoteExecutor {
            pid,
            host,
            local_pm,
            jobs: BTreeMap::new(),
            by_seq: BTreeMap::new(),
            next_job: 0,
        }
    }

    /// The executor's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Number of executions still in flight.
    pub fn in_flight(&self) -> usize {
        self.jobs.len()
    }

    /// Begins executing `spec` at `target`.
    pub fn execute(
        &mut self,
        now: SimTime,
        spec: ProgramSpec,
        target: ExecTarget,
        k: &mut Kernel<ServiceMsg>,
    ) -> ExecOutputs {
        let id = self.next_job;
        self.next_job += 1;
        let mut job = Job {
            spec,
            state: JobState::Selecting,
            started_at: now,
            selected_at: None,
            created_at: None,
            chosen: None,
            root: None,
            lh: None,
        };
        let out = ExecOutputs::default();
        let out = match target {
            ExecTarget::Local => {
                // No selection phase: straight to the local manager.
                job.selected_at = Some(now);
                job.state = JobState::Creating;
                job.chosen = Some((self.local_pm, vnet::HostAddr(0), "local".into()));
                let create = ServiceMsg::CreateProgram(Box::new(job.spec.clone()));
                let (seq, kouts) = k.send_with_seq(now, self.pid, self.local_pm.into(), create, 0);
                self.by_seq.insert(seq, id);
                out.kernel(kouts)
            }
            ExecTarget::Named(name) => {
                let q = ServiceMsg::QueryHost {
                    host_name: Some(name),
                    exclude_hosts: Vec::new(),
                };
                let (seq, kouts) =
                    k.send_with_seq(now, self.pid, GroupId::PROGRAM_MANAGERS.into(), q, 0);
                self.by_seq.insert(seq, id);
                out.kernel(kouts)
            }
            ExecTarget::AnyIdle => {
                // §4.3: "@*" means "some *other* lightly loaded machine";
                // the requesting workstation does not answer its own query.
                let q = ServiceMsg::QueryHost {
                    host_name: None,
                    exclude_hosts: vec![self.host],
                };
                let (seq, kouts) =
                    k.send_with_seq(now, self.pid, GroupId::PROGRAM_MANAGERS.into(), q, 0);
                self.by_seq.insert(seq, id);
                out.kernel(kouts)
            }
        };
        self.jobs.insert(id, job);
        out
    }

    /// Routes a completion of one of the executor's Sends.
    ///
    /// # Panics
    ///
    /// Panics if the job's protocol state is inconsistent, e.g. a job in
    /// `Creating` with no chosen host. These are invariant guards, not
    /// error handling.
    #[allow(clippy::expect_used)]
    pub fn handle_send_done(
        &mut self,
        now: SimTime,
        seq: SendSeq,
        result: Result<ReplyIn<ServiceMsg>, SendError>,
        k: &mut Kernel<ServiceMsg>,
    ) -> ExecOutputs {
        let Some(id) = self.by_seq.remove(&seq) else {
            return ExecOutputs::default();
        };
        let Some(mut job) = self.jobs.remove(&id) else {
            return ExecOutputs::default();
        };
        let mut out = ExecOutputs::default();
        match (job.state, result) {
            (
                JobState::Selecting,
                Ok(ReplyIn {
                    body:
                        ServiceMsg::HostCandidate {
                            pm,
                            host,
                            host_name,
                            ..
                        },
                    ..
                }),
            ) => {
                job.selected_at = Some(now);
                job.chosen = Some((pm, host, host_name));
                job.state = JobState::Creating;
                let create = ServiceMsg::CreateProgram(Box::new(job.spec.clone()));
                let (s, kouts) = k.send_with_seq(now, self.pid, pm.into(), create, 0);
                self.by_seq.insert(s, id);
                out = out.kernel(kouts);
                self.jobs.insert(id, job);
            }
            (
                JobState::Creating,
                Ok(ReplyIn {
                    body: ServiceMsg::ProgramCreated { root, lh, .. },
                    ..
                }),
            ) => {
                job.created_at = Some(now);
                job.root = Some(root);
                job.lh = Some(lh);
                job.state = JobState::Starting;
                // "The requester initializes the new program space with
                // program arguments, default I/O, and various environment
                // variables ... Finally, it starts the program in
                // execution by replying to its initial process" (§2.1).
                // The environment travels with the start request.
                let (pm, _, _) = *job.chosen.as_ref().expect("chosen in Creating");
                let start = ServiceMsg::StartProgram { root };
                let env_bytes = 512; // Arguments + environment block.
                let (s, kouts) = k.send_with_seq(now, self.pid, pm.into(), start, env_bytes);
                self.by_seq.insert(s, id);
                out = out.kernel(kouts);
                self.jobs.insert(id, job);
            }
            (JobState::Starting, Ok(ReplyIn { body, .. })) if body.is_ok() => {
                out.events
                    .push(ExecEvent::Done(Box::new(self.report(&job, now, true))));
            }
            (_, _) => {
                out.events
                    .push(ExecEvent::Done(Box::new(self.report(&job, now, false))));
            }
        }
        out
    }

    fn report(&self, job: &Job, now: SimTime, success: bool) -> ExecReport {
        let selection_time = job
            .selected_at
            .map(|t| t.since(job.started_at))
            .unwrap_or_else(|| now.since(job.started_at));
        let creation_time = match (job.selected_at, job.created_at) {
            (Some(s), Some(c)) => c.since(s),
            _ => SimDuration::ZERO,
        };
        let start_time = job
            .created_at
            .map(|c| now.since(c))
            .unwrap_or(SimDuration::ZERO);
        ExecReport {
            image: job.spec.image.clone(),
            chosen_host: job.chosen.as_ref().map(|(_, h, _)| *h),
            chosen_name: job.chosen.as_ref().map(|(_, _, n)| n.clone()),
            root: job.root,
            lh: job.lh,
            selection_time,
            creation_time,
            start_time,
            total_time: now.since(job.started_at),
            success,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::LogicalHostId;

    #[test]
    fn executor_tracks_in_flight_jobs() {
        let pid = ProcessId::new(LogicalHostId(1), 16);
        let pm = ProcessId::new(LogicalHostId(1), 2);
        let ex = RemoteExecutor::new(pid, vnet::HostAddr(0), pm);
        assert_eq!(ex.in_flight(), 0);
        assert_eq!(ex.pid(), pid);
    }
}
