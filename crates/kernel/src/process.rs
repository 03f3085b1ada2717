//! Processes and their IPC-visible state.
//!
//! V processes are lightweight: they live inside a team's address space and
//! communicate exclusively by synchronous message passing. The kernel model
//! tracks what IPC needs: whether a process is blocked awaiting a reply
//! (and to whom), its team (address space), and its scheduling priority.
//! The *behaviour* of a process — what it computes, which pages it writes —
//! lives in the workload layer.

use vmem::SpaceId;

use crate::ids::ProcessId;
use crate::packet::SendSeq;

/// Scheduling priority. Lower value = more urgent, following V.
///
/// §2: "Because of priority scheduling for locally invoked programs, a
/// text-editing user need not notice the presence of background jobs."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// System servers (kernel server, program manager, display server).
    pub const SYSTEM: Priority = Priority(0);
    /// The pre-copy operation runs above everything else on the origin
    /// host (§3.1.2: "executed at a higher priority than all other
    /// programs ... to prevent these other programs from interfering").
    pub const MIGRATION: Priority = Priority(1);
    /// Locally invoked programs.
    pub const LOCAL: Priority = Priority(4);
    /// Remotely executed ("guest") programs.
    pub const GUEST: Priority = Priority(8);
}

/// IPC-visible state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Runnable (or running; the CPU scheduler in the cluster layer
    /// decides which ready process executes).
    Ready,
    /// Blocked in Send, awaiting a reply for the given transaction.
    AwaitingReply {
        /// The transaction blocked on.
        seq: SendSeq,
    },
    /// Created and not yet started: awaiting the initial reply from its
    /// creator (§2.1 — a new program's first process "is awaiting reply
    /// from its creator").
    Embryo,
    /// Destroyed; the slot is retained to keep ids unique.
    Dead,
}

/// A kernel process descriptor.
#[derive(Debug, Clone)]
pub struct Process {
    /// The process id.
    pub pid: ProcessId,
    /// The team (address space) it executes in.
    pub team: SpaceId,
    /// Scheduling priority.
    pub priority: Priority,
    /// IPC state.
    pub state: ProcessState,
}

impl Process {
    /// Creates a ready process.
    pub fn new(pid: ProcessId, team: SpaceId, priority: Priority) -> Self {
        Process {
            pid,
            team,
            priority,
            state: ProcessState::Ready,
        }
    }

    /// Creates a process in the embryonic awaiting-creator state.
    pub fn new_embryo(pid: ProcessId, team: SpaceId, priority: Priority) -> Self {
        Process {
            pid,
            team,
            priority,
            state: ProcessState::Embryo,
        }
    }

    /// True unless dead.
    pub fn is_alive(&self) -> bool {
        !matches!(self.state, ProcessState::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LogicalHostId;

    #[test]
    fn priority_ordering() {
        assert!(Priority::SYSTEM < Priority::MIGRATION);
        assert!(Priority::MIGRATION < Priority::LOCAL);
        assert!(Priority::LOCAL < Priority::GUEST);
    }

    #[test]
    fn state_transitions_queryable() {
        let pid = ProcessId::new(LogicalHostId(1), 16);
        let mut p = Process::new(pid, SpaceId(0), Priority::LOCAL);
        assert!(p.is_alive());
        p.state = ProcessState::Dead;
        assert!(!p.is_alive());
    }

    #[test]
    fn embryo_awaits_creator() {
        let pid = ProcessId::new(LogicalHostId(1), 16);
        let p = Process::new_embryo(pid, SpaceId(0), Priority::GUEST);
        assert_eq!(p.state, ProcessState::Embryo);
        assert!(p.is_alive());
    }
}
