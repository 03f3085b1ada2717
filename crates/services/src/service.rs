//! Common plumbing for server processes.
//!
//! Services, like the kernel, are sans-IO state machines. Their handlers
//! receive a mutable reference to the co-resident kernel (they run on the
//! same workstation and use its primitives directly, as the paper's
//! program manager "uses the kernel server to set up the address space"),
//! and return [`SvcOutputs`]: kernel outputs to execute, service-level
//! timers to arm, and high-level events the cluster runtime reacts to.

use vkernel::{KernelOutput, LogicalHostId, ProcessId, SendSeq};
use vsim::SimDuration;

use crate::msg::ServiceMsg;

/// A service-level timer token (meaning is private to each service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SvcToken(pub u64);

/// What a service handler wants done.
#[derive(Debug, Default)]
pub struct SvcOutputs {
    /// Kernel actions (transmissions, timers, deliveries...).
    pub kernel: Vec<KernelOutput<ServiceMsg>>,
    /// Service timers to arm: the runtime calls the service's
    /// `handle_timer` with the token after the delay.
    pub timers: Vec<(SvcToken, SimDuration)>,
    /// High-level events for the cluster runtime.
    pub events: Vec<SvcEvent>,
}

impl SvcOutputs {
    /// An empty output set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs kernel outputs.
    pub fn kernel(mut self, outs: Vec<KernelOutput<ServiceMsg>>) -> Self {
        self.kernel.extend(outs);
        self
    }

    /// Arms a timer.
    pub fn timer(mut self, token: SvcToken, after: SimDuration) -> Self {
        self.timers.push((token, after));
        self
    }

    /// Emits an event.
    pub fn event(mut self, e: SvcEvent) -> Self {
        self.events.push(e);
        self
    }

    /// Merges another output set into this one.
    pub fn merge(&mut self, other: SvcOutputs) {
        self.kernel.extend(other.kernel);
        self.timers.extend(other.timers);
        self.events.extend(other.events);
    }
}

/// High-level events services report to the cluster runtime.
#[derive(Debug, Clone)]
pub enum SvcEvent {
    /// A program's initial process was started; the runtime attaches its
    /// behaviour model.
    ProgramStarted {
        /// Root process.
        root: ProcessId,
        /// Its logical host.
        lh: LogicalHostId,
        /// Image name.
        image: String,
    },
    /// A program (logical host) was destroyed.
    ProgramDestroyed {
        /// The destroyed logical host.
        lh: LogicalHostId,
    },
    /// A suspended program was resumed in place; the runtime re-queues it
    /// on the CPU.
    ProgramResumed {
        /// The resumed logical host.
        lh: LogicalHostId,
    },
    /// A migrated logical host was installed and unfrozen here; the
    /// runtime re-attaches the program's behaviour on this workstation.
    LogicalHostAdopted {
        /// The adopted logical host.
        lh: LogicalHostId,
    },
    /// `migrateprog` asked this program manager to evict a program; the
    /// migration engine takes over and must eventually reply to
    /// `(requester, seq)`.
    MigrateRequested {
        /// Logical host to evict.
        lh: LogicalHostId,
        /// Destroy it if no host accepts (`-n`).
        destroy_if_stuck: bool,
        /// Who asked.
        requester: ProcessId,
        /// Their transaction, to reply to when done.
        seq: SendSeq,
    },
    /// This program manager exterminated an orphan: a remote-origin
    /// program whose lease expired past grace (or was revoked by the
    /// origin). The program is already gone from the kernel.
    OrphanExterminated {
        /// The exterminated logical host.
        lh: LogicalHostId,
    },
    /// The origin's liveness probe found its leased program alive
    /// (possibly on a new host after a migration) and rebound the lease.
    LeaseRebound {
        /// The leased program.
        lh: LogicalHostId,
        /// The host it was found on.
        to: vnet::HostAddr,
    },
    /// The origin lost a remote host's heartbeats past the grace window
    /// and its liveness probe went unanswered: the program is presumed
    /// dead and should be executed again from its origin.
    ReExecNeeded {
        /// The lost program's logical host (the re-execution gets a fresh
        /// one).
        lh: LogicalHostId,
    },
    /// A lease-protocol fault point was crossed (used by the fault-matrix
    /// machinery to pin faults to protocol steps).
    LeasePoint {
        /// The program involved.
        lh: LogicalHostId,
        /// Which registered step was crossed.
        step: vsim::ProtocolStep,
        /// Which party crossed it.
        party: vsim::Party,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let out = SvcOutputs::new()
            .timer(SvcToken(1), SimDuration::from_millis(21))
            .event(SvcEvent::ProgramDestroyed {
                lh: LogicalHostId(5),
            });
        assert_eq!(out.kernel.len(), 0);
        assert_eq!(out.timers.len(), 1);
        assert_eq!(out.events.len(), 1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = SvcOutputs::new().timer(SvcToken(1), SimDuration::from_millis(1));
        let b = SvcOutputs::new().timer(SvcToken(2), SimDuration::from_millis(2));
        a.merge(b);
        assert_eq!(a.timers.len(), 2);
    }
}
