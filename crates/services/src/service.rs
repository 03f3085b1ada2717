//! Common plumbing for server processes.
//!
//! Services, like the kernel, are sans-IO state machines. Their handlers
//! receive a mutable reference to the co-resident kernel (they run on the
//! same workstation and use its primitives directly, as the paper's
//! program manager "uses the kernel server to set up the address space").
//!
//! Every layer below the station hands back what a call caused the same
//! way: the call appends to a list its caller owns. A kernel primitive
//! appends [`KernelOutput`]s to a `&mut Vec`; a service handler, the
//! migration engine and the remote executor append to one
//! [`SvcOutputs`]: kernel actions to execute, service timers to arm and
//! events the station reacts to. The station applies a component's
//! timers first, then its events (each followed up in turn), then its
//! kernel actions.

use vkernel::{KernelOutput, LogicalHostId, ProcessId, SendSeq};
use vsim::SimDuration;

use crate::msg::ServiceMsg;

/// A service-level timer token (meaning is private to each service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SvcToken(pub u64);

/// What a component below the station asked for, appended in call order.
/// `E` is the component's event type: [`SvcEvent`] for the services, the
/// migration engine's and the executor's own for theirs.
#[derive(Debug)]
pub struct SvcOutputs<E = SvcEvent> {
    /// Kernel actions (transmissions, timers, deliveries...).
    pub kernel: Vec<KernelOutput<ServiceMsg>>,
    /// Service timers to arm: the station calls the service's
    /// `handle_timer` with the token after the delay. The migration
    /// engine and the executor arm none.
    pub timers: Vec<(SvcToken, SimDuration)>,
    /// Events for the station.
    pub events: Vec<E>,
}

impl<E> Default for SvcOutputs<E> {
    fn default() -> Self {
        SvcOutputs {
            kernel: Vec::new(),
            timers: Vec::new(),
            events: Vec::new(),
        }
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
