//! `vkernel` — a model of the V distributed kernel.
//!
//! "The V-system consists of a distributed kernel and a distributed
//! collection of server processes" (§2.1). This crate models the kernel
//! half: processes grouped into logical hosts, network-transparent
//! synchronous IPC with retransmission and reply-pending packets, process
//! groups (global and per-logical-host local groups), the logical-host
//! binding cache, freeze/unfreeze with deferred operations, and bulk
//! CopyTo transfers — everything §3 of the paper builds migration out of.
//!
//! The kernel is a sans-IO state machine ([`Kernel`]); a production event
//! loop lives in `vcluster` and a small test rig in [`testkit`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod binding;
mod ids;
mod kernel;
mod logical_host;
mod packet;
mod process;
pub mod testkit;
mod transfer;

pub use binding::{BindingCache, BindingStats};
pub use ids::{
    Destination, GroupId, LogicalHostId, ProcessId, FIRST_USER_INDEX, GLOBAL_GROUP_LH,
    KERNEL_SERVER_INDEX, PROGRAM_MANAGER_INDEX,
};
pub use kernel::{
    Kernel, KernelConfig, KernelOutput, KernelStats, MigrationRecord, MsgIn, OutstandingDesc,
    ReplyIn, SendError, TimerKey,
};
pub use logical_host::{DeferredRequest, LhDescriptor, LogicalHost, ProcessDesc};
pub use packet::{Packet, SendSeq, XferId, CONTROL_PACKET_BYTES, MESSAGE_PACKET_BYTES};
pub use process::{Priority, Process, ProcessState};
pub use transfer::{split_units, OutXfer, UnitSpec, XFER_UNIT_BYTES};
