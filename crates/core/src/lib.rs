//! `vcore` — preemptable remote execution and migration: the paper's
//! contribution.
//!
//! * [`RemoteExecutor`] — `program @ machine` / `program @ *` (§2): the
//!   decentralized first-responder host selection, remote program
//!   creation, and start-up, with the §4.1 timing breakdown.
//! * [`Migrator`] — `migrateprog` (§3): the five-step pre-copy migration,
//!   plus the freeze-and-copy strawman and the §3.2 virtual-memory flush
//!   variant. (The §5 Demos/MP forwarding-address comparison is the
//!   kernel's `delete_logical_host_with_forwarding`.)
//! * [`residual`] — the §3.3 residual-dependency auditor.
//!
//! All engines are sans-IO state machines; `vcluster` wires them to
//! kernels, services and the simulated Ethernet.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod migration;
mod remote_exec;
mod report;
pub mod residual;

pub use migration::{
    MigEvent, MigOutputs, MigrationConfig, Migrator, ProgramMeta, ReplyTo, StopPolicy, Strategy,
    PAGING_LH, PAGING_SPACE,
};
pub use remote_exec::{ExecEvent, ExecOutputs, RemoteExecutor};
pub use report::{
    ExecReport, ExecTarget, IterStat, MigFailure, MigrationReport, ResidualDependency,
};
