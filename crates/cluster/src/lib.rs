//! `vcluster` — the whole-cluster simulation runtime.
//!
//! Wires the substrates together into the paper's world: a 10 Mbit
//! Ethernet, a diskless file-server machine, N workstations each running a
//! V kernel, program manager, display server, shell and migration engine,
//! plus the workload programs and owner-activity models. The [`Cluster`]
//! owns the single event loop; everything else stays a sans-IO state
//! machine.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

mod audit;
mod runtime;

pub use audit::{AuditReport, AuditViolation};
pub use runtime::{
    Cluster, ClusterConfig, ClusterStats, Command, Event, ProgramRuntime, SvcKind, Workstation,
};
pub use vsim::{FaultEvent, FaultKind, FaultPlan, FaultTrigger};
