//! `vcluster` — the whole-cluster simulation runtime.
//!
//! Wires the substrates together into the paper's world: a 10 Mbit
//! Ethernet, a diskless file-server machine, N workstations each running a
//! V kernel, program manager, display server, shell and migration engine,
//! plus the workload programs and owner-activity models. Each machine is
//! a sans-IO [`Station`]; the [`Cluster`] owns the single event loop and
//! routes every event to its station.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

mod audit;
mod runtime;
pub mod station;

pub use audit::{AuditReport, AuditViolation};
pub use runtime::{Cluster, ClusterConfig, ClusterStats, Command, Event};
pub use station::{ProgramRuntime, Station, SvcKind};
pub use vsim::{FaultEvent, FaultKind, FaultPlan, FaultTrigger};
