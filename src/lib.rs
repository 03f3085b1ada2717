//! # v-system — Preemptable Remote Execution Facilities for the V-System
//!
//! A full reproduction, as a deterministic discrete-event simulation, of
//! Theimer, Lantz & Cheriton, *"Preemptable Remote Execution Facilities
//! for the V-System"* (SOSP 1985): the `program @ *` remote-execution
//! facility, pre-copy migration of logical hosts with sub-second freeze
//! times, and residual-dependency-free rebinding.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`vsim`] | discrete-event engine, deterministic RNG, calibration constants |
//! | [`vnet`] | 10 Mbit Ethernet model (loss, broadcast, multicast) |
//! | [`vmem`] | address spaces, dirty pages, writable-working-set model |
//! | [`vkernel`] | the V distributed kernel: IPC, groups, binding cache, freeze |
//! | [`vservices`] | program manager, file server, display server |
//! | [`vworkload`] | the paper's programs (Table 4-1 fits) and user models |
//! | [`vcore`] | remote execution + migration: the paper's contribution |
//! | [`vcluster`] | the whole-cluster runtime |
//!
//! ## Quickstart
//!
//! ```
//! use v_system::prelude::*;
//!
//! let mut cluster = Cluster::new(ClusterConfig {
//!     workstations: 3,
//!     loss: LossModel::None,
//!     ..ClusterConfig::default()
//! });
//! let job = vworkload::profiles::simulation_profile(SimDuration::from_secs(30));
//! cluster.exec(1, job, ExecTarget::AnyIdle, Priority::GUEST);
//! cluster.run_for(SimDuration::from_secs(60));
//! assert!(cluster.exec_reports[0].success);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use vcluster;
pub use vcore;
pub use vkernel;
pub use vmem;
pub use vnet;
pub use vservices;
pub use vsim;
pub use vworkload;

/// The names most scenarios need.
pub mod prelude {
    pub use vcluster::{AuditReport, AuditViolation, Cluster, ClusterConfig, Command};
    pub use vcore::{ExecTarget, MigrationConfig, MigrationReport, StopPolicy, Strategy};
    pub use vkernel::{LogicalHostId, Priority, ProcessId};
    pub use vnet::{HostAddr, LossModel};
    pub use vsim::{
        fault_points, DetRng, Engine, FaultKind, FaultPlan, FaultPoint, FaultTrigger,
        MetricsReport, Party, ProtocolStep, SamplingSpec, SimDuration, SimTime, SpanContext,
        SpanId, SpanIdGen, SpanNode, SpanTree, SpanViolation, Subsystem, Trace, TraceEvent,
        TraceLevel, TraceSinkSpec, PARTY,
    };
    pub use vworkload::{profiles, Phase, ProgramProfile, UserModelParams};
}
