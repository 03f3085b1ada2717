//! Measurement records produced by the remote-execution and migration
//! engines; the experiment harness serializes these into the paper's
//! tables.

use vkernel::{LogicalHostId, ProcessId};
use vnet::HostAddr;
use vsim::SimDuration;

/// How a program's execution host was chosen (`@ machine`, `@ *`, local).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecTarget {
    /// Run on the requesting workstation.
    Local,
    /// `program @ machine-name`.
    Named(String),
    /// `program @ *` — "a random idle machine on the network".
    AnyIdle,
}

/// Timing breakdown of one remote execution (experiment E2).
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Image executed.
    pub image: String,
    /// Chosen physical host, if any.
    pub chosen_host: Option<HostAddr>,
    /// Chosen host's name.
    pub chosen_name: Option<String>,
    /// Root process of the created program.
    pub root: Option<ProcessId>,
    /// Its logical host.
    pub lh: Option<LogicalHostId>,
    /// Time to the first response of the candidate-host query (the
    /// paper's 23 ms).
    pub selection_time: SimDuration,
    /// Time for program creation: environment setup + image load (the
    /// paper's 40 ms + 330 ms/100 KB).
    pub creation_time: SimDuration,
    /// Time to start the embryonic process.
    pub start_time: SimDuration,
    /// End-to-end.
    pub total_time: SimDuration,
    /// Whether the execution was set up successfully.
    pub success: bool,
}

/// One pre-copy (or flush) round.
#[derive(Debug, Clone, Copy)]
pub struct IterStat {
    /// Bytes copied this round.
    pub bytes: u64,
    /// Wall time of the round.
    pub duration: SimDuration,
}

/// Outcome of one migration (experiments E3–E5, E8, ablations).
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated logical host.
    pub lh: LogicalHostId,
    /// Its program image.
    pub image: String,
    /// Source workstation.
    pub from_host: HostAddr,
    /// Destination workstation (if one was found).
    pub to_host: Option<HostAddr>,
    /// Strategy used.
    pub strategy: &'static str,
    /// Unfrozen copy rounds, in order (empty for freeze-and-copy).
    pub iterations: Vec<IterStat>,
    /// Bytes copied while the logical host was frozen (the paper's
    /// 0.5–70 KB residual).
    pub residual_bytes: u64,
    /// Wall time the logical host spent frozen (paper: 5–210 ms plus the
    /// kernel-state copy for pre-copy; seconds for freeze-and-copy).
    pub freeze_time: SimDuration,
    /// The modeled kernel/program-manager state-copy cost
    /// (14 ms + 9 ms per process and address space).
    pub kernel_state_cost: SimDuration,
    /// Start of migration to deletion of the old copy.
    pub total_time: SimDuration,
    /// Payload bytes moved over the network on the source→target (or
    /// source→file-server) path, including retransmissions.
    pub network_bytes: u64,
    /// Bytes the VM-flush variant moves twice (source→server, then
    /// server→new host on demand); zero for direct strategies.
    pub double_copied_bytes: u64,
    /// True if the program ended up running on the new host.
    pub success: bool,
    /// Why it failed, when it did.
    pub failure: Option<MigFailure>,
}

impl MigrationReport {
    /// Bytes copied before freezing.
    pub fn precopied_bytes(&self) -> u64 {
        self.iterations.iter().map(|i| i.bytes).sum()
    }
}

/// Why a migration did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigFailure {
    /// No workstation answered the candidate query.
    NoHostFound,
    /// The chosen target refused or died during initialization.
    TargetRefused,
    /// A copy failed (target crashed mid-transfer); the logical host was
    /// unfrozen in place.
    CopyFailed,
    /// The state install or unfreeze step failed.
    InstallFailed,
    /// The program was destroyed instead (`migrateprog -n`).
    Destroyed,
}

/// A residual dependency detected by the §3.3 auditor.
#[derive(Debug, Clone)]
pub struct ResidualDependency {
    /// The dependent process.
    pub pid: ProcessId,
    /// Where it currently runs.
    pub runs_on: Option<HostAddr>,
    /// The workstation it still depends on.
    pub depends_on: HostAddr,
    /// What the dependency is.
    pub resource: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precopied_bytes_sums_iterations() {
        let r = MigrationReport {
            lh: LogicalHostId(1),
            image: "tex".into(),
            from_host: HostAddr(0),
            to_host: Some(HostAddr(1)),
            strategy: "pre-copy",
            iterations: vec![
                IterStat {
                    bytes: 2_000_000,
                    duration: SimDuration::from_secs(6),
                },
                IterStat {
                    bytes: 100_000,
                    duration: SimDuration::from_millis(300),
                },
            ],
            residual_bytes: 10_000,
            freeze_time: SimDuration::from_millis(62),
            kernel_state_cost: SimDuration::from_millis(32),
            total_time: SimDuration::from_secs(7),
            network_bytes: 2_110_000,
            double_copied_bytes: 0,
            success: true,
            failure: None,
        };
        assert_eq!(r.precopied_bytes(), 2_100_000);
    }
}
