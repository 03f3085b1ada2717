//! Cluster-wide invariant auditing.
//!
//! Fault injection is only as convincing as the checks run afterwards.
//! [`Cluster::audit`] sweeps every station and verifies the global
//! invariants the paper's recovery arguments rest on: programs are
//! conserved (none lost, none duplicated), temporary logical hosts left
//! by half-done migrations are reclaimed by the watchdogs, no frozen
//! logical host outlives its migration, kernel transaction tables drain,
//! and binding caches never name non-existent stations. Violations are
//! typed ([`AuditViolation`]), traced as `TraceEvent::AuditViolation`,
//! and counted in the cluster metrics.
//!
//! Checkpoint audits (`final_check: false`) run only the checks that hold
//! at any event boundary; end-of-run audits additionally assert the
//! quiescence invariants (drained tables, no leftovers), which only hold
//! once the event queue has emptied.

use std::collections::BTreeSet;

use vcore::PAGING_LH;
use vkernel::LogicalHostId;
use vnet::HostAddr;
use vservices::TEMP_LH_FLOOR;
use vsim::SimTime;

use crate::runtime::Cluster;

/// One invariant violation found by the cluster auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A program known to a program manager or behaviour table is
    /// resident on no station (crashed stations excluded: their state
    /// comes back with the power).
    ProgramLost {
        /// The missing program's logical host.
        lh: LogicalHostId,
    },
    /// A logical host is resident on more than one station with no active
    /// migration to explain the second copy.
    ProgramDuplicated {
        /// The duplicated logical host.
        lh: LogicalHostId,
    },
    /// A temporary migration logical host survived on an up station with
    /// no active migration owning it — the reclaim watchdog failed.
    OrphanTempLh {
        /// Station index holding the orphan.
        ws: usize,
        /// The orphaned temporary logical host.
        lh: LogicalHostId,
    },
    /// A frozen logical host outlived its migration (and is not a
    /// deliberate suspension).
    FrozenWithoutMigration {
        /// Station index holding the zombie.
        ws: usize,
        /// The frozen logical host.
        lh: LogicalHostId,
    },
    /// A kernel's transaction tables failed to drain at end of run:
    /// outstanding Sends or bulk transfers with nothing left to complete
    /// them.
    UndrainedTransactions {
        /// Station index.
        ws: usize,
        /// Leftover outstanding Sends plus active bulk transfers.
        count: usize,
    },
    /// A binding-cache entry names a station that does not exist.
    StaleBinding {
        /// Station index holding the entry.
        ws: usize,
        /// The cached logical host.
        lh: LogicalHostId,
        /// The bogus physical address.
        host: HostAddr,
    },
    /// A logical host is *running* (resident and unfrozen) on more than
    /// one up station at once. Unlike [`AuditViolation::ProgramDuplicated`]
    /// this has no mid-migration exemption: a correct handoff keeps the
    /// second copy frozen until the first is gone.
    DuplicateLiveCopy {
        /// The doubly-live logical host.
        lh: LogicalHostId,
    },
    /// A held lease ran out more than the grace period ago but the
    /// program is still alive on the holder — orphan extermination
    /// failed or was disabled.
    LeaseExpiredButAlive {
        /// Station index still hosting the orphan.
        ws: usize,
        /// The overdue program.
        lh: LogicalHostId,
    },
    /// A remote-origin program is alive on an up station with no lease
    /// backing it at all — an orphan that escaped the lease machinery
    /// entirely, past any grace window.
    OrphanPastGrace {
        /// Station index hosting the unleased program.
        ws: usize,
        /// The unleased program.
        lh: LogicalHostId,
    },
}

impl AuditViolation {
    /// A short static label for traces and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditViolation::ProgramLost { .. } => "program-lost",
            AuditViolation::ProgramDuplicated { .. } => "program-duplicated",
            AuditViolation::OrphanTempLh { .. } => "orphan-temp-lh",
            AuditViolation::FrozenWithoutMigration { .. } => "frozen-without-migration",
            AuditViolation::UndrainedTransactions { .. } => "undrained-transactions",
            AuditViolation::StaleBinding { .. } => "stale-binding",
            AuditViolation::DuplicateLiveCopy { .. } => "duplicate-live-copy",
            AuditViolation::LeaseExpiredButAlive { .. } => "lease-expired-but-alive",
            AuditViolation::OrphanPastGrace { .. } => "orphan-past-grace",
        }
    }

    /// The logical host involved, where one is.
    pub fn lh(&self) -> Option<LogicalHostId> {
        match self {
            AuditViolation::ProgramLost { lh }
            | AuditViolation::ProgramDuplicated { lh }
            | AuditViolation::OrphanTempLh { lh, .. }
            | AuditViolation::FrozenWithoutMigration { lh, .. }
            | AuditViolation::StaleBinding { lh, .. }
            | AuditViolation::DuplicateLiveCopy { lh }
            | AuditViolation::LeaseExpiredButAlive { lh, .. }
            | AuditViolation::OrphanPastGrace { lh, .. } => Some(*lh),
            AuditViolation::UndrainedTransactions { .. } => None,
        }
    }
}

impl core::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditViolation::ProgramLost { lh } => {
                write!(f, "program lh{} resident nowhere", lh.0)
            }
            AuditViolation::ProgramDuplicated { lh } => {
                write!(f, "program lh{} resident more than once", lh.0)
            }
            AuditViolation::OrphanTempLh { ws, lh } => {
                write!(f, "orphan temp lh{} on station {ws}", lh.0)
            }
            AuditViolation::FrozenWithoutMigration { ws, lh } => {
                write!(f, "lh{} frozen on station {ws} with no migration", lh.0)
            }
            AuditViolation::UndrainedTransactions { ws, count } => {
                write!(f, "{count} undrained transactions on station {ws}")
            }
            AuditViolation::StaleBinding { ws, lh, host } => {
                write!(
                    f,
                    "station {ws} caches lh{} -> invalid host{}",
                    lh.0, host.0
                )
            }
            AuditViolation::DuplicateLiveCopy { lh } => {
                write!(
                    f,
                    "program lh{} running live on more than one station",
                    lh.0
                )
            }
            AuditViolation::LeaseExpiredButAlive { ws, lh } => {
                write!(f, "lh{} on station {ws} outlived its expired lease", lh.0)
            }
            AuditViolation::OrphanPastGrace { ws, lh } => {
                write!(f, "remote-origin lh{} on station {ws} holds no lease", lh.0)
            }
        }
    }
}

/// The result of one audit pass.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// When the audit ran.
    pub at: SimTime,
    /// Everything found, in detection order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl core::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            write!(f, "audit@{}: clean", self.at)
        } else {
            write!(
                f,
                "audit@{}: {} violation(s)",
                self.at,
                self.violations.len()
            )?;
            for v in &self.violations {
                write!(f, "\n  - {v}")?;
            }
            Ok(())
        }
    }
}

impl Cluster {
    /// Sweeps the whole cluster for invariant violations.
    ///
    /// `final_check` additionally runs the quiescence checks (orphaned
    /// temporaries, frozen zombies, undrained transaction tables) that
    /// only hold once the event queue has emptied. Violations are traced,
    /// counted, and appended to [`Cluster::audit_reports`].
    pub fn audit(&mut self, final_check: bool) -> AuditReport {
        let now = self.engine.now();
        let mut violations = Vec::new();

        // Migrations in flight on up stations: their source logical hosts
        // legitimately exist twice (source + renamed target), and their
        // temporaries are legitimate residents.
        let mut active_lhs: BTreeSet<LogicalHostId> = BTreeSet::new();
        let mut active_temps: BTreeSet<LogicalHostId> = BTreeSet::new();
        for w in self.stations.iter().filter(|w| !w.down) {
            for (lh, temp) in w.migrator.active_jobs() {
                active_lhs.insert(lh);
                active_temps.insert(temp);
            }
        }

        // Conservation: every program any up-station manager or behaviour
        // table knows must be resident somewhere, and at most once unless
        // a migration is mid-copy.
        let mut known: BTreeSet<LogicalHostId> = BTreeSet::new();
        for w in self.stations.iter().filter(|w| !w.down) {
            known.extend(w.pm.programs().keys().copied());
            known.extend(w.programs.keys().copied());
        }
        for &lh in &known {
            let up_copies = self
                .stations
                .iter()
                .filter(|w| !w.down && w.kernel.is_resident(lh))
                .count();
            let down_copy = self
                .stations
                .iter()
                .any(|w| w.down && w.kernel.is_resident(lh));
            if up_copies == 0 && !down_copy {
                violations.push(AuditViolation::ProgramLost { lh });
            }
            let copies = up_copies + usize::from(down_copy);
            if copies > 1 && !(active_lhs.contains(&lh) && copies == 2) {
                violations.push(AuditViolation::ProgramDuplicated { lh });
            }
            // A correct handoff never lets two *unfrozen* copies coexist,
            // even mid-migration: the target stays frozen until the source
            // copy is deleted.
            let live_copies = self
                .stations
                .iter()
                .filter(|w| {
                    !w.down
                        && w.kernel.is_resident(lh)
                        && !w
                            .kernel
                            .logical_host(lh)
                            .map(|l| l.is_frozen())
                            .unwrap_or(false)
                })
                .count();
            if live_copies > 1 {
                violations.push(AuditViolation::DuplicateLiveCopy { lh });
            }
        }

        if final_check {
            for (i, w) in self.stations.iter().enumerate().filter(|(_, w)| !w.down) {
                for lh in w.kernel.resident_lhs() {
                    if lh.0 >= TEMP_LH_FLOOR && !active_temps.contains(&lh) {
                        violations.push(AuditViolation::OrphanTempLh { ws: i, lh });
                        continue;
                    }
                    let frozen = w
                        .kernel
                        .logical_host(lh)
                        .map(|l| l.is_frozen())
                        .unwrap_or(false);
                    // Only program logical hosts can be migration zombies:
                    // system hosts are 1 + station index, the paging store
                    // is fixed, and temporaries were handled above.
                    if frozen
                        && lh.0 < TEMP_LH_FLOOR
                        && lh != PAGING_LH
                        && lh.0 >= 10_000
                        && !active_lhs.contains(&lh)
                        && !w.pm.is_suspended(lh)
                    {
                        violations.push(AuditViolation::FrozenWithoutMigration { ws: i, lh });
                    }
                }
                let undrained = w.kernel.outstanding_count() + w.kernel.active_transfers();
                if undrained > 0 {
                    violations.push(AuditViolation::UndrainedTransactions {
                        ws: i,
                        count: undrained,
                    });
                }
                // Lease liveness: at quiescence no program may outlive an
                // expired lease, and every remote-origin program must hold
                // one (the machinery that would exterminate it otherwise).
                for lh in w.pm.expired_leases(now) {
                    if w.kernel.is_resident(lh) {
                        violations.push(AuditViolation::LeaseExpiredButAlive { ws: i, lh });
                    }
                }
                let held: BTreeSet<LogicalHostId> =
                    w.pm.held_leases().into_iter().map(|(lh, _)| lh).collect();
                for (&lh, info) in w.pm.programs() {
                    if info.origin.is_some_and(|o| o != w.host)
                        && !held.contains(&lh)
                        && w.kernel.is_resident(lh)
                    {
                        violations.push(AuditViolation::OrphanPastGrace { ws: i, lh });
                    }
                }
            }
        }

        // Binding caches must never name stations that do not exist;
        // entries pointing at the wrong (valid) station are legal — the
        // rebind protocol corrects them on the next Send.
        let station_count = self.stations.len();
        for (i, w) in self.stations.iter().enumerate().filter(|(_, w)| !w.down) {
            for (lh, host) in w.kernel.binding_cache().entries() {
                if host.0 as usize >= station_count {
                    violations.push(AuditViolation::StaleBinding { ws: i, lh, host });
                }
            }
        }

        for v in &violations {
            self.note_violation(v);
        }
        let report = AuditReport {
            at: now,
            violations,
        };
        self.audit_reports.push(report.clone());
        report
    }
}
