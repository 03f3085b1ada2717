//! Fluent scenario scripting.
//!
//! [`Cluster::at`] takes a raw [`Command`]; this module layers a builder
//! on top so experiment scripts read like the shell sessions they model:
//!
//! ```
//! use vcluster::{Cluster, ClusterConfig};
//! use vcore::ExecTarget;
//! use vsim::SimDuration;
//! use vworkload::profiles;
//!
//! let mut c = Cluster::new(ClusterConfig::default());
//! let row = profiles::row("make").expect("row");
//! c.script()
//!     .at_ms(500)
//!     .exec(1)
//!     .profile(profiles::steady_profile(row))
//!     .target(ExecTarget::AnyIdle)
//!     .guest()
//!     .at_ms(2_000)
//!     .crash(2);
//! c.run_for(SimDuration::from_secs(3));
//! ```
//!
//! Every step ultimately schedules a plain [`Command`], so scripted and
//! hand-scheduled scenarios stay interchangeable.

use vcore::ExecTarget;
use vkernel::{LogicalHostId, Priority};
use vsim::SimTime;
use vworkload::ProgramProfile;

use crate::runtime::{Cluster, Command};

/// Entry point of the fluent scripting API; see the module docs.
///
/// The builder carries a cursor time (initially the cluster's current
/// time) that [`ScenarioBuilder::at_ms`]/[`ScenarioBuilder::after_ms`]
/// move; each terminal step schedules one [`Command`] at the cursor.
pub struct ScenarioBuilder<'a> {
    cluster: &'a mut Cluster,
    at: SimTime,
}

impl Cluster {
    /// Starts a scripted scenario; commands default to "now".
    pub fn script(&mut self) -> ScenarioBuilder<'_> {
        let at = self.now();
        ScenarioBuilder { cluster: self, at }
    }
}

impl<'a> ScenarioBuilder<'a> {
    /// Moves the cursor to an absolute time in milliseconds.
    pub fn at_ms(mut self, ms: u64) -> Self {
        self.at = SimTime::from_micros(ms * 1_000);
        self
    }

    /// Moves the cursor to an absolute [`SimTime`].
    pub fn at(mut self, t: SimTime) -> Self {
        self.at = t;
        self
    }

    /// Advances the cursor by `ms` milliseconds.
    pub fn after_ms(mut self, ms: u64) -> Self {
        self.at = SimTime::from_micros(self.at.as_micros() + ms * 1_000);
        self
    }

    /// Begins an `exec` step from workstation `ws`'s shell; finish it
    /// with [`ExecStep::guest`] or [`ExecStep::local`].
    pub fn exec(self, ws: usize) -> ExecStep<'a> {
        ExecStep {
            b: self,
            ws,
            profile: None,
            target: ExecTarget::AnyIdle,
        }
    }

    /// Begins a `migrateprog` step on workstation `ws`; finish it with
    /// [`MigrateStep::go`].
    pub fn migrate(self, ws: usize) -> MigrateStep<'a> {
        MigrateStep {
            b: self,
            ws,
            lh: None,
            destroy_if_stuck: false,
        }
    }

    /// Schedules a crash of station `ws` at the cursor.
    pub fn crash(self, ws: usize) -> Self {
        self.push(Command::Crash { ws })
    }

    /// Schedules a reboot of station `ws` at the cursor.
    pub fn reboot(self, ws: usize) -> Self {
        self.push(Command::Reboot { ws })
    }

    /// Schedules an owner-activity change at the cursor.
    pub fn owner_active(self, ws: usize, active: bool) -> Self {
        self.push(Command::SetOwnerActive { ws, active })
    }

    fn push(self, cmd: Command) -> Self {
        let t = self.at;
        self.cluster.at(t, cmd);
        self
    }
}

/// An `exec` step under construction.
pub struct ExecStep<'a> {
    b: ScenarioBuilder<'a>,
    ws: usize,
    profile: Option<ProgramProfile>,
    target: ExecTarget,
}

impl<'a> ExecStep<'a> {
    /// Sets the program to run (required).
    pub fn profile(mut self, p: ProgramProfile) -> Self {
        self.profile = Some(p);
        self
    }

    /// Sets the `@`-target (default [`ExecTarget::AnyIdle`]).
    pub fn target(mut self, t: ExecTarget) -> Self {
        self.target = t;
        self
    }

    /// Shorthand for targeting a named host (`@ name`).
    pub fn on(mut self, name: &str) -> Self {
        self.target = ExecTarget::Named(name.to_string());
        self
    }

    /// Schedules the exec at guest priority and returns the builder.
    ///
    /// # Panics
    ///
    /// Panics if no profile was given.
    pub fn guest(self) -> ScenarioBuilder<'a> {
        self.commit(Priority::GUEST)
    }

    /// Schedules the exec at local priority and returns the builder.
    ///
    /// # Panics
    ///
    /// Panics if no profile was given.
    pub fn local(self) -> ScenarioBuilder<'a> {
        self.commit(Priority::LOCAL)
    }

    #[allow(clippy::expect_used)]
    fn commit(self, priority: Priority) -> ScenarioBuilder<'a> {
        let profile = self.profile.expect("exec step needs .profile(...)");
        let (ws, target) = (self.ws, self.target);
        self.b.push(Command::Exec {
            ws,
            profile,
            target,
            priority,
        })
    }
}

/// A `migrateprog` step under construction.
pub struct MigrateStep<'a> {
    b: ScenarioBuilder<'a>,
    ws: usize,
    lh: Option<LogicalHostId>,
    destroy_if_stuck: bool,
}

impl<'a> MigrateStep<'a> {
    /// Names the program to migrate (default: first guest program).
    pub fn lh(mut self, lh: LogicalHostId) -> Self {
        self.lh = Some(lh);
        self
    }

    /// Sets the `-n` flag: destroy the program if no host accepts it.
    pub fn destroy_if_stuck(mut self) -> Self {
        self.destroy_if_stuck = true;
        self
    }

    /// Schedules the migration and returns the builder.
    pub fn go(self) -> ScenarioBuilder<'a> {
        let (ws, lh, destroy_if_stuck) = (self.ws, self.lh, self.destroy_if_stuck);
        self.b.push(Command::Migrate {
            ws,
            lh,
            destroy_if_stuck,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{Cluster, ClusterConfig};
    use vcore::ExecTarget;
    use vkernel::Priority;
    use vsim::SimDuration;
    use vworkload::profiles;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig {
            workstations: 3,
            loss: vnet::LossModel::None,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn scripted_exec_matches_direct_command() {
        let row = profiles::row("make").expect("row");
        let mut scripted = cluster();
        scripted
            .script()
            .at_ms(500)
            .exec(1)
            .profile(profiles::steady_profile(row))
            .target(ExecTarget::AnyIdle)
            .guest();
        scripted.run_for(SimDuration::from_secs(10));

        let mut direct = cluster();
        direct.at(
            vsim::SimTime::from_micros(500_000),
            crate::runtime::Command::Exec {
                ws: 1,
                profile: profiles::steady_profile(row),
                target: ExecTarget::AnyIdle,
                priority: Priority::GUEST,
            },
        );
        direct.run_for(SimDuration::from_secs(10));

        assert_eq!(scripted.exec_reports.len(), 1);
        assert_eq!(direct.exec_reports.len(), 1);
        assert_eq!(
            scripted.exec_reports[0].chosen_host,
            direct.exec_reports[0].chosen_host
        );
    }

    #[test]
    fn cursor_advances_relatively() {
        let mut c = cluster();
        c.script().at_ms(1_000).crash(2).after_ms(500).reboot(2);
        c.run_for(SimDuration::from_secs(2));
        // The station came back: it accepts frames again.
        assert!(!c.stations[2].down);
    }

    #[test]
    fn scripted_migrate_runs() {
        let mut c = cluster();
        c.script()
            .exec(1)
            .profile(profiles::simulation_profile(SimDuration::from_secs(3600)))
            .on("ws2")
            .guest()
            .at_ms(5_000)
            .migrate(2)
            .go();
        c.run_for(SimDuration::from_secs(30));
        assert_eq!(c.migration_reports.len(), 1);
    }
}
