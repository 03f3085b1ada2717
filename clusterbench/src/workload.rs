//! The four workloads: cluster configuration plus a seeded, open-loop
//! schedule of commands in simulated time.
//!
//! Every input is built through the public `vworkload` profile
//! constructors and handed to the cluster only through [`Cluster::at`].
//! The seed fixes the whole schedule; there is no host-time rate, because
//! the simulator runs as fast as it can and the benchmark measures host
//! time for a fixed simulated span.

use vcluster::{ClusterConfig, Command};
use vcore::ExecTarget;
use vkernel::Priority;
use vsim::{DetRng, FaultPlan, SamplingSpec, SimDuration, SimTime, TraceLevel, TraceSinkSpec};
use vworkload::{profiles, ProgramProfile, UserModelParams};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 owned workstations, Poisson `@*` jobs, owner reclaim.
    Campus64,
    /// The same mix at 1 024 workstations: `@*` fan-out dominates.
    Campus1024,
    /// 8 workstations of long dirty guests under repeated `migrateprog`.
    MigrateChurn8,
    /// 8 workstations under a random fault plan and owner churn, with
    /// telemetry, periodic audit and a ring trace, drained to quiescence.
    ChaosObserved8,
}

/// Mean gap between `@*` jobs issued from one campus workstation.
const CAMPUS_JOB_GAP: SimDuration = SimDuration::from_secs(10 * 60);
/// No campus job is issued this close to the end of the span, so every
/// exec request has its report before the run stops.
const CAMPUS_TAIL: SimDuration = SimDuration::from_secs(60);

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Campus64,
        Workload::Campus1024,
        Workload::MigrateChurn8,
        Workload::ChaosObserved8,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campus64 => "campus_64",
            Workload::Campus1024 => "campus_1024",
            Workload::MigrateChurn8 => "migrate_churn_8",
            Workload::ChaosObserved8 => "chaos_observed_8",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of user workstations (the file-server machine is extra).
    pub fn workstations(self) -> usize {
        match self {
            Workload::Campus64 => 64,
            Workload::Campus1024 => 1024,
            Workload::MigrateChurn8 | Workload::ChaosObserved8 => 8,
        }
    }

    /// Simulated span of one full-size repetition. The chaos workload
    /// issues its work within this span and then drains to quiescence.
    pub fn span(self) -> SimDuration {
        match self {
            Workload::Campus64 => SimDuration::from_secs(2 * 3600),
            Workload::Campus1024 => SimDuration::from_secs(5 * 60),
            Workload::MigrateChurn8 => SimDuration::from_secs(3600),
            Workload::ChaosObserved8 => SimDuration::from_secs(10 * 60),
        }
    }

    /// True when the run continues past the span until the queue empties.
    pub fn drains(self) -> bool {
        self == Workload::ChaosObserved8
    }

    /// The cluster configuration; only existing `ClusterConfig` fields.
    pub fn config(self, seed: u64, span: SimDuration) -> ClusterConfig {
        let quiet = ClusterConfig {
            workstations: self.workstations(),
            seed,
            trace: TraceLevel::Warn,
            trace_sink: TraceSinkSpec::Off,
            ..ClusterConfig::default()
        };
        match self {
            Workload::Campus64 | Workload::Campus1024 => ClusterConfig {
                users: Some(UserModelParams::peak_hours()),
                evict_on_owner_return: true,
                ..quiet
            },
            Workload::MigrateChurn8 => quiet,
            Workload::ChaosObserved8 => {
                let stations = u16::try_from(self.workstations() + 1).expect("8 + 1 stations");
                ClusterConfig {
                    users: Some(UserModelParams {
                        mean_active: SimDuration::from_secs(60),
                        mean_idle: SimDuration::from_secs(120),
                        initially_active: 0.0,
                    }),
                    evict_on_owner_return: true,
                    faults: FaultPlan::by_name("random", seed, stations, span)
                        .expect("`random` is a named fault plan"),
                    audit_every: Some(SimDuration::from_secs(1)),
                    sampling: Some(SamplingSpec::default()),
                    trace: TraceLevel::Info,
                    trace_sink: TraceSinkSpec::Ring(4096),
                    ..quiet
                }
            }
        }
    }

    /// The seeded command schedule for a span. All `vworkload` profile
    /// construction happens here, so timing this call times that layer.
    pub fn schedule(self, seed: u64, span: SimDuration) -> Vec<(SimTime, Command)> {
        // Decorrelate the schedule from the cluster's own RNG stream.
        let mut rng = DetRng::seed(seed ^ 0x005E_ED0F_C1A5_7E55);
        match self {
            Workload::Campus64 | Workload::Campus1024 => {
                campus(self.workstations(), span, &mut rng)
            }
            Workload::MigrateChurn8 => churn(self.workstations(), span, &mut rng),
            Workload::ChaosObserved8 => chaos(span),
        }
    }
}

/// Poisson `@*` jobs: a fixed count (one per workstation per
/// [`CAMPUS_JOB_GAP`]) at uniform times, which is a Poisson process
/// conditioned on its count, so every seed does the same amount of work.
/// The mix cycles through Table 4-1, half steady and half realistic.
fn campus(ws: usize, span: SimDuration, rng: &mut DetRng) -> Vec<(SimTime, Command)> {
    let window = span.saturating_sub(CAMPUS_TAIL).as_micros().max(1);
    let jobs = (ws as u64 * span.as_micros() / CAMPUS_JOB_GAP.as_micros()).max(1) as usize;
    let mut times: Vec<u64> = (0..jobs).map(|_| rng.range_u64(0, window)).collect();
    times.sort_unstable();
    let mut kinds: Vec<usize> = (0..jobs).collect();
    rng.shuffle(&mut kinds);
    let rows = profiles::TABLE_4_1.len();
    times
        .into_iter()
        .zip(kinds)
        .map(|(t, k)| {
            let row = &profiles::TABLE_4_1[k % rows];
            let profile = if (k / rows).is_multiple_of(2) {
                profiles::steady_profile(row)
            } else {
                profiles::realistic_profile(row)
            };
            (SimTime::from_micros(t), exec(1 + rng.index(ws), profile))
        })
        .collect()
}

/// Long, dirty-heavy guests (alternately `simulate` and a long `tex`), one
/// launched from each of the first `guests` workstations, then
/// `migrateprog` against a random workstation every 2–6 simulated seconds.
fn churn(ws: usize, span: SimDuration, rng: &mut DetRng) -> Vec<(SimTime, Command)> {
    let mut plan = long_guests(ws - 2, span * 2);
    let end = span.saturating_sub(SimDuration::from_secs(30));
    let mut t = SimTime::ZERO + SimDuration::from_secs(20);
    while t < SimTime::ZERO + end {
        plan.push((t, migrate(1 + rng.index(ws))));
        t += SimDuration::from_micros(rng.range_u64(2_000_000, 6_000_000));
    }
    plan
}

/// Finite guests with small images, launched before the fault plan's
/// first timed fault (at 1 s or later), so every exec request has its
/// report before anything breaks. Owners come and go every few minutes
/// and evict guests, so migrations run under the plan's phase-triggered
/// faults without being requested operations that may fail.
fn chaos(span: SimDuration) -> Vec<(SimTime, Command)> {
    ["make", "cc68", "preprocessor", "assembler"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let row = profiles::row(name).expect("Table 4-1 row");
            let profile = ProgramProfile::steady(
                row.name,
                profiles::layout_for(row.name),
                row.fit(),
                span / 2,
            );
            let at = SimTime::ZERO + SimDuration::from_millis(100 * i as u64);
            (at, exec(1 + 2 * i, profile))
        })
        .collect()
}

/// `guests` long programs launched `@*` from workstations 1..=guests.
fn long_guests(guests: usize, cpu: SimDuration) -> Vec<(SimTime, Command)> {
    let tex = profiles::row("tex").expect("Table 4-1 has tex");
    (1..=guests)
        .map(|w| {
            let profile = if w % 2 == 1 {
                profiles::simulation_profile(cpu)
            } else {
                ProgramProfile::steady(tex.name, profiles::layout_for(tex.name), tex.fit(), cpu)
            };
            let at = SimTime::ZERO + SimDuration::from_millis(250 * w as u64);
            (at, exec(w, profile))
        })
        .collect()
}

fn exec(ws: usize, profile: ProgramProfile) -> Command {
    Command::Exec {
        ws,
        profile,
        target: ExecTarget::AnyIdle,
        priority: Priority::GUEST,
    }
}

fn migrate(ws: usize) -> Command {
    Command::Migrate {
        ws,
        lh: None,
        destroy_if_stuck: false,
    }
}
