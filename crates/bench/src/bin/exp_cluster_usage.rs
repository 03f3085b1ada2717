//! E9 — §1/§4.3 usage observations.
//!
//! The paper: "we observe over one third of our workstations idle, even at
//! the busiest times of the day"; "most of our workstations are over 80%
//! idle even during the peak usage hours"; "almost all remote execution
//! requests are honored".
//!
//! Simulates a 25-machine cluster (the paper's size) with the peak-hours
//! owner model for several simulated hours, issuing `@ *` requests at
//! random moments, and reports idle fractions and the honor rate.
//!
//! The run also explains itself (P3): telemetry is on, so the artifact's
//! `series` section carries the cluster's time series for `vtrace
//! aggregate`/`export`, and an injected [`WallClock`] fills the `profile`
//! section with per-event-kind dispatch counts and wall time for `vtrace
//! top`. The `QuantumEnd` dispatch count is seed-deterministic and goes
//! into the table as `quantum_end_dispatches`.

use vbench::{emit_full, Extras, WallClock};
use vcluster::{Cluster, ClusterConfig, Command};
use vcore::ExecTarget;
use vkernel::Priority;
use vnet::LossModel;
use vsim::{DetRng, SamplingSpec, SimDuration, SimTime, TraceLevel};
use vworkload::{profiles, UserModelParams};

/// Seed of the compile-job arrival stream (the cluster has its own
/// `seed`).
const RNG_SEED: u64 = 4242;

struct Results {
    workstations: usize,
    sim_hours: f64,
    mean_idle_fraction: f64,
    min_idle_fraction: f64,
    exec_requests: u64,
    exec_honored: u64,
    honor_rate: f64,
    guest_cpu_machine_min: f64,
    mean_cpu_utilization: f64,
    quantum_end_dispatches: u64,
}
vsim::impl_to_json!(Results {
    workstations,
    sim_hours,
    mean_idle_fraction,
    min_idle_fraction,
    exec_requests,
    exec_honored,
    honor_rate,
    guest_cpu_machine_min,
    mean_cpu_utilization,
    quantum_end_dispatches
});

fn main() {
    // Plus the file server = the paper's ~25.
    let workstations = vbench::config_usize("workstations", 24);
    let cfg = ClusterConfig {
        workstations,
        seed: vbench::config_u64("seed", 1985),
        loss: LossModel::Bernoulli(1e-4),
        users: Some(UserModelParams::peak_hours()),
        trace: TraceLevel::Warn,
        sampling: Some(SamplingSpec::default()),
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg);
    c.set_host_clock(Box::new(WallClock::new()));

    // Random compile jobs via @* throughout the run.
    let mut rng = DetRng::seed(RNG_SEED);
    let hours = vbench::config_f64("hours", 3.0);
    let total = SimDuration::from_secs_f64(hours * 3600.0);
    let mut t = SimTime::ZERO;
    let mut issued = 0u64;
    loop {
        t += SimDuration::from_secs_f64(rng.exp_f64(120.0));
        if t >= SimTime::ZERO + total {
            break;
        }
        let names = ["make", "cc68", "parser", "tex"];
        let name = *rng.pick(&names);
        let row = profiles::row(name).expect("known");
        c.at(
            t,
            Command::Exec {
                ws: 1 + rng.index(workstations),
                profile: profiles::steady_profile(row),
                target: ExecTarget::AnyIdle,
                priority: Priority::GUEST,
            },
        );
        issued += 1;
    }
    c.run_until(SimTime::ZERO + total);

    let honored = c.exec_reports.iter().filter(|r| r.success).count() as u64;
    let mut idle_fracs: Vec<f64> = c
        .stations
        .iter()
        .skip(1)
        .filter_map(|w| w.user.as_ref())
        .map(|u| u.measured_idle_fraction())
        .collect();
    idle_fracs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mean_idle = idle_fracs.iter().sum::<f64>() / idle_fracs.len() as f64;

    let elapsed = c.now().since(vsim::SimTime::ZERO);
    let guest_cpu: f64 = c
        .stations
        .iter()
        .skip(1)
        .map(|w| w.cpu_guest.as_secs_f64())
        .sum();
    let mean_util: f64 = c
        .stations
        .iter()
        .skip(1)
        .map(|w| w.cpu_utilization(elapsed))
        .sum::<f64>()
        / workstations as f64;

    let profile = c.profile_report();
    let series = c.series_report();
    emit_full(
        "exp_cluster_usage",
        &Results {
            workstations,
            sim_hours: hours,
            mean_idle_fraction: mean_idle,
            min_idle_fraction: idle_fracs[0],
            exec_requests: issued,
            exec_honored: honored,
            honor_rate: honored as f64 / issued as f64,
            guest_cpu_machine_min: guest_cpu / 60.0,
            mean_cpu_utilization: mean_util,
            quantum_end_dispatches: profile.slot("QuantumEnd").map_or(0, |s| s.dispatches),
        },
        &c.metrics_report(),
        Extras {
            series: Some(&series),
            profile: Some(&profile),
            ..Extras::default()
        },
    );
}
