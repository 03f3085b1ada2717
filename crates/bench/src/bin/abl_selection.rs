//! A4 — ablation: how good is first-responder selection?
//!
//! §2: "Typically, the client receives several responses to the request.
//! Currently, it simply selects the program manager that responds first
//! since that is generally the least loaded host. This simple mechanism
//! provides a decentralized implementation of scheduling that performs
//! well at minimal cost for reasonably small systems."
//!
//! Quantifies "generally": across many `@*` requests into a loaded
//! cluster, how often does the first responder coincide with the
//! least-loaded willing host, and what is the mean excess load when it
//! does not?

use vbench::emit;
use vcluster::{Cluster, ClusterConfig};
use vcore::ExecTarget;
use vkernel::Priority;
use vnet::LossModel;
use vsim::{DetRng, SimDuration, TraceLevel};
use vworkload::profiles;

/// Seed of the job-arrival stream (the cluster has its own `seed`).
const RNG_SEED: u64 = 5;

struct Results {
    requests: usize,
    picked_least_loaded: usize,
    mean_excess_programs: f64,
    mean_selection_ms: f64,
}
vsim::impl_to_json!(Results {
    requests,
    picked_least_loaded,
    mean_excess_programs,
    mean_selection_ms
});

fn main() {
    let mut c = Cluster::new(ClusterConfig {
        workstations: 8,
        seed: vbench::config_u64("seed", 2024),
        loss: LossModel::None,
        trace: TraceLevel::Warn,
        ..ClusterConfig::default()
    });
    let mut rng = DetRng::seed(RNG_SEED);

    let mut picked_best = 0usize;
    let mut excess = Vec::new();
    let mut selection_ms = Vec::new();
    let mut requests = 0usize;

    // Keep a rolling background of jobs so hosts differ in load, and
    // sample the cluster state right before each request.
    for k in 0..40 {
        // Background job to skew loads.
        if k % 2 == 0 {
            let name = *rng.pick(&["optimizer", "assembler", "tex"]);
            let row = profiles::row(name).expect("known");
            c.exec(
                1 + rng.index(8),
                profiles::steady_profile(row),
                ExecTarget::AnyIdle,
                Priority::GUEST,
            );
            c.run_for(SimDuration::from_secs(2));
        }

        // Snapshot loads of hosts that would answer an @* from ws1.
        let origin = c.stations[1].host;
        let willing: Vec<(vnet::HostAddr, usize)> = c
            .stations
            .iter()
            .skip(1)
            .filter(|w| w.host != origin)
            .map(|w| (w.host, w.pm.programs().len()))
            .collect();
        let min_load = willing.iter().map(|&(_, l)| l).min().unwrap_or(0);

        let before = c.exec_reports.len();
        let row = profiles::row("make").expect("known");
        c.exec(
            1,
            profiles::steady_profile(row),
            ExecTarget::AnyIdle,
            Priority::GUEST,
        );
        c.run_for(SimDuration::from_secs(5));
        let Some(r) = c.exec_reports.get(before) else {
            continue;
        };
        if !r.success {
            continue;
        }
        requests += 1;
        selection_ms.push(r.selection_time.as_secs_f64() * 1e3);
        let chosen_load = willing
            .iter()
            .find(|&&(h, _)| Some(h) == r.chosen_host)
            .map(|&(_, l)| l)
            .unwrap_or(0);
        if chosen_load == min_load {
            picked_best += 1;
        }
        excess.push((chosen_load - min_load) as f64);
        c.run_for(SimDuration::from_secs(3));
    }

    let mean_excess = excess.iter().sum::<f64>() / excess.len().max(1) as f64;
    let mean_sel = selection_ms.iter().sum::<f64>() / selection_ms.len().max(1) as f64;

    println!(
        "\nShape check (§2): a busy workstation's manager contends with its\n\
         running programs for the CPU, so idle hosts answer the multicast\n\
         first — which is why first-response selection tracks load at\n\
         essentially zero cost. The paper's \"performs well at minimal\n\
         cost for reasonably small systems\" is this table."
    );
    emit(
        "abl_selection",
        &Results {
            requests,
            picked_least_loaded: picked_best,
            mean_excess_programs: mean_excess,
            mean_selection_ms: mean_sel,
        },
        &c.metrics_report(),
    );
}
