//! E3 — §4.1 migration state-copy costs.
//!
//! The paper: copying a logical host's kernel-server and program-manager
//! state costs 14 ms plus 9 ms per process and address space; copying
//! 1 MB of address space between hosts takes 3 seconds.
//!
//! Measures both: the kernel-state install time as a function of object
//! count (processes + spaces), and the host-to-host bulk copy rate over a
//! size sweep.

use vbench::emit;
use vkernel::testkit::{AppEvent, Rig};
use vkernel::{LogicalHostId, Priority};
use vmem::SpaceLayout;
use vnet::HostAddr;
use vsim::calib::PAGE_BYTES;
use vsim::SimTime;

struct Results {
    state_copy_points: Vec<(u64, f64)>, // (objects, modeled ms)
    copy_rate_points: Vec<(u64, f64)>,  // (bytes, measured secs)
    secs_per_mb_paper: f64,
    secs_per_mb_measured: f64,
}
vsim::impl_to_json!(Results {
    state_copy_points,
    copy_rate_points,
    secs_per_mb_paper,
    secs_per_mb_measured
});

fn main() {
    vbench::args(); // start the wall clock; this experiment has no knobs
                    // --- Kernel-state copy cost vs object count. ---
                    // The migration record's copy cost is charged by the target program
                    // manager; here we construct logical hosts of increasing complexity
                    // and report the record's cost (14 + 9 * objects ms).
    let mut state_points = Vec::new();
    for &(procs, spaces) in &[(1u32, 1u32), (2, 1), (4, 1), (4, 2), (8, 4)] {
        let mut rig: Rig<u32> = Rig::new(1);
        let l = rig.kernel_mut(0).create_logical_host(LogicalHostId(10));
        let mut team = None;
        for _ in 0..spaces {
            team = Some(l.create_space(SpaceLayout::tiny()));
        }
        for _ in 0..procs {
            l.create_process(team.expect("space created"), Priority::GUEST, false);
        }
        let record = rig.kernel(0).extract_migration_record(LogicalHostId(10));
        let objects = (procs + spaces) as u64;
        let model_ms = record.copy_cost().as_secs_f64() * 1e3;
        state_points.push((objects, model_ms));
    }

    // --- Bulk copy rate: measured end-to-end over the protocol. ---
    let mut rate_points = Vec::new();
    let mut last_rate = 0.0;
    let mut metrics = vsim::MetricsReport::new();
    for &kb in &[128u64, 256, 512, 1024, 2048] {
        let mut rig: Rig<u32> = Rig::new(2);
        let l = rig.kernel_mut(0).create_logical_host(LogicalHostId(1));
        let team = l.create_space(SpaceLayout::tiny());
        let src = l.create_process(team, Priority::GUEST, false);
        let layout = SpaceLayout {
            code_bytes: 0,
            init_data_bytes: 0,
            heap_bytes: kb * 1024,
            stack_bytes: 0,
        };
        let (tlh, tspace) = {
            let l = rig.kernel_mut(1).create_logical_host(LogicalHostId(50));
            let s = l.create_space(layout);
            (LogicalHostId(50), s)
        };
        rig.kernel_mut(0).learn_binding(tlh, HostAddr(1));
        let pages: Vec<u32> = (0..(kb * 1024 / PAGE_BYTES) as u32).collect();
        rig.drive(0, |k, now, out| {
            k.copy_pages(now, src, tlh, tspace, pages, out)
        });
        rig.run_until(SimTime::MAX);
        let done = rig
            .log
            .iter()
            .find_map(|(at, e)| match e {
                AppEvent::CopyDone { result: Ok(_), .. } => Some(*at),
                _ => None,
            })
            .expect("copy completed");
        let secs = done.as_secs_f64();
        last_rate = secs * 1024.0 / kb as f64;
        rate_points.push((kb * 1024, secs));
        let mut m = vsim::MetricsReport::new();
        m.push(rig.kernel(0).metrics("src"));
        m.push(rig.kernel(1).metrics("dst"));
        metrics.absorb(m.prefixed(&format!("{kb}kb")));
    }
    emit(
        "exp_copy_costs",
        &Results {
            state_copy_points: state_points,
            copy_rate_points: rate_points,
            secs_per_mb_paper: 3.0,
            secs_per_mb_measured: last_rate,
        },
        &metrics,
    );
}
