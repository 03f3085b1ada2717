//! The CPU scheduler's quanta are pinned: which program runs each 10 ms
//! slice, what each slice is charged to and which pages it dirties. Any
//! change to how a quantum is dispatched, charged or re-armed must leave
//! every trace record, every cluster counter, each station's delivered
//! CPU and each program's dirty pages as they were.
//!
//! On `ws1`, an owner's interactive job at local priority shares the CPU
//! with two guests at guest priority, so the priority pick and
//! round-robin within a level both decide quanta. One guest is suspended
//! and resumed while it runs; the owner then returns and evicts both
//! guests while they share the CPU; last, a CPU-bound local program runs
//! alone and `ws1` crashes with a reboot four milliseconds later, inside
//! the quantum under way. Both local programs owe CPU in amounts that
//! are not whole quanta, so a short slice ends each of their bursts,
//! contested and uncontested. The trace is kept at `TraceLevel::Detail`,
//! so it holds every quantum span and its id. The digests were taken
//! before the per-quantum path was rewritten to charge in place and
//! re-arm an uncontested quantum directly.

use v_system::prelude::*;
use v_system::vcluster::station::Station;
use v_system::vsim::{fnv1a, Fnv, TraceRecord};

/// FNV-1a over the `Debug` form of every trace record, in order.
const TRACE_DIGEST: &str = "dff329df721196d3";
/// FNV-1a over the `Debug` form of the final `ClusterStats`.
const STATS_DIGEST: &str = "cd109f298399759c";
/// FNV-1a over each station's delivered CPU and each of its programs'
/// dirty-page counts.
const CPU_DIGEST: &str = "6bb635c1b45c92c6";

fn ms(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(m)
}

/// An owner's interactive job: short bursts of CPU between display
/// writes, during which the guests get the CPU.
fn owner_job() -> ProgramProfile {
    let mut p = profiles::simulation_profile(SimDuration::ZERO);
    p.name = "owner-job".into();
    p.phases = (0..12)
        .flat_map(|_| {
            [
                Phase::Compute(SimDuration::from_millis(155)),
                Phase::Display { chars: 400 },
            ]
        })
        .collect();
    p
}

/// What the scheduler did, as seen from outside between 1 ms steps.
#[derive(Default)]
struct Seen {
    /// `ws1` had a program holding the CPU and another waiting, at local
    /// and at guest priority.
    contested_mixed: bool,
    /// Two guests held or waited for `ws1`'s CPU at once.
    contested_guests: bool,
    /// A program was frozen while holding or waiting for the CPU.
    frozen_scheduled: bool,
    /// `ws1` was running a program when it crashed.
    crashed_busy: bool,
    /// `ws1` went down at the crash and stayed up after the reboot.
    rebooted: bool,
}

fn observe(ws1: &Station, seen: &mut Seen) {
    let scheduled: Vec<Priority> = (ws1.programs.values())
        .filter(|p| p.scheduled)
        .map(|p| p.priority)
        .collect();
    let guests = scheduled.iter().filter(|&&p| p == Priority::GUEST).count();
    seen.contested_guests |= guests >= 2;
    seen.contested_mixed |= guests >= 1 && scheduled.contains(&Priority::LOCAL);
    seen.frozen_scheduled |=
        (ws1.programs.iter()).any(|(&lh, p)| p.scheduled && ws1.kernel.is_frozen(lh));
}

struct Outcome {
    records: Vec<TraceRecord>,
    stats: String,
    cpu: String,
    seen: Seen,
    freezes: usize,
    owner_evictions: u64,
    quanta: u64,
}

fn run() -> Outcome {
    let mut c = Cluster::new(ClusterConfig {
        workstations: 4,
        seed: 31,
        trace: TraceLevel::Detail,
        evict_on_owner_return: true,
        ..ClusterConfig::default()
    });
    for ws in [2, 3] {
        let guest = profiles::simulation_profile(SimDuration::from_secs(40));
        c.exec(ws, guest, ExecTarget::Named("ws1".into()), Priority::GUEST);
    }
    c.at(
        ms(1_000),
        Command::Exec {
            ws: 1,
            profile: owner_job(),
            target: ExecTarget::Local,
            priority: Priority::LOCAL,
        },
    );
    c.at(
        ms(8_000),
        Command::SetOwnerActive {
            ws: 1,
            active: true,
        },
    );
    c.at(
        ms(14_000),
        Command::Exec {
            ws: 1,
            profile: profiles::simulation_profile(SimDuration::from_millis(4_005)),
            target: ExecTarget::Local,
            priority: Priority::LOCAL,
        },
    );
    const CRASH_MS: u64 = 15_004;
    c.at(ms(CRASH_MS), Command::Crash { ws: 1 });
    c.at(ms(CRASH_MS + 4), Command::Reboot { ws: 1 });

    let mut seen = Seen::default();
    let mut suspended = None;
    for t in 1..=20_000u64 {
        c.run_for(SimDuration::from_millis(1));
        observe(&c.stations[1], &mut seen);
        match t {
            3_000 => {
                let lh = c.exec_reports[0].lh.expect("the first guest started");
                c.suspendprog(2, lh);
                suspended = Some(lh);
            }
            4_500 => c.resumeprog(2, suspended.expect("suspended at 3 s")),
            t if t == CRASH_MS - 1 => seen.crashed_busy = c.stations[1].ready_programs() > 0,
            CRASH_MS => seen.rebooted = c.stations[1].down,
            t if t > CRASH_MS + 4 => seen.rebooted &= !c.stations[1].down,
            _ => {}
        }
    }

    let mut cpu = String::new();
    for st in &c.stations {
        cpu += &format!("{:?} {:?} {:?};", st.host, st.cpu_local, st.cpu_guest);
        for (&lh, p) in &st.programs {
            let space = st.kernel.logical_host(lh).and_then(|l| l.space(p.team));
            cpu += &format!(" {lh:?}:{:?}", space.map(|s| s.dirty_pages()));
        }
    }
    let records = c.trace().records().to_vec();
    let freezes = (records.iter())
        .filter(|r| matches!(r.event, TraceEvent::Freeze { .. }))
        .count();
    Outcome {
        records,
        stats: format!("{:?}", c.stats),
        cpu,
        seen,
        freezes,
        owner_evictions: c.stats.owner_evictions,
        quanta: c.stats.quanta_local + c.stats.quanta_guest,
    }
}

#[test]
fn scheduler_run_reproduces_its_pinned_quanta() {
    let o = run();
    // Non-vacuity: every scheduler path the pin is meant to hold ran.
    let s = &o.seen;
    assert!(s.contested_mixed, "local and guest never competed on ws1");
    assert!(s.contested_guests, "the two guests never competed on ws1");
    assert!(
        s.frozen_scheduled,
        "no program froze holding or awaiting the CPU"
    );
    assert_eq!(o.freezes, 2, "each eviction freezes its guest once");
    assert_eq!(o.owner_evictions, 2);
    assert!(s.crashed_busy, "ws1 was idle when it crashed");
    assert!(s.rebooted, "ws1 never came back up");
    assert!(o.quanta > 2_000, "{} quanta", o.quanta);
    let mut trace = Fnv::new();
    for r in &o.records {
        trace.write_debug(r);
    }
    let (trace, stats) = (trace.finish(), fnv1a(o.stats.as_bytes()));
    let cpu = fnv1a(o.cpu.as_bytes());
    assert_eq!(
        [trace, stats, cpu].map(|h| format!("{h:016x}")),
        [TRACE_DIGEST, STATS_DIGEST, CPU_DIGEST],
        "{} records; stats {}; cpu {}",
        o.records.len(),
        o.stats,
        o.cpu
    );
}
