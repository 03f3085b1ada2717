//! Property-based tests on the core data structures and invariants,
//! spanning crates (run from the workspace root package).
//!
//! Each property is exercised over many deterministic, seeded random
//! cases (no external property-testing framework: inputs come from
//! [`DetRng`], so failures reproduce exactly).

use v_system::prelude::*;
use vkernel::split_units;
use vmem::{AddressSpace, BitSet, SpaceId, SpaceLayout, WwsParams, WwsSampler};
use vsim::{DetRng, Engine};

/// The event engine delivers in time order with FIFO tie-break,
/// regardless of insertion order.
#[test]
fn engine_delivers_in_order() {
    let mut rng = DetRng::seed(0xE1);
    for _case in 0..50 {
        let n = rng.index(200) + 1;
        let delays: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 10_000)).collect();
        let mut e: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            e.schedule_after(SimDuration::from_micros(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = vec![false; delays.len()];
        while let Some((t, i)) = e.step() {
            assert!(t >= last, "time went backwards");
            assert_eq!(t.as_micros(), delays[i]);
            assert!(!seen[i], "duplicate delivery");
            seen[i] = true;
            last = t;
        }
        assert!(seen.iter().all(|&s| s), "lost event");
    }
}

/// The engine's queue invariants hold under random schedule/step scripts across 32 seeds, with delays from same-instant ties out to
/// days: the `queue_depth` gauge mirrors `pending()` at every step and
/// reads 0 once drained, and pops come out in strictly increasing
/// `(time, schedule order)` — time never goes backwards and same-instant
/// events are FIFO.
#[test]
fn engine_queue_invariants_hold_under_churn() {
    for seed in 0..32u64 {
        let mut rng = DetRng::seed(0x3E0 + seed);
        let mut e: Engine<usize> = Engine::new();
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        let depth = |e: &Engine<usize>| e.metrics("engine").gauge(Subsystem::Engine, "queue_depth");
        for op in 0..400 {
            match rng.index(10) {
                // Mostly schedules, spanning same-instant ties, µs to
                // minutes, and ~19 hours to ~12 days out.
                0..=5 => {
                    let d = match rng.index(5) {
                        0 => 0,
                        1 => rng.range_u64(1, 64),
                        2 => rng.range_u64(64, 1 << 18),
                        3 => rng.range_u64(1 << 18, 1 << 30),
                        _ => rng.range_u64(1 << 36, 1 << 40),
                    };
                    e.schedule_after(SimDuration::from_micros(d), op);
                }
                _ => popped.extend(e.step()),
            }
            assert_eq!(
                depth(&e),
                Some(e.pending() as f64),
                "seed {seed}: depth gauge drifted from pending()"
            );
        }
        popped.extend(std::iter::from_fn(|| e.step()));
        assert_eq!(e.pending(), 0, "seed {seed}: drained engine still pending");
        assert_eq!(depth(&e), Some(0.0), "seed {seed}: drained depth gauge");
        // Payloads are schedule-order op indices, so strictly increasing
        // `(time, op)` is both "never backwards" and same-instant FIFO.
        assert!(
            popped.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: pops out of (time, schedule) order"
        );
    }
}

/// BitSet agrees with a reference BTreeSet model under arbitrary
/// set/clear sequences.
#[test]
fn bitset_matches_model() {
    let mut rng = DetRng::seed(0xB1);
    for _case in 0..50 {
        let n_ops = rng.index(300) + 1;
        let mut b = BitSet::new(256);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n_ops {
            let i = rng.index(256);
            if rng.chance(0.5) {
                b.set(i);
                model.insert(i);
            } else {
                b.clear(i);
                model.remove(&i);
            }
        }
        assert_eq!(b.count(), model.len());
        let mut got: Vec<usize> = b.iter().collect();
        let mut want: Vec<usize> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

/// split_units partitions the page list exactly: every page appears
/// once, in order, and no unit exceeds the unit size.
#[test]
fn split_units_partitions() {
    let mut rng = DetRng::seed(0x51);
    for _case in 0..60 {
        let n_pages = rng.range_u64(0, 2000) as u32;
        let unit_kb = rng.range_u64(2, 128);
        let pages: Vec<u32> = (0..n_pages).collect();
        let units = split_units(&pages, unit_kb * 1024);
        let flat: Vec<u32> = units.iter().flat_map(|u| u.pages.iter().copied()).collect();
        assert_eq!(flat, pages);
        for u in &units {
            assert!(u.bytes <= unit_kb * 1024);
            assert_eq!(u.bytes, u.pages.len() as u64 * 2048);
        }
    }
}

/// The WWS fit never panics on positive monotone-ish inputs and its
/// predictions are non-negative and monotone in the window length.
#[test]
fn wws_fit_is_sane() {
    let mut rng = DetRng::seed(0x77);
    for _case in 0..100 {
        let y1 = rng.range_f64(0.1, 100.0);
        let dy2 = rng.range_f64(0.0, 100.0);
        let dy3 = rng.range_f64(0.0, 100.0);
        let points = [(0.2, y1), (1.0, y1 + dy2), (3.0, y1 + dy2 + dy3)];
        let fit = WwsParams::fit_quantized(&points, 2.0);
        let mut prev = 0.0;
        for t in [0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 10.0] {
            let v = fit.expected_dirty_kb_quantized(t, 2.0);
            assert!(v >= prev - 1e-9, "non-monotone at {t}: {v} < {prev}");
            prev = v;
        }
    }
}

/// The sampler never dirties more pages than are writable and never
/// touches read-only segments.
#[test]
fn sampler_respects_protection() {
    let mut rng = DetRng::seed(0x5A);
    for _case in 0..40 {
        let hot = rng.range_f64(0.0, 500.0);
        let w = rng.range_f64(0.0, 2000.0);
        let r = rng.range_f64(0.0, 200.0);
        let seed = rng.range_u64(0, u64::MAX - 1);
        let layout = SpaceLayout {
            code_bytes: 64 * 1024,
            init_data_bytes: 16 * 1024,
            heap_bytes: 128 * 1024,
            stack_bytes: 8 * 1024,
        };
        let mut space = AddressSpace::new(SpaceId(0), layout);
        let mut case_rng = DetRng::seed(seed);
        let params = WwsParams {
            hot_kb: hot,
            hot_write_kb_per_sec: w,
            cold_kb_per_sec: r,
        };
        let mut s = WwsSampler::new(params, &space, &mut case_rng);
        // write_page panics on read-only pages, so surviving is the test.
        s.advance(SimDuration::from_secs(5), &mut space, &mut case_rng);
        assert!(space.dirty_pages() <= space.writable_page_count());
    }
}

/// Duration formatting/parsing invariants used by reports.
#[test]
fn duration_arithmetic_consistent() {
    let mut rng = DetRng::seed(0xD1);
    for _case in 0..200 {
        let a = rng.range_u64(0, 1 << 40);
        let b = rng.range_u64(0, 1 << 40);
        let (da, db) = (SimDuration::from_micros(a), SimDuration::from_micros(b));
        assert_eq!((da + db).as_micros(), a + b);
        let t = SimTime::ZERO + da;
        assert_eq!(t.since(SimTime::ZERO), da);
        assert_eq!((t + db) - t, db);
    }
}

/// Whole-cluster invariant: for any (small) mix of programs started
/// via @*, every execution either succeeds and eventually finishes,
/// or fails cleanly — and every logical host is on at most one
/// workstation at the end.
#[test]
fn cluster_executions_settle() {
    let mut rng = DetRng::seed(0xC1);
    for _case in 0..12 {
        let n_jobs = rng.index(3) + 1;
        let seed = rng.range_u64(0, 1000);
        let mut c = Cluster::new(ClusterConfig {
            workstations: 4,
            seed,
            loss: LossModel::None,
            ..ClusterConfig::default()
        });
        for j in 0..n_jobs {
            let name = ["make", "cc68", "preprocessor"][j % 3];
            let row = profiles::row(name).expect("row");
            c.exec(
                1 + j % 4,
                profiles::steady_profile(row),
                ExecTarget::AnyIdle,
                Priority::GUEST,
            );
        }
        c.run_for(SimDuration::from_secs(120));
        assert_eq!(c.exec_reports.len(), n_jobs);
        let ok = c.exec_reports.iter().filter(|r| r.success).count();
        assert_eq!(c.stats.programs_finished as usize, ok);
        // No logical host is resident twice.
        for r in &c.exec_reports {
            if let Some(lh) = r.lh {
                let residents = c
                    .stations
                    .iter()
                    .filter(|w| w.kernel.is_resident(lh))
                    .count();
                assert!(residents <= 1, "{lh} resident {residents} times");
            }
        }
    }
}

/// Dominance: for any dirty behaviour, pre-copy's freeze time is no
/// worse than freeze-and-copy's (and strictly better for any program
/// with a reasonable working set).
#[test]
fn precopy_never_freezes_longer_than_naive() {
    use vcore::{MigrationConfig, StopPolicy, Strategy};
    use vmem::{SpaceLayout, WwsParams};

    let mut rng = DetRng::seed(0xF1);
    for _case in 0..8 {
        let hot_kb = rng.range_f64(1.0, 120.0);
        let write_rate = rng.range_f64(1.0, 600.0);
        let cold = rng.range_f64(0.0, 30.0);
        let seed = rng.range_u64(0, 500);

        let freeze_of = |strategy: Strategy| {
            let mut c = Cluster::new(ClusterConfig {
                workstations: 3,
                seed,
                loss: LossModel::None,
                migration: MigrationConfig {
                    strategy,
                    ..MigrationConfig::default()
                },
                ..ClusterConfig::default()
            });
            let profile = ProgramProfile::steady(
                "subject",
                SpaceLayout {
                    code_bytes: 96 * 1024,
                    init_data_bytes: 16 * 1024,
                    heap_bytes: 512 * 1024,
                    stack_bytes: 16 * 1024,
                },
                WwsParams {
                    hot_kb,
                    hot_write_kb_per_sec: write_rate,
                    cold_kb_per_sec: cold,
                },
                SimDuration::from_secs(3600),
            );
            c.exec(1, profile, ExecTarget::Named("ws2".into()), Priority::GUEST);
            c.run_for(SimDuration::from_secs(15));
            let lh = c.exec_reports[0].lh.expect("created");
            c.migrateprog(2, lh, false);
            c.run_for(SimDuration::from_secs(120));
            let r = c.migration_reports[0].clone();
            assert!(r.success, "{r:?}");
            r.freeze_time
        };

        let pre = freeze_of(Strategy::PreCopy(StopPolicy::default()));
        let naive = freeze_of(Strategy::FreezeAndCopy);
        assert!(
            pre <= naive,
            "pre-copy froze {pre} vs naive {naive} (hot={hot_kb:.0}KB w={write_rate:.0}KB/s r={cold:.0}KB/s)"
        );
    }
}
