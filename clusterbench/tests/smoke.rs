//! Small-span smoke test of every workload: each metric the benchmark
//! defines is emitted with a finite value, the layer times plus the queue
//! add up to the traced run time, and the outcome digest reproduces
//! between untraced and traced repetitions of one seed.

use clusterbench::report::{self, END_TO_END, PER_LAYER};
use clusterbench::{run, Measurement, Workload};
use vsim::SimDuration;

fn small_span(w: Workload) -> SimDuration {
    match w {
        Workload::Campus64 => SimDuration::from_secs(10 * 60),
        Workload::Campus1024 => SimDuration::from_secs(2 * 60),
        Workload::MigrateChurn8 | Workload::ChaosObserved8 => SimDuration::from_secs(2 * 60),
    }
}

fn assert_emitted(w: Workload, specs: &[report::Metric], values: &[(&'static str, f64)]) {
    for spec in specs {
        let v = values
            .iter()
            .find(|(n, _)| *n == spec.name)
            .unwrap_or_else(|| panic!("{}: {} not emitted", w.name(), spec.name))
            .1;
        assert!(v.is_finite(), "{}: {} = {v}", w.name(), spec.name);
    }
}

#[test]
fn every_workload_emits_every_metric_and_reproduces_its_digest() {
    for w in Workload::ALL {
        let span = small_span(w);
        let seed = 7;
        let m = Measurement {
            untraced: vec![
                run::run(w, seed, span, false),
                run::run(w, seed, span, false),
            ],
            traced: vec![run::run(w, seed, span, true)],
        };
        let problems = m.check(w, seed, span);
        assert!(problems.is_empty(), "{}: {problems:?}", w.name());
        let o = &m.untraced[0].outcome;
        assert!(o.attempted > 0, "{}: no operations", w.name());
        assert_eq!(m.traced[0].outcome.digest, o.digest);

        let e2e = report::end_to_end(&m, 1);
        assert_emitted(w, &END_TO_END, &e2e);
        assert!(e2e.iter().all(|&(_, v)| v > 0.0), "{}: {e2e:?}", w.name());

        let layers = report::per_layer(&m);
        assert_emitted(w, &PER_LAYER, &layers);
        let get = |name: &str| layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let run_s = get("trace.run_s").expect("run time");
        let queue_s = get("vsim.queue_s").expect("queue time");
        let booked: f64 = report::LAYERS
            .iter()
            .map(|(_, time, _)| get(time).expect("layer time"))
            .sum();
        assert!(queue_s >= 0.0, "{}: dispatch exceeds run time", w.name());
        assert!(
            (booked + queue_s - run_s).abs() < 1e-9,
            "{}: layers {booked} + queue {queue_s} != run {run_s}",
            w.name()
        );

        let trace = report::chrome_trace(w.name(), &m.traced[0]);
        for span in [
            "setup",
            "vworkload.profile",
            "vcluster.new",
            "run.window",
            "final.audit",
        ] {
            assert!(
                trace.contains(&format!("\"{span}\"")),
                "{}: no {span} span",
                w.name()
            );
        }
    }
}

#[test]
fn the_digest_depends_on_the_seed() {
    let w = Workload::MigrateChurn8;
    let span = small_span(w);
    let a = run::run(w, 1, span, false).outcome.digest;
    let b = run::run(w, 2, span, false).outcome.digest;
    assert_ne!(a, b);
}

#[test]
fn names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("campus"), None);
}
