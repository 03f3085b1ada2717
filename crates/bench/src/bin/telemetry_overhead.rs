//! P2 — what observability costs: trace emission (null vs ring sink) and
//! 1 ms-interval time-series sampling, against a bare 1 000-host event
//! churn.
//!
//! Four cells share the exact same deterministic churn loop — per-host
//! periodic timers with jitter, a 10% burst of short-delay messages and 1%
//! far-future timers:
//!
//! * `base` — no trace calls, no sampling: the reference rate.
//! * `trace_null` — one detail-level trace record offered per dispatch
//!   into [`TraceSinkSpec::Off`]: proves the null sink is ~free.
//! * `trace_ring` — the same records into a fixed ring: tracing "on".
//! * `sampling_1ms` — `base` plus a [`SeriesStore`] updated with the
//!   engine's queue depth every simulated millisecond, through
//!   [`SeriesStore::update`] as the cluster does (a point is kept only
//!   when a value changes).
//!
//! The cells run in [`REPS`] rounds in one process. Each round runs every
//! cell once, in the fixed order above, and each cell keeps its best wall
//! rate. Host drift during the run then lands on every cell alike, so the
//! overhead ratios in the `run` section compare like with like and cancel
//! machine speed. `bench_regress` gates
//! `run.sampling_overhead_ratio` at ≤ 10% — the promise that telemetry
//! never becomes the bottleneck it is meant to find. The recorded series
//! of every rep must serialize byte-identically (asserted here): the
//! time-series determinism claim at bench scale.

use std::collections::BTreeMap;
use std::time::Instant;

use vbench::{emit_full, Extras};
use vsim::{
    DetRng, Engine, Json, SamplingSpec, SeriesId, SeriesReport, SeriesStore, SimDuration, SimTime,
    Subsystem, ToJson, Trace, TraceEvent, TraceLevel, TraceSinkSpec,
};

/// Per-host timer period: 100 events per simulated second per host.
const TICK_US: u64 = 10_000;
/// Simulated events each cell targets (before sampling ticks).
const EVENTS_PER_CELL: u64 = 2_000_000;
/// Hosts in the churn (the acceptance criterion's 1k-host point).
const HOSTS: usize = 1_000;
/// Rounds over all cells; each cell keeps its best wall rate.
const REPS: usize = 3;

/// One-shot event marker (messages, timeouts): deliver and die.
const ONE_SHOT: u64 = 1 << 63;
/// The telemetry update event in the sampling cell.
const SAMPLE: u64 = u64::MAX;

struct Row {
    cell: String,
    hosts: usize,
    events: u64,
    sim_secs: f64,
    sweeps: u64,
}
vsim::impl_to_json!(Row {
    cell,
    hosts,
    events,
    sim_secs,
    sweeps
});

enum Variant {
    Base,
    Trace(TraceSinkSpec),
    Sampling,
}

struct CellOut {
    events: u64,
    wall_secs: f64,
    sweeps: u64,
    series: Option<SeriesReport>,
    scope: vsim::ScopeMetrics,
}

fn run_cell(name: &str, variant: &Variant, sim_us: u64, seed: u64) -> CellOut {
    let (level, sink) = match variant {
        Variant::Trace(sink) => (TraceLevel::Detail, *sink),
        _ => (TraceLevel::Warn, TraceSinkSpec::Off),
    };
    let mut engine: Engine<u64> = Engine::new();
    let mut trace = Trace::with_sink(level, sink);
    let trace_each = matches!(variant, Variant::Trace(_));
    let mut store: Option<(SeriesStore, SeriesId)> = match variant {
        Variant::Sampling => {
            let mut s = SeriesStore::new(SamplingSpec { capacity: 1024 });
            let depth = s.manual(Subsystem::Engine, "queue_depth", "events");
            engine.schedule_after(SimDuration::from_millis(1), SAMPLE);
            Some((s, depth))
        }
        _ => None,
    };
    let mut rng = DetRng::seed(seed);
    for h in 0..HOSTS as u64 {
        engine.schedule_at(SimTime::from_micros(rng.range_u64(0, TICK_US)), h);
    }
    let limit = SimTime::from_micros(sim_us);
    let wall = Instant::now();
    while let Some((now, ev)) = engine.step_due(limit) {
        if ev == SAMPLE {
            if let Some((s, depth)) = &mut store {
                s.update(now, &[(*depth, engine.pending() as f64)]);
            }
            if engine.pending() > 0 {
                engine.schedule_after(SimDuration::from_millis(1), SAMPLE);
            }
            continue;
        }
        if trace_each {
            trace.detail(
                now,
                Subsystem::Engine,
                TraceEvent::Note { text: "dispatch" },
            );
        }
        if ev & ONE_SHOT != 0 {
            continue;
        }
        let host = ev;
        let next = TICK_US + rng.range_u64(0, TICK_US / 5) - TICK_US / 10;
        engine.schedule_after(SimDuration::from_micros(next), host);
        match rng.index(100) {
            0..=9 => {
                engine.schedule_after(
                    SimDuration::from_micros(rng.range_u64(1, 5_000)),
                    host | ONE_SHOT,
                );
            }
            15 => {
                engine.schedule_after(SimDuration::from_secs(24 * 3600), host | ONE_SHOT);
            }
            _ => {}
        }
    }
    CellOut {
        events: engine.events_delivered(),
        wall_secs: wall.elapsed().as_secs_f64(),
        sweeps: store.as_ref().map_or(0, |(s, ..)| s.sweeps()),
        series: store.map(|(s, ..)| s.report()),
        scope: engine.metrics(name),
    }
}

fn main() {
    vbench::args();
    let seed = vbench::config_u64("seed", 1985);
    let sim_us = EVENTS_PER_CELL * TICK_US / HOSTS as u64;

    let cells: [(&str, Variant); 4] = [
        ("base", Variant::Base),
        ("trace_null", Variant::Trace(TraceSinkSpec::Off)),
        ("trace_ring", Variant::Trace(TraceSinkSpec::Ring(4096))),
        ("sampling_1ms", Variant::Sampling),
    ];

    let mut rows = Vec::new();
    let mut metrics = vsim::MetricsReport::new();
    let mut best_rate: BTreeMap<String, f64> = BTreeMap::new();
    let mut sample_series: Option<SeriesReport> = None;
    let mut best: Vec<Option<CellOut>> = cells.iter().map(|_| None).collect();
    let mut first_series: Vec<Option<String>> = vec![None; cells.len()];
    for _ in 0..REPS {
        for (k, (name, variant)) in cells.iter().enumerate() {
            let out = run_cell(name, variant, sim_us, seed);
            // Same seed, same cell: the sampled series must serialize
            // byte-identically across reps — wall clock may vary, the
            // telemetry must not.
            if let Some(series) = &out.series {
                let json = series.to_json().pretty();
                match &first_series[k] {
                    None => first_series[k] = Some(json),
                    Some(prev) => assert_eq!(
                        prev, &json,
                        "{name}: same-seed reps produced different series"
                    ),
                }
            }
            if best[k].as_ref().is_none_or(|b| out.wall_secs < b.wall_secs) {
                best[k] = Some(out);
            }
        }
    }
    let mut wall_rows = Vec::new();
    for ((name, _), out) in cells.iter().zip(best) {
        let out = out.expect("REPS >= 1");
        let rate = out.events as f64 / out.wall_secs;
        best_rate.insert((*name).to_string(), rate);
        wall_rows.push(Json::obj([
            ("cell", name.to_json()),
            ("events", out.events.to_json()),
            ("best_wall_s", out.wall_secs.to_json()),
            ("best_events_per_wall_s", rate.to_json()),
        ]));
        let sim_secs = sim_us as f64 / 1e6;
        rows.push(Row {
            cell: (*name).to_string(),
            hosts: HOSTS,
            events: out.events,
            sim_secs,
            sweeps: out.sweeps,
        });
        metrics.push(out.scope);
        if let Some(series) = out.series {
            sample_series = Some(series);
        }
    }
    vbench::print_table(
        &format!("wall time, best of {REPS} rounds"),
        &Json::Arr(wall_rows),
        3,
    );

    let base = best_rate["base"];
    let ratio = |cell: &str| (base - best_rate[cell]) / base;
    let sampling = ratio("sampling_1ms");
    let trace_null = ratio("trace_null");
    let trace_ring = ratio("trace_ring");
    println!(
        "\nOverheads vs base: trace_null {:+.1}%  trace_ring {:+.1}%  sampling_1ms {:+.1}%",
        trace_null * 100.0,
        trace_ring * 100.0,
        sampling * 100.0
    );

    let extras = Extras {
        series: sample_series.as_ref(),
        run_extra: vec![
            ("sampling_overhead_ratio", sampling.to_json()),
            ("trace_null_overhead_ratio", trace_null.to_json()),
            ("trace_ring_overhead_ratio", trace_ring.to_json()),
        ],
        ..Extras::default()
    };
    emit_full("telemetry_overhead", &rows, &metrics, extras);
}
