//! Metric definitions, their values from a [`Measurement`], the result
//! line and the Chrome-trace file.

use std::fmt::Write as _;

use crate::run::{quantile, Rep};
use crate::Measurement;

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    m("wall_s_per_sim_hour", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("op_fail_ratio", "ratio", "lower"),
];

/// Top-level event kinds, grouped by the crate each dispatch enters, with
/// the layer's time and count metric names. A kind not named here is
/// booked to `vsim.other`, so the layers plus `vsim.queue_s` always add up
/// to the traced run time.
pub const LAYERS: [(&[&str], &str, &str); 12] = [
    (&["QuantumEnd"], "vcluster.quantum_s", "vcluster.quantum_n"),
    (&["Frame"], "vkernel.frame_s", "vkernel.frame_n"),
    (&["SvcTimer"], "vservices.timer_s", "vservices.timer_n"),
    (&["Transmit"], "vnet.transmit_s", "vnet.transmit_n"),
    (&["KernelTimer"], "vkernel.timer_s", "vkernel.timer_n"),
    (&["SampleTick"], "vsim.sample_s", "vsim.sample_n"),
    (&["AuditTick"], "vcluster.audit_s", "vcluster.audit_n"),
    (&["Command"], "vcluster.command_s", "vcluster.command_n"),
    (
        &["ApplyFault", "HealPartition"],
        "vcluster.fault_s",
        "vcluster.fault_n",
    ),
    (&["SleepDone"], "vworkload.sleep_s", "vworkload.sleep_n"),
    (
        &["UserTransition"],
        "vworkload.owner_s",
        "vworkload.owner_n",
    ),
    (&[], "vsim.other_s", "vsim.other_n"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: [Metric; 61] = [
    m("trace.run_s", "s", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("vsim.queue_s", "s", "lower"),
    m("vsim.ns_per_event", "ns", "lower"),
    m("vsim.events_delivered", "count", "lower"),
    m("vsim.events_scheduled", "count", "lower"),
    m("vsim.events_cancelled", "count", "lower"),
    m("vcluster.quantum_s", "s", "lower"),
    m("vcluster.quantum_n", "count", "lower"),
    m("vkernel.frame_s", "s", "lower"),
    m("vkernel.frame_n", "count", "lower"),
    m("vservices.timer_s", "s", "lower"),
    m("vservices.timer_n", "count", "lower"),
    m("vnet.transmit_s", "s", "lower"),
    m("vnet.transmit_n", "count", "lower"),
    m("vkernel.timer_s", "s", "lower"),
    m("vkernel.timer_n", "count", "lower"),
    m("vsim.sample_s", "s", "lower"),
    m("vsim.sample_n", "count", "lower"),
    m("vcluster.audit_s", "s", "lower"),
    m("vcluster.audit_n", "count", "lower"),
    m("vcluster.command_s", "s", "lower"),
    m("vcluster.command_n", "count", "lower"),
    m("vcluster.fault_s", "s", "lower"),
    m("vcluster.fault_n", "count", "lower"),
    m("vworkload.sleep_s", "s", "lower"),
    m("vworkload.sleep_n", "count", "lower"),
    m("vworkload.owner_s", "s", "lower"),
    m("vworkload.owner_n", "count", "lower"),
    m("vsim.other_s", "s", "lower"),
    m("vsim.other_n", "count", "lower"),
    m("vworkload.profile_s", "s", "lower"),
    m("vcluster.new_s", "s", "lower"),
    m("vcluster.schedule_s", "s", "lower"),
    m("vcluster.final_audit_s", "s", "lower"),
    m("vcluster.metrics_report_s", "s", "lower"),
    m("vnet.frames_sent", "count", "lower"),
    m("vnet.payload_bytes", "bytes", "lower"),
    m("vnet.frames_dropped", "count", "lower"),
    m("vnet.wire_busy_frac", "ratio", "lower"),
    m("vkernel.sends", "count", "lower"),
    m("vkernel.retransmissions", "count", "lower"),
    m("vkernel.retransmit_ratio", "ratio", "lower"),
    m("vkernel.reply_pendings_sent", "count", "lower"),
    m("vkernel.binding_miss_ratio", "ratio", "lower"),
    m("vcore.exec_requests", "count", "higher"),
    m("vcore.exec_success_ratio", "ratio", "higher"),
    m("vcore.exec_selection_ms_p50", "ms", "lower"),
    m("vcore.migrations", "count", "higher"),
    m("vcore.migration_success_ratio", "ratio", "higher"),
    m("vcore.precopy_rounds_mean", "count", "lower"),
    m("vcore.freeze_ms_p50", "ms", "lower"),
    m("vcore.freeze_ms_p99", "ms", "lower"),
    m("vcore.network_mb", "MB", "lower"),
    m("vcluster.quanta", "count", "lower"),
    m("vcluster.programs_finished", "count", "higher"),
    m("vcluster.owner_evictions", "count", "lower"),
    m("vcluster.cpu_utilization_mean", "ratio", "higher"),
    m("vcluster.re_execs", "count", "lower"),
    m("vcluster.orphans_exterminated", "count", "lower"),
    m("trace.windows", "count", "lower"),
];

fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&mut v.into_iter().collect::<Vec<_>>(), 0.5)
}

/// The end-to-end values of an untraced measurement.
///
/// `op_fail_ratio` is `(failed + 1) / (attempted + 1)`: the add-one
/// estimate is never 0, so a bound relative to the parent's value stays
/// meaningful on workloads where no operation fails; one new failure
/// doubles it. The raw bases are the result line's `attempted`/`failed`.
pub fn end_to_end(m: &Measurement, peak_rss_kb: u64) -> Vec<(&'static str, f64)> {
    let o = &m.untraced[0].outcome;
    vec![
        (
            "wall_s_per_sim_hour",
            median(m.untraced.iter().map(Rep::wall_s_per_sim_hour)),
        ),
        ("setup_s", median(m.untraced.iter().map(|r| r.setup_s))),
        ("peak_rss_mb", peak_rss_kb as f64 / 1e3),
        (
            "op_fail_ratio",
            (o.failed + 1) as f64 / (o.attempted + 1) as f64,
        ),
    ]
}

/// The traced repetition whose run time is the median one; every
/// per-layer figure comes from this single repetition, so they add up.
pub fn median_traced(m: &Measurement) -> &Rep {
    let mut order: Vec<&Rep> = m.traced.iter().collect();
    order.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    order[(order.len() - 1) / 2]
}

/// The per-layer values of a traced measurement.
pub fn per_layer(m: &Measurement) -> Vec<(&'static str, f64)> {
    let rep = median_traced(m);
    let dispatch = rep.dispatch.as_ref().expect("traced repetitions profile");
    let mut out = vec![
        ("trace.run_s", rep.run_s),
        (
            "trace.overhead_ratio",
            rep.run_s / median(m.untraced.iter().map(|r| r.run_s)),
        ),
    ];
    let mut booked = 0.0;
    for (kinds, s_name, n_name) in LAYERS {
        let mine = |kind: &str| {
            if kinds.is_empty() {
                LAYERS.iter().all(|(k, _, _)| !k.contains(&kind))
            } else {
                kinds.contains(&kind)
            }
        };
        let (n, ns) = dispatch
            .slots
            .iter()
            .filter(|s| mine(s.kind))
            .fold((0, 0), |(n, ns), s| (n + s.dispatches, ns + s.wall_ns));
        let secs = ns as f64 / 1e9;
        booked += secs;
        out.push((s_name, secs));
        out.push((n_name, n as f64));
    }
    let queue_s = rep.run_s - booked;
    let events = rep.outcome.count("vsim.events_delivered");
    out.push(("vsim.queue_s", queue_s));
    out.push(("vsim.ns_per_event", queue_s * 1e9 / events.max(1.0)));
    out.extend([
        ("vworkload.profile_s", rep.profile_s),
        ("vcluster.new_s", rep.new_s),
        ("vcluster.schedule_s", rep.schedule_s),
        ("vcluster.final_audit_s", rep.audit_s),
        ("vcluster.metrics_report_s", rep.report_s),
        (
            "trace.windows",
            rep.spans.iter().filter(|s| s.name == "run.window").count() as f64,
        ),
    ]);
    out.extend(rep.outcome.counts.iter().copied());
    out
}

/// The final result line: one JSON object with the listed metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Metric],
    values: &[(&'static str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, spec) in specs.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map_or(f64::NAN, |&(_, v)| v);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            spec.name,
            json_number(v),
            spec.unit
        );
    }
    s.push_str("}}");
    s
}

/// A finite number in full precision; JSON has no NaN, so a missing or
/// non-finite value becomes `null` (and the run is reported incorrect).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The traced repetition's spans as Chrome-trace JSON (load it in
/// Perfetto or `chrome://tracing`).
pub fn chrome_trace(workload: &str, rep: &Rep) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let _ = write!(
        s,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
         \"args\": {{\"name\": \"clusterbench {workload}\"}}}}"
    );
    for span in &rep.spans {
        let _ = write!(
            s,
            ",\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {}, \"dur\": {}, \"args\": {{",
            span.name,
            json_number(span.start_ns as f64 / 1e3),
            json_number(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3)
        );
        for (i, (k, v)) in span.args.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {}", json_number(*v));
        }
        s.push_str("}}");
    }
    s.push_str("\n]}\n");
    s
}
