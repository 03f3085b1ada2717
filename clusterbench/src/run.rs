//! One repetition of a workload: set up a cluster, run it over the
//! simulated span, then audit and summarise it.
//!
//! Every layer is timed from outside, around the benchmark's own calls
//! into public functions. A traced repetition also injects a host clock
//! through [`Cluster::set_host_clock`], so the cluster's dispatch profiler
//! attributes run time to each top-level event kind, and it keeps one span
//! per call and per simulated window for the Chrome-trace file.

use std::time::Instant;

use vcluster::{Cluster, Command};
use vsim::{HostClock, MetricsReport, ProfileReport, SimDuration, SimTime, Subsystem};

use crate::workload::Workload;

/// Simulated windows the run phase is split into (fixed-length windows
/// of the span; draining continues in windows of [`DRAIN_WINDOW`]).
const WINDOWS: u64 = 20;
const DRAIN_WINDOW: SimDuration = SimDuration::from_secs(30);
/// A drain that has not quiesced by then is reported as incorrect.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(6 * 3600);

/// Self-re-arming event kinds that never start other work.
const PERIODIC: [&str; 2] = ["AuditTick", "SampleTick"];

/// The host clock handed to the cluster in traced repetitions.
struct WallClock(Instant);

impl HostClock for WallClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
    fn label(&self) -> &'static str {
        "monotonic"
    }
}

/// A host-time span of a traced repetition.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`setup`, `vcluster.new`, `run.window`, ...).
    pub name: &'static str,
    /// Start, host nanoseconds since the repetition began.
    pub start_ns: u64,
    /// End, host nanoseconds since the repetition began.
    pub end_ns: u64,
    /// Numeric annotations (simulated window bounds, per-kind deltas).
    pub args: Vec<(String, f64)>,
}

/// Everything measured in one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds building the schedule through `vworkload`.
    pub profile_s: f64,
    /// Host seconds in `Cluster::new`.
    pub new_s: f64,
    /// Host seconds in the `Cluster::at` calls.
    pub schedule_s: f64,
    /// Host seconds of the whole set-up (the three above).
    pub setup_s: f64,
    /// Host seconds in `run_until` / `run_for` only.
    pub run_s: f64,
    /// Host seconds in the final `Cluster::audit`.
    pub audit_s: f64,
    /// Host seconds in the final `Cluster::metrics_report`.
    pub report_s: f64,
    /// Simulated seconds the run phase covered.
    pub sim_s: f64,
    /// Per-event-kind dispatch attribution (traced repetitions only).
    pub dispatch: Option<ProfileReport>,
    /// Spans for the Chrome trace (traced repetitions only).
    pub spans: Vec<Span>,
    /// The checked simulated outcome.
    pub outcome: Outcome,
}

impl Rep {
    /// Host seconds of run phase per simulated hour.
    pub fn wall_s_per_sim_hour(&self) -> f64 {
        self.run_s / (self.sim_s / 3600.0)
    }
}

/// The simulated outcome of a repetition: a digest, the audit verdict,
/// the operation accounting and the per-layer counts. All of it is
/// deterministic for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest of exec/migration reports, programs finished and the
    /// wire, kernel and migration counters (not engine event counts and
    /// not telemetry series).
    pub digest: u64,
    /// Violations found by the final audit: `Cluster::audit(true)` after a
    /// drain, the checkpoint audit `Cluster::audit(false)` otherwise.
    pub audit_violations: Vec<String>,
    /// True when a draining workload reached quiescence.
    pub quiesced: bool,
    /// Exec requests plus `migrateprog` requests that found a program.
    pub attempted: u64,
    /// Attempted operations with `success == false` or no report.
    pub failed: u64,
    /// Per-layer counts and ratios, by metric name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// A named count.
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Runs one repetition of `workload` over `span` for `seed`.
pub fn run(workload: Workload, seed: u64, span: SimDuration, traced: bool) -> Rep {
    let origin = Instant::now();
    let ns = |t: Instant| u64::try_from(t.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
    let mut spans = Vec::new();

    let schedule = workload.schedule(seed, span);
    let t_profiles = Instant::now();
    let mut c = Cluster::new(workload.config(seed, span));
    let t_new = Instant::now();
    let mut execs = 0u64;
    let mut migrates = false;
    for (t, cmd) in schedule {
        match cmd {
            Command::Exec { .. } => execs += 1,
            Command::Migrate { .. } => migrates = true,
            _ => {}
        }
        c.at(t, cmd);
    }
    let t_setup = Instant::now();
    spans.push(span_between("setup", ns(origin), ns(t_setup)));
    spans.push(span_between(
        "vworkload.profile",
        ns(origin),
        ns(t_profiles),
    ));
    spans.push(span_between("vcluster.new", ns(t_profiles), ns(t_new)));
    spans.push(span_between("vcluster.schedule", ns(t_new), ns(t_setup)));

    if traced {
        c.set_host_clock(Box::new(WallClock(Instant::now())));
    }
    let end = SimTime::ZERO + span;
    let window = span / WINDOWS;
    let mut before = traced.then(|| c.profile_report());
    let mut window_start = Instant::now();
    let run_start = window_start;
    let mut quiesced = !workload.drains();
    let mut dispatched = busy_dispatches(&c);
    loop {
        let from = c.now();
        if from < end {
            c.run_for(window.min(end.since(from)));
        } else if !quiesced && from.since(SimTime::ZERO) <= DRAIN_LIMIT {
            c.run_for(DRAIN_WINDOW);
            // Audit and sampling ticks re-arm while anything is pending,
            // so with both enabled they keep each other alive: the drain
            // ends at the first window with nothing else to dispatch.
            let now = busy_dispatches(&c);
            quiesced = c.pending() == 0 || now == dispatched;
            dispatched = now;
        } else {
            break;
        }
        if let Some(prev) = before.as_mut() {
            let now = c.profile_report();
            let window_end = Instant::now();
            let mut s = span_between("run.window", ns(window_start), ns(window_end));
            s.args.push(("sim_from_s".into(), from.as_secs_f64()));
            s.args.push(("sim_to_s".into(), c.now().as_secs_f64()));
            s.args.extend(kind_deltas(prev, &now));
            spans.push(s);
            *prev = now;
            window_start = Instant::now();
        }
    }
    let run_end = Instant::now();
    spans.push(span_between("run", ns(run_start), ns(run_end)));
    let sim = c.now().since(SimTime::ZERO);

    let dispatch = traced.then(|| c.profile_report());
    // The quiescence checks (drained transaction tables, no temporaries)
    // hold only once the queue is empty; a run cut at the end of its span
    // legitimately has transactions in flight.
    let audit = c.audit(workload.drains());
    let t_audit = Instant::now();
    let report = c.metrics_report();
    let t_report = Instant::now();
    spans.push(span_between("final.audit", ns(run_end), ns(t_audit)));
    spans.push(span_between(
        "final.metrics_report",
        ns(t_audit),
        ns(t_report),
    ));

    let outcome = summarise(
        &c,
        &report,
        sim,
        execs,
        migrates,
        audit.violations.iter().map(|v| format!("{v:?}")).collect(),
        quiesced,
    );
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Rep {
        profile_s: secs(origin, t_profiles),
        new_s: secs(t_profiles, t_new),
        schedule_s: secs(t_new, t_setup),
        setup_s: secs(origin, t_setup),
        run_s: secs(run_start, run_end),
        audit_s: secs(run_end, t_audit),
        report_s: secs(t_audit, t_report),
        sim_s: sim.as_secs_f64(),
        dispatch,
        spans: if traced { spans } else { Vec::new() },
        outcome,
    }
}

/// Dispatches so far of every event kind except the periodic ticks.
fn busy_dispatches(c: &Cluster) -> u64 {
    c.profile_report()
        .slots
        .iter()
        .filter(|s| !PERIODIC.contains(&s.kind))
        .map(|s| s.dispatches)
        .sum()
}

fn span_between(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        args: Vec::new(),
    }
}

/// Per-kind dispatch count and host-time deltas between two snapshots.
fn kind_deltas(before: &ProfileReport, after: &ProfileReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for s in &after.slots {
        let (n0, w0) = before
            .slot(s.kind)
            .map_or((0, 0), |b| (b.dispatches, b.wall_ns));
        let n = s.dispatches - n0;
        if n > 0 {
            out.push((format!("{}_n", s.kind), n as f64));
            out.push((format!("{}_ms", s.kind), (s.wall_ns - w0) as f64 / 1e6));
        }
    }
    out
}

/// FNV-1a over the simulated outcome.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Counters the digest covers, by subsystem, summed over every scope.
const DIGEST_COUNTERS: [(Subsystem, &str); 21] = [
    (Subsystem::Cluster, "programs_finished"),
    (Subsystem::Net, "frames_sent"),
    (Subsystem::Net, "frames_delivered"),
    (Subsystem::Net, "frames_dropped_loss"),
    (Subsystem::Net, "frames_dropped_down"),
    (Subsystem::Net, "frames_dropped_partition"),
    (Subsystem::Net, "frames_corrupted"),
    (Subsystem::Net, "payload_bytes"),
    (Subsystem::Net, "wire_busy_us"),
    (Subsystem::Kernel, "sends"),
    (Subsystem::Kernel, "replies"),
    (Subsystem::Kernel, "deliveries"),
    (Subsystem::Kernel, "retransmissions"),
    (Subsystem::Kernel, "reply_pendings_sent"),
    (Subsystem::Kernel, "binding_cache_hits"),
    (Subsystem::Kernel, "binding_cache_misses"),
    (Subsystem::Kernel, "orphaned_transactions"),
    (Subsystem::Migration, "started"),
    (Subsystem::Migration, "succeeded"),
    (Subsystem::Migration, "failed"),
    (Subsystem::Migration, "retried"),
];

fn digest(c: &Cluster, report: &MetricsReport) -> u64 {
    let mut d = Digest::new();
    let us = |t: SimDuration| t.as_micros();
    for r in &c.exec_reports {
        d.str(&r.image);
        d.u64(u64::from(r.success));
        d.u64(r.chosen_host.map_or(u64::MAX, |h| u64::from(h.0)));
        d.u64(r.lh.map_or(u64::MAX, |l| u64::from(l.0)));
        for t in [
            r.selection_time,
            r.creation_time,
            r.start_time,
            r.total_time,
        ] {
            d.u64(us(t));
        }
    }
    for m in &c.migration_reports {
        d.str(&m.image);
        d.u64(u64::from(m.lh.0));
        d.u64(u64::from(m.from_host.0));
        d.u64(m.to_host.map_or(u64::MAX, |h| u64::from(h.0)));
        d.u64(u64::from(m.success));
        for i in &m.iterations {
            d.u64(i.bytes);
            d.u64(us(i.duration));
        }
        d.u64(m.residual_bytes);
        d.u64(m.network_bytes);
        for t in [m.freeze_time, m.kernel_state_cost, m.total_time] {
            d.u64(us(t));
        }
    }
    for (sub, name) in DIGEST_COUNTERS {
        d.u64(report.counter_total(sub, name));
    }
    d.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile of `v` (nearest rank); 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn summarise(
    c: &Cluster,
    report: &MetricsReport,
    sim: SimDuration,
    execs: u64,
    migrates: bool,
    audit_violations: Vec<String>,
    quiesced: bool,
) -> Outcome {
    let ctr = |sub, name| report.counter_total(sub, name) as f64;
    let ms = |t: SimDuration| t.as_secs_f64() * 1e3;

    let exec_ok = c.exec_reports.iter().filter(|r| r.success).count() as u64;
    let mig_ok = c.migration_reports.iter().filter(|m| m.success).count() as u64;
    // `migrateprog` operations: migrations started other than owner
    // evictions. Workloads that issue `migrateprog` have no owners, so
    // every successful migration report answers one of them.
    let evictions = report.counter_total(Subsystem::Cluster, "owner_evictions");
    let mig_ops = if migrates {
        report
            .counter_total(Subsystem::Migration, "started")
            .saturating_sub(evictions)
    } else {
        0
    };
    let attempted = execs + mig_ops;
    // A re-execution after a presumed crash adds a report of its own, so
    // exec failures are the requests without a successful report.
    let failed = execs.saturating_sub(exec_ok) + mig_ops.saturating_sub(mig_ok);

    let mut selection: Vec<f64> = c
        .exec_reports
        .iter()
        .filter(|r| r.success)
        .map(|r| ms(r.selection_time))
        .collect();
    let mut freeze: Vec<f64> = c
        .migration_reports
        .iter()
        .filter(|m| m.success)
        .map(|m| ms(m.freeze_time))
        .collect();
    let rounds: f64 = c
        .migration_reports
        .iter()
        .map(|m| m.iterations.len() as f64)
        .sum();
    let network: u64 = c.migration_reports.iter().map(|m| m.network_bytes).sum();
    let utilization: Vec<f64> = report
        .scopes
        .iter()
        .filter(|s| s.scope.starts_with("ws"))
        .filter_map(|s| s.gauge(Subsystem::Cluster, "cpu_utilization"))
        .collect();
    let sends = ctr(Subsystem::Kernel, "sends");
    let hits = ctr(Subsystem::Kernel, "binding_cache_hits");
    let misses = ctr(Subsystem::Kernel, "binding_cache_misses");
    let migrations = c.migration_reports.len() as f64;
    let counts = vec![
        (
            "vsim.events_delivered",
            ctr(Subsystem::Engine, "events_delivered"),
        ),
        (
            "vsim.events_scheduled",
            ctr(Subsystem::Engine, "events_scheduled"),
        ),
        (
            "vsim.events_cancelled",
            ctr(Subsystem::Engine, "events_cancelled"),
        ),
        ("vnet.frames_sent", ctr(Subsystem::Net, "frames_sent")),
        ("vnet.payload_bytes", ctr(Subsystem::Net, "payload_bytes")),
        (
            "vnet.frames_dropped",
            ctr(Subsystem::Net, "frames_dropped_loss")
                + ctr(Subsystem::Net, "frames_dropped_down")
                + ctr(Subsystem::Net, "frames_dropped_partition"),
        ),
        (
            "vnet.wire_busy_frac",
            ratio(ctr(Subsystem::Net, "wire_busy_us"), sim.as_micros() as f64),
        ),
        ("vkernel.sends", sends),
        (
            "vkernel.retransmissions",
            ctr(Subsystem::Kernel, "retransmissions"),
        ),
        (
            "vkernel.retransmit_ratio",
            ratio(ctr(Subsystem::Kernel, "retransmissions"), sends),
        ),
        (
            "vkernel.reply_pendings_sent",
            ctr(Subsystem::Kernel, "reply_pendings_sent"),
        ),
        ("vkernel.binding_miss_ratio", ratio(misses, hits + misses)),
        ("vcore.exec_requests", c.exec_reports.len() as f64),
        (
            "vcore.exec_success_ratio",
            ratio(exec_ok as f64, c.exec_reports.len() as f64),
        ),
        ("vcore.exec_selection_ms_p50", quantile(&mut selection, 0.5)),
        ("vcore.migrations", migrations),
        (
            "vcore.migration_success_ratio",
            ratio(mig_ok as f64, migrations),
        ),
        ("vcore.precopy_rounds_mean", ratio(rounds, migrations)),
        ("vcore.freeze_ms_p50", quantile(&mut freeze, 0.5)),
        ("vcore.freeze_ms_p99", quantile(&mut freeze, 0.99)),
        ("vcore.network_mb", network as f64 / 1e6),
        (
            "vcluster.quanta",
            ctr(Subsystem::Cluster, "quanta_local") + ctr(Subsystem::Cluster, "quanta_guest"),
        ),
        (
            "vcluster.programs_finished",
            ctr(Subsystem::Cluster, "programs_finished"),
        ),
        ("vcluster.owner_evictions", evictions as f64),
        (
            "vcluster.cpu_utilization_mean",
            ratio(utilization.iter().sum(), utilization.len() as f64),
        ),
        ("vcluster.re_execs", c.stats.re_execs as f64),
        (
            "vcluster.orphans_exterminated",
            c.stats.orphans_exterminated as f64,
        ),
    ];
    Outcome {
        digest: digest(c, report),
        audit_violations,
        quiesced,
        attempted,
        failed,
        counts,
    }
}
