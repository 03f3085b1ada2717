//! Causal-span well-formedness over whole cluster runs.
//!
//! The span layer (see `vsim::span`) is only trustworthy if the
//! instrumentation keeps its books: every close matches an open, children
//! nest inside their parents, and the migrator's phase spans tile the
//! root migration span exactly (each phase closes the instant the next
//! opens). These tests drive real cluster runs and hold the cluster span
//! tree to those rules.

use v_system::prelude::*;

fn span_cluster(seed: u64, level: TraceLevel) -> Cluster {
    Cluster::new(ClusterConfig {
        workstations: 3,
        seed,
        loss: LossModel::None,
        trace: level,
        ..ClusterConfig::default()
    })
}

/// Launches a guest program on ws2 and migrates it to ws3's pick.
fn run_one_migration(c: &mut Cluster) {
    c.exec(
        1,
        profiles::simulation_profile(SimDuration::from_secs(600)),
        ExecTarget::Named("ws2".into()),
        Priority::GUEST,
    );
    c.run_for(SimDuration::from_secs(10));
    let lh = c.exec_reports[0].lh.expect("program created");
    c.migrateprog(2, lh, false);
    c.run_for(SimDuration::from_secs(60));
    assert!(c.migration_reports.iter().any(|r| r.success));
}

/// A fault-free detail-level run produces a span tree with no structural
/// violations and strictly nested intervals; only in-flight IPC may be
/// left open at the (arbitrary) stop instant — never a migration phase.
#[test]
fn fault_free_detail_run_is_well_formed_and_nested() {
    let mut c = span_cluster(11, TraceLevel::Detail);
    run_one_migration(&mut c);
    let tree = c.span_tree();
    assert!(!tree.is_empty(), "detail run must record spans");
    let violations = tree.validate();
    assert!(violations.is_empty(), "{violations:?}");
    let nesting = tree.validate_nesting();
    assert!(nesting.is_empty(), "{nesting:?}");
    for open in tree.unclosed() {
        assert!(
            matches!(open.name, "ipc" | "serve"),
            "only in-flight IPC may be open at cutoff, found {:?} ({})",
            open.name,
            open.id
        );
    }
}

/// The migrator's phase spans tile the root exactly: top-level phases sum
/// to the root `migration` span and freeze sub-phases sum to `freeze`,
/// with zero error — which is what lets experiment breakdowns account for
/// every microsecond of a migration.
#[test]
fn migration_phase_spans_tile_the_root_exactly() {
    let mut c = span_cluster(23, TraceLevel::Info);
    run_one_migration(&mut c);
    let tree = c.span_tree();
    let root = tree
        .spans_named("migration")
        .next()
        .expect("root migration span");
    let total = tree.duration_of(root.id).expect("migration closed");
    assert!(!total.is_zero());
    let phase_sum: SimDuration = tree.breakdown(root.id).into_iter().map(|(_, d)| d).sum();
    assert_eq!(phase_sum, total, "phases must tile the migration span");
    let names: Vec<&str> = tree.children(root.id).map(|n| n.name).collect();
    for expected in ["selection", "initialization", "precopy_round", "freeze"] {
        assert!(names.contains(&expected), "missing phase {expected:?}");
    }
    let freeze = tree
        .children(root.id)
        .find(|n| n.name == "freeze")
        .expect("freeze phase");
    let freeze_total = tree.duration_of(freeze.id).expect("freeze closed");
    let sub_sum: SimDuration = tree.breakdown(freeze.id).into_iter().map(|(_, d)| d).sum();
    assert_eq!(sub_sum, freeze_total, "sub-phases must tile the freeze");
    let sub_names: Vec<&str> = tree.children(freeze.id).map(|n| n.name).collect();
    assert_eq!(sub_names, ["residual_copy", "commit", "rebind"]);
}

/// A remote Send/Receive/Reply round-trip is one causal tree across
/// stations: the server's `serve` span is a child of the client's `ipc`
/// span, carried over the wire by the span context on request frames.
#[test]
fn remote_ipc_spans_link_across_stations() {
    let mut c = span_cluster(31, TraceLevel::Detail);
    run_one_migration(&mut c);
    let tree = c.span_tree();
    let mut cross_station_links = 0usize;
    for serve in tree.spans_named("serve") {
        let parent = serve
            .parent
            .span_id()
            .expect("serve spans always have an ipc parent");
        let ipc = tree.get(parent).expect("parent present in the tree");
        assert_eq!(ipc.name, "ipc");
        if ipc.host != serve.host {
            cross_station_links += 1;
        }
    }
    assert!(
        cross_station_links > 0,
        "a migration involves remote IPC, so some serve spans must live \
         on a different station than their ipc parent"
    );
}

/// Span ids are globally unique across components: every id in the cluster
/// tree appears exactly once even though kernels, migrators, and the
/// cluster scheduler allocate independently.
#[test]
fn span_ids_are_globally_unique_across_components() {
    let mut c = span_cluster(47, TraceLevel::Detail);
    run_one_migration(&mut c);
    let tree = c.span_tree();
    let mut seen = std::collections::BTreeSet::new();
    for n in tree.nodes() {
        assert!(seen.insert(n.id.raw()), "duplicate span id {}", n.id);
    }
    assert!(seen.len() > 10, "expected a busy tree, got {}", seen.len());
}
