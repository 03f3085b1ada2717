//! Causal spans over the trace log.
//!
//! The paper's headline numbers are latency *decompositions* — freeze time
//! split into residual copy, commit, and rebind (§4.2); remote-execution
//! overhead split per message exchange (§5) — but [`Trace`]
//! is a flat event stream. This module layers Dapper-style causal spans on
//! top of it: a span is a named interval opened and closed by two trace
//! records ([`TraceEvent::SpanOpen`] / [`TraceEvent::SpanClose`]) linked to
//! a parent by id, and [`SpanTree`] reconstructs the hierarchy post hoc
//! from a trace. An interval known only once it is over (a CPU quantum)
//! is one [`TraceEvent::SpanDone`] record stamped at its close.
//!
//! Spans ride the existing trace machinery on purpose: they inherit its
//! determinism, its level filter (per-packet IPC spans are `Detail`,
//! migration phases are `Info`), and its one shared buffer per cluster,
//! so the spans of every station land in one timeline. A
//! [`SpanContext`] is a single `u64` id, cheap enough to stamp on every
//! network frame, so one remote Send/Receive/Reply round trip becomes one
//! tree spanning several stations.
//!
//! Id allocation is deterministic: each emitting component owns a
//! [`SpanIdGen`] seeded with a unique actor number, and ids are
//! `actor << 40 | counter`, so replays produce identical trees and ids
//! from different components never collide.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};
use crate::trace::{Subsystem, Trace, TraceEvent, TraceLevel};

/// Identifier of one span. Never zero; zero is reserved for "no span"
/// (see [`SpanContext::NONE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw id (non-zero).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The context carrying this span as a parent for children.
    pub fn ctx(self) -> SpanContext {
        SpanContext(self.0)
    }

    /// Emits the open record for this span.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        self,
        trace: &mut Trace,
        level: TraceLevel,
        at: SimTime,
        subsystem: Subsystem,
        parent: SpanContext,
        name: &'static str,
        host: u16,
    ) {
        trace.emit(
            level,
            at,
            subsystem,
            TraceEvent::SpanOpen {
                id: self.0,
                parent: parent.0,
                name,
                host,
            },
        );
    }

    /// Emits the close record for this span.
    pub fn close(self, trace: &mut Trace, level: TraceLevel, at: SimTime, subsystem: Subsystem) {
        trace.emit(level, at, subsystem, TraceEvent::SpanClose { id: self.0 });
    }

    /// Emits this span whole at its close instant `at`, for an interval
    /// that is only known once it is over (it opened at `opened`).
    #[allow(clippy::too_many_arguments)]
    pub fn done(
        self,
        trace: &mut Trace,
        level: TraceLevel,
        opened: SimTime,
        at: SimTime,
        subsystem: Subsystem,
        parent: SpanContext,
        name: &'static str,
        host: u16,
    ) {
        trace.emit(
            level,
            at,
            subsystem,
            TraceEvent::SpanDone {
                id: self.0,
                parent: parent.0,
                name,
                host,
                opened,
            },
        );
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:x}", self.0)
    }
}

/// A propagated causal reference: "the work you are about to do is part of
/// span X". Stamped on network frames and IPC transactions; `NONE` (id 0)
/// means unparented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanContext(u64);

impl SpanContext {
    /// The absent context: children opened under it become roots.
    pub const NONE: SpanContext = SpanContext(0);

    /// The context referring to span `id`.
    pub fn of(id: SpanId) -> Self {
        SpanContext(id.0)
    }

    /// True when this context refers to no span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True when this context refers to a span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The raw id (zero when none).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The span this context refers to, when it refers to one. Lets a
    /// component that received a context over the wire adopt the span as
    /// its own (e.g. a migrated transaction re-homed on the target kernel).
    pub fn span_id(self) -> Option<SpanId> {
        if self.0 == 0 {
            None
        } else {
            Some(SpanId(self.0))
        }
    }
}

/// Deterministic span-id allocator.
///
/// Each component that opens spans owns one generator with a cluster-unique
/// `actor` number; ids are `actor << 40 | counter` so ids from different
/// stations never collide in a cluster's trace and replays allocate
/// identically.
#[derive(Debug, Clone)]
pub struct SpanIdGen {
    actor: u64,
    next: u64,
}

impl SpanIdGen {
    /// Creates a generator for `actor` (must be non-zero and below 2^24).
    ///
    /// # Panics
    ///
    /// Panics if `actor` is 0 or not below 2^24.
    pub fn new(actor: u64) -> Self {
        assert!(actor != 0, "actor 0 would alias SpanContext::NONE");
        assert!(actor < (1 << 24), "actor out of range");
        SpanIdGen { actor, next: 0 }
    }

    /// Allocates the next id.
    ///
    /// Not an `Iterator`: allocation never ends and must not be confused
    /// with iteration over existing spans.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> SpanId {
        self.next += 1;
        SpanId((self.actor << 40) | self.next)
    }
}

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span's id.
    pub id: SpanId,
    /// Parent reference recorded at open time (`NONE` for roots).
    pub parent: SpanContext,
    /// Static span name ("migration", "precopy_round", "ipc", ...).
    pub name: &'static str,
    /// Physical-host address of the component that opened it.
    pub host: u16,
    /// Open instant.
    pub open: SimTime,
    /// Close instant; `None` when no close record was seen.
    pub close: Option<SimTime>,
    children: Vec<usize>,
}

impl SpanNode {
    /// Open-to-close duration; `None` while unclosed.
    pub fn duration(&self) -> Option<SimDuration> {
        self.close.map(|c| c.saturating_since(self.open))
    }
}

/// A structural defect found by [`SpanTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanViolation {
    /// A `SpanClose` record had no preceding matching `SpanOpen`.
    CloseWithoutOpen {
        /// Offending raw span id.
        id: u64,
    },
    /// The same id was opened twice.
    DuplicateOpen {
        /// Offending raw span id.
        id: u64,
    },
    /// A span referenced a parent id that was never opened.
    OrphanParent {
        /// Child raw span id.
        id: u64,
        /// Missing parent raw id.
        parent: u64,
    },
    /// A child span opened before its parent did.
    ChildBeforeParent {
        /// Child raw span id.
        id: u64,
    },
    /// A closed child's interval extends outside its closed parent's
    /// (reported by [`SpanTree::validate_nesting`] only: a server-side
    /// span legitimately outlives a client that timed out under faults).
    ChildOutsideParent {
        /// Child raw span id.
        id: u64,
    },
}

impl fmt::Display for SpanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanViolation::CloseWithoutOpen { id } => {
                write!(f, "close without open: #{id:x}")
            }
            SpanViolation::DuplicateOpen { id } => write!(f, "duplicate open: #{id:x}"),
            SpanViolation::OrphanParent { id, parent } => {
                write!(f, "span #{id:x} references unknown parent #{parent:x}")
            }
            SpanViolation::ChildBeforeParent { id } => {
                write!(f, "span #{id:x} opened before its parent")
            }
            SpanViolation::ChildOutsideParent { id } => {
                write!(f, "span #{id:x} closed outside its parent's interval")
            }
        }
    }
}

/// The span hierarchy reconstructed from a trace.
///
/// # Examples
///
/// ```
/// use vsim::{SimTime, SpanContext, SpanIdGen, SpanTree, Subsystem, Trace, TraceLevel};
///
/// let mut trace = Trace::new(TraceLevel::Info);
/// let mut gen = SpanIdGen::new(1);
/// let root = gen.next();
/// let child = gen.next();
/// root.open(&mut trace, TraceLevel::Info, SimTime::ZERO,
///           Subsystem::Migration, SpanContext::NONE, "migration", 1);
/// child.open(&mut trace, TraceLevel::Info, SimTime::from_micros(10),
///            Subsystem::Migration, root.ctx(), "freeze", 1);
/// child.close(&mut trace, TraceLevel::Info, SimTime::from_micros(40), Subsystem::Migration);
/// root.close(&mut trace, TraceLevel::Info, SimTime::from_micros(50), Subsystem::Migration);
///
/// let tree = SpanTree::build(&trace);
/// assert_eq!(tree.roots().count(), 1);
/// assert_eq!(tree.duration_of(child).unwrap().as_micros(), 30);
/// assert!(tree.validate().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    by_id: BTreeMap<u64, usize>,
    roots: Vec<usize>,
    violations: Vec<SpanViolation>,
}

impl SpanTree {
    /// Reconstructs spans from every `SpanOpen`/`SpanClose`/`SpanDone`
    /// record in `trace`. Structural defects are collected (see
    /// [`Self::validate`]) rather than panicking, so faulty traces can
    /// still be inspected.
    pub fn build(trace: &Trace) -> SpanTree {
        let mut t = SpanTree::default();
        for r in trace.records().iter() {
            // No wildcard arm: a new `TraceEvent` variant must state
            // here whether it carries span structure.
            match &r.event {
                TraceEvent::SpanOpen {
                    id,
                    parent,
                    name,
                    host,
                } => t.insert(*id, *parent, name, *host, r.at, None),
                TraceEvent::SpanDone {
                    id,
                    parent,
                    name,
                    host,
                    opened,
                } => t.insert(*id, *parent, name, *host, *opened, Some(r.at)),
                TraceEvent::SpanClose { id } => match t.by_id.get(id) {
                    Some(&idx) if t.nodes[idx].close.is_none() => {
                        t.nodes[idx].close = Some(r.at);
                    }
                    // A second close for an already-closed id is as
                    // unmatched as a close with no open at all.
                    _ => t
                        .violations
                        .push(SpanViolation::CloseWithoutOpen { id: *id }),
                },
                TraceEvent::ExecDone { .. }
                | TraceEvent::ProgramStarted { .. }
                | TraceEvent::Adopted { .. }
                | TraceEvent::Rebind { .. }
                | TraceEvent::MigrationDone { .. }
                | TraceEvent::Freeze { .. }
                | TraceEvent::Unfreeze { .. }
                | TraceEvent::PrecopyRound { .. }
                | TraceEvent::ResidualCopy { .. }
                | TraceEvent::FrameDropped { .. }
                | TraceEvent::Retransmit { .. }
                | TraceEvent::ReplyDeferred { .. }
                | TraceEvent::Unroutable { .. }
                | TraceEvent::BehaviorMissing { .. }
                | TraceEvent::CorruptFrame { .. }
                | TraceEvent::FaultInjected { .. }
                | TraceEvent::OrphanedTransaction { .. }
                | TraceEvent::AuditViolation { .. }
                | TraceEvent::MigrationRetry { .. }
                | TraceEvent::LeaseExpired { .. }
                | TraceEvent::OrphanExterminated { .. }
                | TraceEvent::LeaseRebound { .. }
                | TraceEvent::ReExecuted { .. }
                | TraceEvent::FaultPointHit { .. }
                | TraceEvent::OrphansResolved { .. }
                | TraceEvent::Note { .. } => {}
            }
        }
        for idx in 0..t.nodes.len() {
            let parent = t.nodes[idx].parent;
            if parent.is_none() {
                t.roots.push(idx);
            } else {
                match t.by_id.get(&parent.raw()) {
                    Some(&p) => {
                        t.nodes[p].children.push(idx);
                        if t.nodes[idx].open < t.nodes[p].open {
                            t.violations.push(SpanViolation::ChildBeforeParent {
                                id: t.nodes[idx].id.raw(),
                            });
                        }
                    }
                    None => {
                        // Keep the span reachable as a root so partial
                        // traces stay inspectable.
                        t.violations.push(SpanViolation::OrphanParent {
                            id: t.nodes[idx].id.raw(),
                            parent: parent.raw(),
                        });
                        t.roots.push(idx);
                    }
                }
            }
        }
        t
    }

    /// Adds a node for a span opened at `open` (and, for a span recorded
    /// whole, closed at `close`).
    fn insert(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        host: u16,
        open: SimTime,
        close: Option<SimTime>,
    ) {
        if self.by_id.contains_key(&id) {
            self.violations.push(SpanViolation::DuplicateOpen { id });
            return;
        }
        self.by_id.insert(id, self.nodes.len());
        self.nodes.push(SpanNode {
            id: SpanId(id),
            parent: SpanContext(parent),
            name,
            host,
            open,
            close,
            children: Vec::new(),
        });
    }

    /// All spans, in record order: by open record, or by close record
    /// for a span recorded whole.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// True when the trace held no span records.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The span with id `id`.
    pub fn get(&self, id: SpanId) -> Option<&SpanNode> {
        self.by_id.get(&id.raw()).map(|&i| &self.nodes[i])
    }

    /// Spans with no (known) parent, in record order.
    pub fn roots(&self) -> impl Iterator<Item = &SpanNode> {
        self.roots.iter().map(move |&i| &self.nodes[i])
    }

    /// Direct children of `id`, in record order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &SpanNode> {
        let kids = self
            .by_id
            .get(&id.raw())
            .map(|&i| self.nodes[i].children.as_slice())
            .unwrap_or(&[]);
        kids.iter().map(move |&i| &self.nodes[i])
    }

    /// Spans named `name`, in record order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanNode> {
        self.nodes.iter().filter(move |n| n.name == name)
    }

    /// Open-to-close duration of span `id` (`None` if unknown or unclosed).
    pub fn duration_of(&self, id: SpanId) -> Option<SimDuration> {
        self.get(id).and_then(|n| n.duration())
    }

    /// Sums the durations of `id`'s direct children grouped by span name,
    /// in first-record order — the per-phase decomposition of a root span.
    pub fn breakdown(&self, id: SpanId) -> Vec<(&'static str, SimDuration)> {
        let mut order: Vec<&'static str> = Vec::new();
        let mut totals: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
        for c in self.children(id) {
            if let Some(d) = c.duration() {
                if !totals.contains_key(c.name) {
                    order.push(c.name);
                }
                *totals.entry(c.name).or_insert(SimDuration::ZERO) += d;
            }
        }
        order.into_iter().map(|n| (n, totals[n])).collect()
    }

    /// Spans with no close record.
    pub fn unclosed(&self) -> impl Iterator<Item = &SpanNode> {
        self.nodes.iter().filter(|n| n.close.is_none())
    }

    /// Structural defects: unmatched closes, duplicate opens, orphan
    /// parent references, children opening before their parents. Sound
    /// even for faulty runs — a crashed station may leave spans *unclosed*
    /// (query with [`Self::unclosed`]), but never ill-formed.
    pub fn validate(&self) -> Vec<SpanViolation> {
        self.violations.clone()
    }

    /// [`Self::validate`] plus strict interval nesting: every closed child
    /// must close within its closed parent's interval. Holds on fault-free
    /// runs; under injected faults a server span can legitimately outlive
    /// a timed-out client span.
    pub fn validate_nesting(&self) -> Vec<SpanViolation> {
        let mut v = self.validate();
        for n in &self.nodes {
            if n.parent.is_none() {
                continue;
            }
            if let (Some(p), Some(close)) = (self.get_by_raw(n.parent.raw()), n.close) {
                if let Some(pclose) = p.close {
                    if close > pclose {
                        v.push(SpanViolation::ChildOutsideParent { id: n.id.raw() });
                    }
                }
            }
        }
        v
    }

    fn get_by_raw(&self, id: u64) -> Option<&SpanNode> {
        self.by_id.get(&id).map(|&i| &self.nodes[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(t: &mut Trace, id: SpanId, parent: SpanContext, name: &'static str, at: u64) {
        id.open(
            t,
            TraceLevel::Info,
            SimTime::from_micros(at),
            Subsystem::Migration,
            parent,
            name,
            1,
        );
    }

    fn close(t: &mut Trace, id: SpanId, at: u64) {
        id.close(
            t,
            TraceLevel::Info,
            SimTime::from_micros(at),
            Subsystem::Migration,
        );
    }

    #[test]
    fn id_generator_is_unique_and_deterministic() {
        let mut a = SpanIdGen::new(1);
        let mut b = SpanIdGen::new(2);
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                if i % 2 == 0 {
                    a.next().raw()
                } else {
                    b.next().raw()
                }
            })
            .collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids collided: {ids:?}");
        let mut a2 = SpanIdGen::new(1);
        assert_eq!(a2.next().raw(), ids[0]);
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn actor_zero_is_rejected() {
        SpanIdGen::new(0);
    }

    #[test]
    fn builds_tree_with_durations_and_breakdown() {
        let mut t = Trace::new(TraceLevel::Info);
        let mut g = SpanIdGen::new(1);
        let root = g.next();
        let (a, b, c) = (g.next(), g.next(), g.next());
        open(&mut t, root, SpanContext::NONE, "migration", 0);
        open(&mut t, a, root.ctx(), "precopy_round", 0);
        close(&mut t, a, 30);
        open(&mut t, b, root.ctx(), "precopy_round", 30);
        close(&mut t, b, 50);
        open(&mut t, c, root.ctx(), "freeze", 50);
        close(&mut t, c, 90);
        close(&mut t, root, 90);

        let tree = SpanTree::build(&t);
        assert!(tree.validate_nesting().is_empty());
        assert_eq!(tree.roots().count(), 1);
        assert_eq!(tree.duration_of(root).unwrap().as_micros(), 90);
        let phases = tree.breakdown(root);
        assert_eq!(
            phases,
            vec![
                ("precopy_round", SimDuration::from_micros(50)),
                ("freeze", SimDuration::from_micros(40)),
            ]
        );
        let total: SimDuration = phases.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, tree.duration_of(root).unwrap());
    }

    #[test]
    fn detects_ill_formed_traces() {
        let mut t = Trace::new(TraceLevel::Info);
        let mut g = SpanIdGen::new(1);
        let a = g.next();
        let ghost = g.next();
        let orphan = g.next();
        open(&mut t, a, SpanContext::NONE, "x", 0);
        close(&mut t, a, 5);
        close(&mut t, a, 6); // double close
        close(&mut t, ghost, 7); // never opened
        open(&mut t, orphan, ghost.ctx(), "y", 8); // parent never opened
        let tree = SpanTree::build(&t);
        let v = tree.validate();
        assert!(v.contains(&SpanViolation::CloseWithoutOpen { id: a.raw() }));
        assert!(v.contains(&SpanViolation::CloseWithoutOpen { id: ghost.raw() }));
        assert!(v.contains(&SpanViolation::OrphanParent {
            id: orphan.raw(),
            parent: ghost.raw(),
        }));
        // The orphan is still reachable as a root.
        assert!(tree.roots().any(|n| n.id == orphan));
    }

    #[test]
    fn nesting_violations_only_in_strict_mode() {
        let mut t = Trace::new(TraceLevel::Info);
        let mut g = SpanIdGen::new(1);
        let parent = g.next();
        let child = g.next();
        open(&mut t, parent, SpanContext::NONE, "ipc", 0);
        open(&mut t, child, parent.ctx(), "serve", 5);
        close(&mut t, parent, 10); // client gave up
        close(&mut t, child, 20); // server finished later
        let tree = SpanTree::build(&t);
        assert!(tree.validate().is_empty());
        assert_eq!(
            tree.validate_nesting(),
            vec![SpanViolation::ChildOutsideParent { id: child.raw() }]
        );
    }

    #[test]
    fn unclosed_spans_are_queryable_not_violations() {
        let mut t = Trace::new(TraceLevel::Info);
        let mut g = SpanIdGen::new(3);
        let a = g.next();
        open(&mut t, a, SpanContext::NONE, "quantum", 0);
        let tree = SpanTree::build(&t);
        assert!(tree.validate().is_empty());
        assert_eq!(tree.unclosed().count(), 1);
        assert_eq!(tree.duration_of(a), None);
    }

    #[test]
    fn span_recorded_whole_spans_its_interval() {
        let mut t = Trace::new(TraceLevel::Info);
        let q = SpanIdGen::new(1).next();
        q.done(
            &mut t,
            TraceLevel::Info,
            SimTime::from_micros(20),
            SimTime::from_micros(120),
            Subsystem::Cluster,
            SpanContext::NONE,
            "quantum",
            2,
        );
        assert_eq!(t.records()[0].at, SimTime::from_micros(120));
        let tree = SpanTree::build(&t);
        assert!(tree.validate().is_empty());
        let node = tree.get(q).unwrap();
        assert_eq!((node.name, node.host), ("quantum", 2));
        assert_eq!(node.open, SimTime::from_micros(20));
        assert_eq!(tree.duration_of(q).unwrap().as_micros(), 100);
    }

    #[test]
    fn filtered_trace_yields_empty_tree() {
        let mut t = Trace::quiet();
        let mut g = SpanIdGen::new(1);
        let a = g.next();
        open(&mut t, a, SpanContext::NONE, "x", 0);
        close(&mut t, a, 1);
        assert!(SpanTree::build(&t).is_empty());
    }
}
