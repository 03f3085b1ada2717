//! Logical hosts: the unit of migration.
//!
//! A logical host bundles address spaces and processes (§2.1). It can be
//! frozen: execution of its processes is suspended and external
//! interactions are deferred (§3.1). The kernel keeps a deferred-operation
//! queue per logical host; on unfreeze-in-place the queue is delivered, and
//! on deletion after a successful migration it is discarded — the remote
//! senders' retransmissions re-deliver to the new host (§3.1.3).

use std::collections::BTreeMap;

use vmem::{AddressSpace, SpaceId, SpaceLayout};

use crate::ids::{LogicalHostId, ProcessId, FIRST_USER_INDEX};
use crate::process::{Priority, Process};

/// A request deferred while its target logical host was frozen.
#[derive(Debug, Clone)]
pub struct DeferredRequest<X> {
    /// Transaction number of the deferred Send.
    pub seq: crate::packet::SendSeq,
    /// The blocked sender.
    pub from: ProcessId,
    /// The destination as originally addressed (needed to restart a local
    /// sender's Send after the logical host is deleted, §3.1.3).
    pub dest: crate::ids::Destination,
    /// Message body.
    pub body: X,
    /// Appended data bytes.
    pub data_bytes: u64,
    /// True if the sender is local to the same workstation (its Send is
    /// restarted internally rather than by retransmission).
    pub local_sender: bool,
    /// The client's causal span, preserved across the freeze so the
    /// eventual delivery still parents its serve span correctly.
    pub span: vsim::SpanContext,
}

/// Descriptor of one process, as transferred in the kernel-state copy.
#[derive(Debug, Clone)]
pub struct ProcessDesc {
    /// Local index.
    pub index: u32,
    /// Team space.
    pub team: SpaceId,
    /// Priority.
    pub priority: Priority,
    /// IPC state at freeze time.
    pub state: crate::process::ProcessState,
}

/// Descriptor of a logical host's kernel state: what the migration's
/// "copying the kernel server and program manager state" step moves
/// (§3.1.3). Its size drives the 14 ms + 9 ms/object cost.
#[derive(Debug, Clone)]
pub struct LhDescriptor {
    /// The original logical-host id (re-imposed on the new copy).
    pub id: LogicalHostId,
    /// Process table.
    pub processes: Vec<ProcessDesc>,
    /// Address-space layouts, by space id.
    pub spaces: Vec<(SpaceId, SpaceLayout)>,
    /// Send-sequence counter, preserved across migration.
    pub next_send_seq: u64,
}

impl LhDescriptor {
    /// Number of kernel objects (processes + address spaces), the paper's
    /// unit for the 9 ms-per-object state-copy cost.
    pub fn object_count(&self) -> u64 {
        (self.processes.len() + self.spaces.len()) as u64
    }
}

/// A logical host resident on some workstation's kernel.
#[derive(Debug)]
pub struct LogicalHost<X> {
    id: LogicalHostId,
    frozen: bool,
    processes: BTreeMap<u32, Process>,
    spaces: BTreeMap<SpaceId, AddressSpace>,
    space_layouts: BTreeMap<SpaceId, SpaceLayout>,
    deferred: Vec<DeferredRequest<X>>,
    next_index: u32,
    next_space: u32,
    next_send_seq: u64,
}

impl<X> LogicalHost<X> {
    /// Creates an empty, unfrozen logical host.
    pub fn new(id: LogicalHostId) -> Self {
        LogicalHost {
            id,
            frozen: false,
            processes: BTreeMap::new(),
            spaces: BTreeMap::new(),
            space_layouts: BTreeMap::new(),
            deferred: Vec::new(),
            next_index: FIRST_USER_INDEX,
            next_space: 0,
            next_send_seq: 0,
        }
    }

    /// Allocates the next Send transaction number. Sequence numbers are
    /// per-logical-host (and migrate with it), so `(pid, seq)` pairs are
    /// unique for all time regardless of which kernel the process runs on.
    pub fn alloc_seq(&mut self) -> crate::packet::SendSeq {
        let s = crate::packet::SendSeq(self.next_send_seq);
        self.next_send_seq += 1;
        s
    }

    /// The next sequence number that would be allocated (for descriptors).
    pub fn next_send_seq(&self) -> u64 {
        self.next_send_seq
    }

    /// Restores the sequence counter (descriptor install).
    pub fn set_next_send_seq(&mut self, v: u64) {
        self.next_send_seq = self.next_send_seq.max(v);
    }

    /// The logical host's id.
    pub fn id(&self) -> LogicalHostId {
        self.id
    }

    /// True while frozen (migration in its final copy phase).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Freezes the logical host: execution suspends, external interactions
    /// defer.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Unfreezes it.
    pub fn unfreeze(&mut self) {
        self.frozen = false;
    }

    /// Creates a team: a new address space.
    pub fn create_space(&mut self, layout: SpaceLayout) -> SpaceId {
        let id = SpaceId(self.next_space);
        self.next_space += 1;
        self.spaces.insert(id, AddressSpace::new(id, layout));
        self.space_layouts.insert(id, layout);
        id
    }

    /// Creates a space with a caller-chosen id (used when installing a
    /// migrated descriptor so space ids survive migration).
    ///
    /// # Panics
    ///
    /// Panics if the id already exists.
    pub fn create_space_with_id(&mut self, id: SpaceId, layout: SpaceLayout) {
        assert!(
            !self.spaces.contains_key(&id),
            "space {id:?} already exists"
        );
        self.spaces.insert(id, AddressSpace::new(id, layout));
        self.space_layouts.insert(id, layout);
        self.next_space = self.next_space.max(id.0 + 1);
    }

    /// Creates a process in `team`, in the embryonic state if `embryo`.
    ///
    /// # Panics
    ///
    /// Panics if the team does not exist.
    pub fn create_process(&mut self, team: SpaceId, priority: Priority, embryo: bool) -> ProcessId {
        assert!(self.spaces.contains_key(&team), "no such team {team:?}");
        let index = self.next_index;
        self.next_index += 1;
        let pid = ProcessId::new(self.id, index);
        let p = if embryo {
            Process::new_embryo(pid, team, priority)
        } else {
            Process::new(pid, team, priority)
        };
        self.processes.insert(index, p);
        pid
    }

    /// Looks up a process by local index.
    pub fn process(&self, index: u32) -> Option<&Process> {
        self.processes.get(&index)
    }

    /// Mutable process lookup.
    pub fn process_mut(&mut self, index: u32) -> Option<&mut Process> {
        self.processes.get_mut(&index)
    }

    /// All live processes.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values().filter(|p| p.is_alive())
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes().count()
    }

    /// Looks up an address space.
    pub fn space(&self, id: SpaceId) -> Option<&AddressSpace> {
        self.spaces.get(&id)
    }

    /// Mutable address-space lookup.
    pub fn space_mut(&mut self, id: SpaceId) -> Option<&mut AddressSpace> {
        self.spaces.get_mut(&id)
    }

    /// All address spaces.
    pub fn spaces(&self) -> impl Iterator<Item = &AddressSpace> {
        self.spaces.values()
    }

    /// Number of address spaces.
    pub fn space_count(&self) -> usize {
        self.spaces.len()
    }

    /// Total memory of all spaces, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.spaces.values().map(|s| s.total_bytes()).sum()
    }

    /// Queues a request deferred by freeze.
    pub fn defer(&mut self, req: DeferredRequest<X>) {
        self.deferred.push(req);
    }

    /// Iterates deferred requests without draining (duplicate detection).
    pub fn deferred_iter(&self) -> impl Iterator<Item = &DeferredRequest<X>> {
        self.deferred.iter()
    }

    /// Drains the deferred queue (on unfreeze or deletion).
    pub fn take_deferred(&mut self) -> Vec<DeferredRequest<X>> {
        std::mem::take(&mut self.deferred)
    }

    /// Number of deferred requests waiting.
    pub fn deferred_count(&self) -> usize {
        self.deferred.len()
    }

    /// Snapshot of the kernel state for migration (§3.1.3).
    pub fn descriptor(&self) -> LhDescriptor {
        LhDescriptor {
            id: self.id,
            processes: self
                .processes
                .values()
                .filter(|p| p.is_alive())
                .map(|p| ProcessDesc {
                    index: p.pid.index,
                    team: p.team,
                    priority: p.priority,
                    state: p.state,
                })
                .collect(),
            spaces: self
                .space_layouts
                .iter()
                .map(|(&id, &layout)| (id, layout))
                .collect(),
            next_send_seq: self.next_send_seq,
        }
    }

    /// Adopts a migrated identity onto this freshly initialized target:
    /// renames the logical host to the descriptor's id and installs the
    /// process table. Address spaces must already have been created (they
    /// received the pre-copied pages).
    ///
    /// # Panics
    ///
    /// Panics if this logical host already has processes, or if a
    /// descriptor space is missing.
    pub fn adopt(&mut self, desc: &LhDescriptor) {
        assert!(
            self.processes.is_empty(),
            "adopt on a logical host that already has processes"
        );
        for (sid, _) in &desc.spaces {
            assert!(
                self.spaces.contains_key(sid),
                "adopt: space {sid:?} was not pre-created"
            );
        }
        self.id = desc.id;
        for pd in &desc.processes {
            let pid = ProcessId::new(self.id, pd.index);
            let mut p = Process::new(pid, pd.team, pd.priority);
            p.state = pd.state;
            self.processes.insert(pd.index, p);
            self.next_index = self.next_index.max(pd.index + 1);
        }
        self.set_next_send_seq(desc.next_send_seq);
    }

    /// Installs a migrated descriptor: recreates spaces and processes and
    /// **renames this logical host to the descriptor's id** — the §3.1.3
    /// step "changing the logical-host-id of the new logical host to be the
    /// same as that of the original".
    ///
    /// # Panics
    ///
    /// Panics if this logical host already has processes or spaces (it must
    /// be the freshly created migration target).
    pub fn install_descriptor(&mut self, desc: &LhDescriptor) {
        assert!(
            self.processes.is_empty() && self.spaces.is_empty(),
            "install_descriptor on a non-empty logical host"
        );
        self.id = desc.id;
        for &(sid, layout) in &desc.spaces {
            self.create_space_with_id(sid, layout);
        }
        for pd in &desc.processes {
            let pid = ProcessId::new(self.id, pd.index);
            let mut p = Process::new(pid, pd.team, pd.priority);
            p.state = pd.state;
            self.processes.insert(pd.index, p);
            self.next_index = self.next_index.max(pd.index + 1);
        }
        self.set_next_send_seq(desc.next_send_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SendSeq;
    use vsim::calib::PAGE_BYTES;

    fn lh() -> LogicalHost<u32> {
        LogicalHost::new(LogicalHostId(5))
    }

    #[test]
    fn create_team_and_processes() {
        let mut h = lh();
        let team = h.create_space(SpaceLayout::tiny());
        let p1 = h.create_process(team, Priority::LOCAL, false);
        let p2 = h.create_process(team, Priority::GUEST, true);
        assert_eq!(p1.lh, LogicalHostId(5));
        assert_eq!(p1.index, FIRST_USER_INDEX);
        assert_eq!(p2.index, FIRST_USER_INDEX + 1);
        assert_eq!(h.process_count(), 2);
        assert_eq!(h.space_count(), 1);
        assert_eq!(h.total_bytes(), 7 * PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "no such team")]
    fn process_needs_team() {
        lh().create_process(SpaceId(9), Priority::LOCAL, false);
    }

    #[test]
    fn freeze_defer_drain() {
        let mut h = lh();
        assert!(!h.is_frozen());
        h.freeze();
        assert!(h.is_frozen());
        h.defer(DeferredRequest {
            seq: SendSeq(1),
            from: ProcessId::new(LogicalHostId(1), 16),
            dest: crate::ids::Destination::Process(ProcessId::new(LogicalHostId(5), 16)),
            body: 42,
            data_bytes: 0,
            local_sender: false,
            span: vsim::SpanContext::NONE,
        });
        assert_eq!(h.deferred_count(), 1);
        let drained = h.take_deferred();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].body, 42);
        assert_eq!(h.deferred_count(), 0);
        h.unfreeze();
        assert!(!h.is_frozen());
    }

    #[test]
    fn descriptor_round_trip_preserves_identity() {
        let mut src = lh();
        let team = src.create_space(SpaceLayout::tiny());
        let team2 = src.create_space(SpaceLayout::tiny());
        let p1 = src.create_process(team, Priority::GUEST, false);
        let _p2 = src.create_process(team2, Priority::GUEST, false);

        let desc = src.descriptor();
        assert_eq!(desc.object_count(), 4); // 2 processes + 2 spaces.

        // New copy starts under a *different* id, then takes the original's.
        let mut dst: LogicalHost<u32> = LogicalHost::new(LogicalHostId(99));
        dst.install_descriptor(&desc);
        assert_eq!(dst.id(), LogicalHostId(5));
        assert_eq!(dst.process_count(), 2);
        assert_eq!(dst.space_count(), 2);
        // Pids are preserved exactly.
        assert!(dst.process(p1.index).is_some());
        assert_eq!(dst.process(p1.index).map(|p| p.pid), Some(p1));
        assert_eq!(dst.total_bytes(), src.total_bytes());
    }

    #[test]
    fn descriptor_skips_dead_processes() {
        let mut h = lh();
        let team = h.create_space(SpaceLayout::tiny());
        let p = h.create_process(team, Priority::LOCAL, false);
        h.process_mut(p.index).expect("exists").state = crate::process::ProcessState::Dead;
        assert_eq!(h.descriptor().processes.len(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn install_requires_fresh_target() {
        let mut a = lh();
        a.create_space(SpaceLayout::tiny());
        let desc = a.descriptor();
        a.install_descriptor(&desc);
    }

    #[test]
    fn indices_never_reused_after_install() {
        let mut src = lh();
        let team = src.create_space(SpaceLayout::tiny());
        src.create_process(team, Priority::LOCAL, false);
        let desc = src.descriptor();
        let mut dst: LogicalHost<u32> = LogicalHost::new(LogicalHostId(99));
        dst.install_descriptor(&desc);
        let next = dst.create_process(SpaceId(0), Priority::LOCAL, false);
        assert_eq!(next.index, FIRST_USER_INDEX + 1);
    }
}
