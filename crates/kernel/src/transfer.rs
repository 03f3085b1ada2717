//! Bulk-transfer (CopyTo blast) bookkeeping.
//!
//! V moves address-space contents with CopyTo/CopyFrom, transferring "32
//! kilobytes or more as a unit over the network" (§3.1). The sender paces
//! units at the calibrated end-to-end rate (the CPUs, not the wire, are the
//! bottleneck — see [`vsim::calib::bulk_copy_time`]); each unit is
//! acknowledged and retransmitted on timeout. This module holds the pure
//! state machine; the kernel wires it to packets and timers.

use vmem::SpaceId;
use vnet::HostAddr;
use vsim::calib::PAGE_BYTES;

use crate::ids::{LogicalHostId, ProcessId};
use crate::packet::XferId;

/// Default bulk unit: V's 32 KB blast.
pub const XFER_UNIT_BYTES: u64 = 32 * 1024;

/// One unit of a transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpec {
    /// Bytes carried.
    pub bytes: u64,
    /// Destination page indices carried by this unit.
    pub pages: Vec<u32>,
}

/// Splits a page list into transfer units of at most `unit_bytes` each.
///
/// # Panics
///
/// Panics if `unit_bytes` is smaller than one page.
pub fn split_units(pages: &[u32], unit_bytes: u64) -> Vec<UnitSpec> {
    assert!(unit_bytes >= PAGE_BYTES, "unit smaller than a page");
    let per_unit = (unit_bytes / PAGE_BYTES) as usize;
    pages
        .chunks(per_unit)
        .map(|chunk| UnitSpec {
            bytes: chunk.len() as u64 * PAGE_BYTES,
            pages: chunk.to_vec(),
        })
        .collect()
}

/// Progress state of one unit in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitProgress {
    /// Acknowledged by the receiver.
    pub acked: bool,
    /// The CPU pacing interval has elapsed.
    pub paced: bool,
}

/// An outbound transfer.
#[derive(Debug)]
pub struct OutXfer {
    /// Process to notify on completion.
    pub initiator: ProcessId,
    /// Destination logical host.
    pub to_lh: LogicalHostId,
    /// Destination space.
    pub to_space: SpaceId,
    /// Destination physical host.
    pub dst_host: HostAddr,
    units: Vec<UnitSpec>,
    current: usize,
    progress: UnitProgress,
    /// Retransmissions of the current unit.
    pub retries: u32,
    /// Set when this transfer answers a CopyFrom: the puller's id,
    /// stamped on every data unit.
    pub pull_tag: Option<XferId>,
}

impl OutXfer {
    /// Builds a transfer over the given units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty (zero-byte copies complete without a
    /// transfer).
    pub fn new(
        initiator: ProcessId,
        to_lh: LogicalHostId,
        to_space: SpaceId,
        dst_host: HostAddr,
        units: Vec<UnitSpec>,
    ) -> Self {
        assert!(!units.is_empty(), "empty transfer");
        OutXfer {
            initiator,
            to_lh,
            to_space,
            dst_host,
            units,
            current: 0,
            progress: UnitProgress {
                acked: false,
                paced: false,
            },
            retries: 0,
            pull_tag: None,
        }
    }

    /// Index of the unit in flight.
    pub fn current_unit(&self) -> u32 {
        self.current as u32
    }

    /// The unit in flight.
    pub fn unit(&self) -> &UnitSpec {
        &self.units[self.current]
    }

    /// True when the current unit is the last.
    pub fn on_last_unit(&self) -> bool {
        self.current + 1 == self.units.len()
    }

    /// Total bytes across all units.
    pub fn total_bytes(&self) -> u64 {
        self.units.iter().map(|u| u.bytes).sum()
    }

    /// True if the current unit has been acknowledged.
    pub fn current_acked(&self) -> bool {
        self.progress.acked
    }

    /// Records the receiver's ack for `unit`; stale acks are ignored.
    /// Returns `true` if the current unit is now both acked and paced.
    pub fn ack(&mut self, unit: u32) -> bool {
        if unit == self.current_unit() {
            self.progress.acked = true;
        }
        self.progress.acked && self.progress.paced
    }

    /// Records that the pacing interval for `unit` elapsed; stale timers
    /// are ignored. Returns `true` if the current unit is now complete.
    pub fn paced(&mut self, unit: u32) -> bool {
        if unit == self.current_unit() {
            self.progress.paced = true;
        }
        self.progress.acked && self.progress.paced
    }

    /// Moves to the next unit. Returns `false` when the transfer is done.
    ///
    /// # Panics
    ///
    /// Panics if the current unit is not complete.
    pub fn advance(&mut self) -> bool {
        assert!(
            self.progress.acked && self.progress.paced,
            "advancing past an incomplete unit"
        );
        self.current += 1;
        self.progress = UnitProgress {
            acked: false,
            paced: false,
        };
        self.retries = 0;
        self.current < self.units.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_units_respects_unit_size() {
        // 48 pages at 2 KB = 96 KB into 32 KB units = 16 pages per unit.
        let pages: Vec<u32> = (0..48).collect();
        let units = split_units(&pages, XFER_UNIT_BYTES);
        assert_eq!(units.len(), 3);
        assert!(units.iter().all(|u| u.pages.len() == 16));
        assert!(units.iter().all(|u| u.bytes == 32 * 1024));
    }

    #[test]
    fn split_units_handles_remainder() {
        let pages: Vec<u32> = (0..17).collect();
        let units = split_units(&pages, XFER_UNIT_BYTES);
        assert_eq!(units.len(), 2);
        assert_eq!(units[1].pages.len(), 1);
        assert_eq!(units[1].bytes, PAGE_BYTES);
    }

    #[test]
    fn split_units_empty() {
        assert!(split_units(&[], XFER_UNIT_BYTES).is_empty());
    }

    #[test]
    #[should_panic(expected = "smaller than a page")]
    fn split_units_rejects_tiny_units() {
        split_units(&[0], 100);
    }

    fn xfer(units: usize) -> OutXfer {
        let pages: Vec<u32> = (0..(units as u32 * 16)).collect();
        OutXfer::new(
            ProcessId::new(LogicalHostId(1), 16),
            LogicalHostId(2),
            SpaceId(0),
            HostAddr(1),
            split_units(&pages, XFER_UNIT_BYTES),
        )
    }

    #[test]
    fn ack_then_pace_completes_unit() {
        let mut x = xfer(2);
        assert!(!x.ack(0));
        assert!(x.paced(0));
        assert!(x.advance(), "one unit left");
        assert_eq!(x.current_unit(), 1);
        assert!(x.on_last_unit());
        assert!(!x.paced(1), "pace alone does not complete the unit");
        assert!(!x.ack(0), "stale ack ignored");
        assert!(x.ack(1));
        assert!(!x.advance(), "transfer done");
    }

    #[test]
    fn stale_pace_is_ignored() {
        let mut x = xfer(2);
        x.ack(0);
        x.paced(0);
        x.advance();
        assert!(!x.paced(0), "timer from the previous unit");
        assert_eq!(x.current_unit(), 1);
    }

    #[test]
    #[should_panic(expected = "incomplete unit")]
    fn advance_requires_completion() {
        let mut x = xfer(2);
        x.ack(0);
        x.advance();
    }

    #[test]
    fn total_bytes_sums_units() {
        let x = xfer(3);
        assert_eq!(x.total_bytes(), 3 * 32 * 1024);
    }
}
