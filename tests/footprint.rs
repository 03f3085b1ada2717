//! The wire keeps nothing per frame, and a frame leaving a station costs
//! no allocation on the way to the queue.
//!
//! This binary installs a counting global allocator. Its counters are
//! per thread, so each test counts only the allocations of its own run,
//! whatever the other tests do at the same time:
//!
//! * the live heap of an `Ethernet` after a million unicast transmits of
//!   three sizes stays under a small fixed bound (frame sizes are kept as
//!   counts, and the arrivals go into a list the caller owns);
//! * a `HostClock` that reads the allocation count turns the dispatch
//!   profiler's `Transmit` slot of a loss-free `@*` run into allocations
//!   per dispatch: the frame keeps the box its station made, and the wire
//!   builds no receiver list, so a unicast costs none and a multicast one
//!   (its receiver list on the queue).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use v_system::prelude::*;
use v_system::vnet::{Ethernet, Frame};
use v_system::vsim::HostClock;

/// The system allocator, counting the allocations and live bytes of each
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocation (`allocs` 1, a reallocation included) or
/// deallocation (`allocs` 0) that changed the live heap by `bytes`. The
/// counters are const-initialised and have no destructor, so touching
/// them never allocates; `try_with` skips a thread already torn down.
fn note(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// A global allocator is the one place this test needs `unsafe`: each
// method forwards to `System` with the caller's own arguments.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, signed(layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, signed(layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -signed(layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, signed(new_size) - signed(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

#[test]
fn a_million_unicasts_leave_the_wire_no_bigger() {
    let mut net: Ethernet<u32> = Ethernet::new(LossModel::None, DetRng::seed(1), Trace::quiet());
    let a = net.attach();
    let b = net.attach();
    let mut arrivals = Vec::with_capacity(1);
    let before = live_bytes();
    for i in 0..1_000_000_u32 {
        arrivals.clear();
        let bytes = [64, 1024, 1500][i as usize % 3];
        let now = net.busy_until();
        net.transmit(now, &Frame::unicast(a, b, bytes, i), &mut arrivals);
    }
    let grown = live_bytes() - before;
    assert_eq!(net.stats().frames_sent, 1_000_000);
    assert_eq!(net.stats().deliveries, 1_000_000);
    // Three distinct sizes: a few tree nodes, whatever the frame count.
    assert!(grown < 4096, "the wire grew by {grown} bytes");
    let m = net.metrics("net");
    let sizes = m
        .histogram(Subsystem::Net, "frame_payload_bytes")
        .expect("exported");
    assert_eq!(sizes.count, 1_000_000);
    assert_eq!(
        (sizes.min, sizes.p50, sizes.max),
        (Some(64.0), Some(1024.0), Some(1500.0))
    );
}

/// Reads the calling thread's allocation count as the profiler's "time".
struct AllocClock;

impl HostClock for AllocClock {
    fn now_ns(&mut self) -> u64 {
        allocations()
    }
    fn label(&self) -> &'static str {
        "allocations"
    }
}

#[test]
fn a_transmit_dispatch_allocates_at_most_once() {
    let mut c = Cluster::new(ClusterConfig {
        workstations: 16,
        seed: 29,
        loss: LossModel::None,
        ..ClusterConfig::default()
    });
    c.set_host_clock(Box::new(AllocClock));
    // Two execs a second from rotating workstations, each placed by an
    // `@*` query multicast to every program manager.
    for k in 0..30_u64 {
        let ws = 1 + (k as usize * 7) % 16;
        let job = profiles::simulation_profile(SimDuration::from_secs(3 + k % 5));
        c.at(
            SimTime::ZERO + SimDuration::from_millis(500 * k + 100),
            Command::Exec {
                ws,
                profile: job,
                target: ExecTarget::AnyIdle,
                priority: Priority::GUEST,
            },
        );
    }
    c.run_for(SimDuration::from_secs(60));
    let placed = c.exec_reports.iter().filter(|r| r.success).count();
    let profile = c.profile_report();
    let slot = |kind: &str| {
        profile
            .slots
            .iter()
            .find(|s| s.kind == kind)
            .expect("an interned slot")
    };
    let transmit = slot("Transmit");
    // Non-vacuity: the queries went out and placed programs, so the
    // slot holds multicasts and their unicast answers alike.
    assert!(placed >= 20, "only {placed} execs were placed");
    assert!(
        transmit.dispatches > 500,
        "{} transmits",
        transmit.dispatches
    );
    assert!(
        slot("Frame").wall_ns > 0,
        "the allocation clock never moved"
    );
    let per_dispatch = transmit.wall_ns as f64 / transmit.dispatches as f64;
    assert!(
        per_dispatch <= 1.0,
        "{per_dispatch:.3} allocations per Transmit dispatch ({} over {})",
        transmit.wall_ns,
        transmit.dispatches
    );
}
