//! `vnet` — the 10 Mbit Ethernet segment model.
//!
//! The V-system's cluster is one (logical) local network (§6 of the paper).
//! This crate models the shared channel the reproduction runs over: frame
//! serialization and queueing, per-receiver packet loss, broadcast and
//! multicast (used for binding-cache queries and the program-manager
//! group), and station up/down state for crash experiments.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::cast_possible_truncation)]

mod addr;
mod ethernet;
mod frame;
mod loss;

pub use addr::{HostAddr, McastGroup, NetDest};
pub use ethernet::{Arrival, Ethernet, WireStats};
pub use frame::Frame;
pub use loss::{LossModel, LossState};
