//! `vmem` — memory model: address spaces, dirty pages, and the
//! writable-working-set workload model.
//!
//! Migration in the paper is dominated by copying address spaces and by the
//! rate at which programs re-dirty pages during pre-copy (§3.1.2, Table
//! 4-1). This crate models exactly that: page-granular address spaces with
//! MMU dirty bits ([`AddressSpace`]), and the hot-set + cold-sweep dirty
//! model fitted to the paper's measurements ([`WwsParams`],
//! [`WwsSampler`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod bitset;
mod space;
mod wws;

pub use bitset::BitSet;
pub use space::{AddressSpace, Segment, SegmentKind, SpaceId, SpaceLayout};
pub use wws::{WwsParams, WwsSampler};
