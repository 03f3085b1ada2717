//! `vsim` — deterministic discrete-event simulation engine.
//!
//! Foundation of the V-system reproduction: a microsecond-resolution
//! simulated clock and event queue ([`Engine`]), seeded randomness
//! ([`DetRng`]), measurement collection ([`Samples`], [`Tally`],
//! [`Histogram`]), the one content hash ([`Fnv`]), a
//! structured observability layer (typed [`Trace`] events, causal
//! [`span`]s reconstructed into a [`SpanTree`], and the [`metrics`] report
//! types), a dependency-free [`json`] serializer/parser for
//! machine-readable experiment artifacts, the [`chrome`] trace
//! document builder and the [`table`] writer, and the calibration constants
//! derived from the paper's §4.1 measurements ([`calib`]).
//!
//! Everything above this crate is a sans-IO state machine: components react
//! to events and schedule new ones; only the cluster runtime owns the loop.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::cast_possible_truncation)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod calib;
pub mod chrome;
mod engine;
mod faults;
mod fnv;
pub mod json;
pub mod metrics;
mod profile;
mod rng;
pub mod span;
mod stats;
pub mod table;
mod time;
pub mod timeseries;
mod trace;

pub use engine::Engine;
pub use faults::{
    fault_points, FaultEvent, FaultKind, FaultPlan, FaultPoint, FaultTrigger, Party, ProtocolStep,
    PARTY,
};
pub use fnv::{fnv1a, Fnv};
pub use json::{Json, ToJson};
pub use metrics::{MetricsReport, ScopeMetrics};
pub use profile::{HostClock, NullClock, ProfileReport, Profiler, SlotId, SlotReport};
pub use rng::DetRng;
pub use span::{SpanContext, SpanId, SpanIdGen, SpanNode, SpanTree, SpanViolation};
pub use stats::{Histogram, Samples, Summary, Tally};
pub use time::{SimDuration, SimTime};
pub use timeseries::{SamplingSpec, SeriesId, SeriesReport, SeriesSnapshot, SeriesStore};
pub use trace::{Subsystem, Trace, TraceEvent, TraceLevel, TraceRecord, TraceSinkSpec};
