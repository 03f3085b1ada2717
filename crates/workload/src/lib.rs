//! `vworkload` — synthetic programs and users calibrated to the paper.
//!
//! The eight programs of Table 4-1 (make, cc68 and its passes, TeX) are
//! reconstructed as [`ProgramProfile`]s whose dirty-page behaviour is
//! *fitted* to the paper's three measurement windows; a [`WorkloadProgram`]
//! executes a profile as a sequential state machine of compute, file-I/O
//! and display phases. [`UserModel`] reproduces the owner activity the
//! paper reports (>80% idle at peak).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod profiles;
mod program;
mod user;

pub use program::{Phase, ProgAction, ProgEvent, ProgStats, ProgramProfile, WorkloadProgram};
pub use user::{OwnerState, UserModel, UserModelParams};
