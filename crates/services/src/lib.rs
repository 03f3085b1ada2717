//! `vservices` — the V servers that live outside the kernel.
//!
//! "All other services provided by the system are implemented by processes
//! running outside the kernel" (§2.1). This crate models the three the
//! remote-execution facility depends on: the per-workstation
//! [`ProgramManager`] (program lifecycle, host-selection queries, the
//! server side of migration), the network [`FileServer`] (diskless program
//! loading at the calibrated 330 ms / 100 KB, ordinary file I/O), and the
//! [`DisplayServer`] (terminal output co-resident with the frame buffer).
//! [`ExecEnv`] models the environment block a creator installs in a new
//! program, and [`ServiceMsg`] is the message protocol they all speak.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod display;
mod env;
mod file_server;
mod msg;
mod program_manager;
mod service;

pub use display::{DisplayServer, DisplayStats, DISPLAY_PER_CHAR};
pub use env::{ExecEnv, NAME_DISPLAY, NAME_FILE_SERVER};
pub use file_server::{FileServer, FsStats, OpenFile};
pub use msg::{FetchPlan, FileHandle, ProgramSpec, ServiceMsg, SvcError};
pub use program_manager::{
    PmStats, ProgramInfo, ProgramManager, MAX_GUEST_PROGRAMS, TEMP_LH_FLOOR,
};
pub use service::{SvcEvent, SvcOutputs, SvcToken};
