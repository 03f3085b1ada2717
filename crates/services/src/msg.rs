//! The service message protocol.
//!
//! V implements all services outside the kernel as server processes
//! reached by IPC (§2.1). This module defines the message bodies those
//! servers speak: program-manager operations (host queries, program
//! creation and destruction, the migration coordination steps of §3.1),
//! file-server operations (image loading for diskless workstations, plain
//! file I/O), and display-server output. The kernel routes these bodies
//! opaquely — it is the `X` type parameter of `vkernel::Kernel`.

use vkernel::{LogicalHostId, MigrationRecord, Priority, ProcessId};
use vmem::{SpaceId, SpaceLayout};
use vnet::HostAddr;
use vsim::SimTime;

/// A file handle issued by a file server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileHandle(pub u64);

/// What a VM-flush migration's target must fetch back from the paging
/// store after unfreezing (§3.2: "the new host can fault in the pages
/// from the file server on demand").
#[derive(Debug, Clone)]
pub struct FetchPlan {
    /// The paging-store logical host.
    pub from_lh: LogicalHostId,
    /// The paging-store space.
    pub from_space: SpaceId,
    /// Per destination space: the flushed pages to pull back.
    pub pages: Vec<(SpaceId, Vec<u32>)>,
}

impl FetchPlan {
    /// Total bytes the plan will move.
    pub fn total_bytes(&self) -> u64 {
        self.pages.iter().map(|(_, p)| p.len() as u64 * 2048).sum()
    }
}

/// Specification of a program to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Image file name on the file server.
    pub image: String,
    /// Scheduling priority ([`Priority::LOCAL`] or [`Priority::GUEST`]).
    pub priority: Priority,
}

/// Why a service refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcError {
    /// Unknown image or file name.
    NotFound,
    /// The host declined (insufficient resources, or name mismatch).
    Declined,
    /// The operation referenced unknown state (handle, logical host).
    BadRequest,
    /// A nested operation (image load, state copy) failed.
    UpstreamFailed,
}

/// Message bodies carried by V IPC in this reproduction.
///
/// Requests and replies share the enum; the kernel does not care, and a
/// mismatched reply kind is a protocol bug surfaced by the services layer.
#[derive(Debug, Clone)]
pub enum ServiceMsg {
    // --- Program manager: host selection (§2). ---
    /// "Which hosts can run a program?" — multicast to the program-manager
    /// group. With `host_name` set, only the named host answers; with
    /// `None` ("@*"), hosts "with a reasonable amount of processor and
    /// memory resources available" answer.
    QueryHost {
        /// Specific host wanted, or `None` for any idle host.
        host_name: Option<String>,
        /// Hosts that must not answer — a migrating workstation excludes
        /// itself when looking for somewhere to push a program, and a
        /// retrying migration additionally excludes targets that already
        /// failed it.
        exclude_hosts: Vec<HostAddr>,
    },
    /// A candidate host's answer.
    HostCandidate {
        /// The responding program manager.
        pm: ProcessId,
        /// Its physical host (so the client can address bulk transfers).
        host: HostAddr,
        /// Number of programs currently executing there.
        load: u32,
    },

    // --- Program manager: program lifecycle (§2.1). ---
    /// Create a program: new logical host, team space, embryonic process,
    /// image loaded from the file server.
    CreateProgram(Box<ProgramSpec>),
    /// Program created; the initial process awaits the creator's reply.
    ProgramCreated {
        /// Root process of the new program.
        root: ProcessId,
        /// Its logical host.
        lh: LogicalHostId,
        /// Physical host it was created on.
        host: HostAddr,
    },
    /// Start the embryonic initial process (the creator "replies to the
    /// initial process").
    StartProgram {
        /// Root process to start.
        root: ProcessId,
    },
    /// Destroy a program (its whole logical host).
    DestroyProgram {
        /// The logical host to destroy.
        lh: LogicalHostId,
    },
    /// Suspend a program (§2: works locally or remotely) — freezes its
    /// logical host in place.
    SuspendProgram {
        /// The program's logical host.
        lh: LogicalHostId,
    },
    /// Resume a suspended program.
    ResumeProgram {
        /// The program's logical host.
        lh: LogicalHostId,
    },
    /// Block until the program exits (the reply comes when it is
    /// destroyed; reply-pending packets carry the long wait). Lets one
    /// program decompose work into subprograms on other hosts (§2).
    WaitProgram {
        /// The program's logical host.
        lh: LogicalHostId,
    },

    // --- Program manager: migration coordination (§3.1). ---
    /// Step 2 of migration: initialize the new host with descriptors for
    /// the incoming logical host, under a temporary id.
    InitMigration {
        /// Temporary logical-host id for the new copy.
        temp: LogicalHostId,
        /// Address spaces to pre-create.
        spaces: Vec<(SpaceId, SpaceLayout)>,
    },
    /// New host accepted and stands ready for pre-copy.
    MigrationAccepted {
        /// The accepting physical host.
        host: HostAddr,
    },
    /// Step 4: copy the frozen logical host's kernel/PM state and take
    /// over its identity.
    InstallState {
        /// The temporary logical host to rename.
        temp: LogicalHostId,
        /// The kernel state (descriptor + in-flight IPC).
        record: Box<MigrationRecord<ServiceMsg>>,
        /// Image name, for the target program manager's bookkeeping.
        image: String,
        /// Priority the program runs at on the new host.
        priority: Priority,
        /// Pages to demand-fetch from the paging store (VM-flush
        /// migrations only).
        fetch: Option<FetchPlan>,
        /// The program's origin host, so its lease follows it to the new
        /// host (`None` for programs with no recorded origin).
        origin: Option<HostAddr>,
    },
    /// Step 5 (target side): unfreeze the new copy.
    UnfreezeMigrated {
        /// The migrated logical host (original id).
        lh: LogicalHostId,
    },
    /// Ask the program manager to migrate one of its programs away
    /// (`migrateprog`). `destroy_if_stuck` is the `-n` flag.
    MigrateProgram {
        /// The program's logical host.
        lh: LogicalHostId,
        /// Destroy the program if no host will take it.
        destroy_if_stuck: bool,
    },

    // --- Program manager: lease-based liveness. ---
    /// Heartbeat from the program manager hosting a remote program to the
    /// program's origin: "lh is alive here — extend its lease". The
    /// origin answers [`ServiceMsg::LeaseGranted`] (or
    /// `Err(NotFound)` when the lease was revoked, which obliges the
    /// holder to exterminate the orphan immediately).
    RenewLease {
        /// The leased program's logical host.
        lh: LogicalHostId,
    },
    /// The origin extended the lease.
    LeaseGranted {
        /// New expiry instant (simulated time).
        until: SimTime,
    },
    /// The holder destroyed (or handed off) the program deliberately; the
    /// origin drops its grant instead of probing and re-executing.
    ReleaseLease {
        /// The released program's logical host.
        lh: LogicalHostId,
    },
    /// Origin-side liveness probe, sent to the program-manager group of
    /// `lh` when heartbeats stop: whoever hosts the program answers
    /// [`ServiceMsg::ProgramAt`]; a send timeout means nobody does.
    QueryProgram {
        /// The probed program's logical host.
        lh: LogicalHostId,
    },
    /// Probe answer: the program is alive here.
    ProgramAt {
        /// The physical host currently running the program.
        host: HostAddr,
    },

    // --- File server. ---
    /// Image metadata (size/layout) lookup.
    Stat {
        /// Image name.
        name: String,
    },
    /// Image metadata.
    StatReply {
        /// The image's address-space layout.
        layout: SpaceLayout,
    },
    /// Load an image into a (remote) address space; the file server bulk-
    /// copies it at the calibrated 330 ms / 100 KB.
    LoadImage {
        /// Image name.
        name: String,
        /// Destination logical host.
        to_lh: LogicalHostId,
        /// Destination space.
        to_space: SpaceId,
    },
    /// Image loaded.
    ImageLoaded {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Open (or create) a file.
    Open {
        /// File name.
        name: String,
        /// Create if missing.
        create: bool,
    },
    /// Open succeeded.
    Opened {
        /// Handle for subsequent I/O.
        handle: FileHandle,
        /// Current size.
        size: u64,
    },
    /// Read bytes (sequential; the model tracks counts, not content).
    Read {
        /// Open handle.
        handle: FileHandle,
        /// Bytes wanted.
        bytes: u64,
    },
    /// Read completed (data travels as `data_bytes` on the reply).
    ReadDone {
        /// Bytes actually read.
        bytes: u64,
    },
    /// Write bytes.
    Write {
        /// Open handle.
        handle: FileHandle,
        /// Bytes written (travel as `data_bytes` on the request).
        bytes: u64,
    },
    /// Write completed.
    WriteDone,
    /// Close a handle.
    Close {
        /// Handle to close.
        handle: FileHandle,
    },

    // --- Display server (§2: co-resident with the frame buffer). ---
    /// Write characters to the user's display.
    WriteChars {
        /// Character count.
        count: u64,
    },

    // --- Generic. ---
    /// Success with nothing else to say.
    Ok,
    /// Failure.
    Err(SvcError),
}

impl ServiceMsg {
    /// True for the generic success reply.
    pub fn is_ok(&self) -> bool {
        matches!(self, ServiceMsg::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_ok_matches_only_the_ok_reply() {
        assert!(ServiceMsg::Ok.is_ok());
        assert!(!ServiceMsg::WriteDone.is_ok());
    }

    #[test]
    fn messages_are_cloneable_for_retransmission() {
        let m = ServiceMsg::CreateProgram(Box::new(ProgramSpec {
            image: "cc68".into(),
            priority: Priority::GUEST,
        }));
        let m2 = m.clone();
        match (m, m2) {
            (ServiceMsg::CreateProgram(a), ServiceMsg::CreateProgram(b)) => {
                assert_eq!(a.image, b.image);
            }
            _ => panic!("clone changed variant"),
        }
    }
}
