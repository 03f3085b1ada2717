//! The network file server.
//!
//! The paper's workstations are diskless: "program files are loaded from
//! network file servers so the cost of program loading is independent of
//! whether a program is executed locally or remotely" (§4.1), at
//! 330 ms / 100 KB. The same server stores ordinary files; a file server
//! can also be instantiated *on a workstation* to reproduce the residual-
//! dependency hazard of §3.3 (a migrated program still reaching back to
//! its old host's local files).

use std::collections::BTreeMap;

use vkernel::{Kernel, LogicalHostId, ProcessId, SendError, SendSeq, XferId};
use vmem::{SpaceId, SpaceLayout};
use vsim::calib::{FILE_SERVER_READ_PER_KB, PAGE_BYTES};
use vsim::{SimDuration, SimTime};

use crate::msg::{FileHandle, ServiceMsg, SvcError};
use crate::service::{SvcOutputs, SvcToken};

/// An open file.
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// File name.
    pub name: String,
    /// The process that opened it.
    pub owner: ProcessId,
    /// Sequential position.
    pub pos: u64,
}

/// File-server statistics.
#[derive(Debug, Clone, Default)]
pub struct FsStats {
    /// Program images loaded.
    pub images_loaded: u64,
    /// Bytes of image data shipped.
    pub image_bytes: u64,
    /// Open operations.
    pub opens: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Requests for unknown names/handles.
    pub errors: u64,
}

#[derive(Debug)]
enum Pending {
    /// Image load: storage read delay, then the bulk network copy.
    LoadRead {
        requester: ProcessId,
        seq: SendSeq,
        to_lh: LogicalHostId,
        to_space: SpaceId,
        pages: Vec<u32>,
        bytes: u64,
    },
    /// Image load: bulk copy in flight.
    LoadXfer {
        requester: ProcessId,
        seq: SendSeq,
        bytes: u64,
    },
    /// Plain read: storage delay, then reply with data.
    Read {
        requester: ProcessId,
        seq: SendSeq,
        bytes: u64,
    },
    /// Plain write: storage delay, then acknowledge.
    Write { requester: ProcessId, seq: SendSeq },
}

/// A file server process.
pub struct FileServer {
    pid: ProcessId,
    images: BTreeMap<String, SpaceLayout>,
    files: BTreeMap<String, u64>,
    open: BTreeMap<FileHandle, OpenFile>,
    next_handle: u64,
    pending: BTreeMap<u64, Pending>,
    by_xfer: BTreeMap<XferId, u64>,
    next_token: u64,
    stats: FsStats,
}

impl FileServer {
    /// Creates a file server with an empty store.
    pub fn new(pid: ProcessId) -> Self {
        FileServer {
            pid,
            images: BTreeMap::new(),
            files: BTreeMap::new(),
            open: BTreeMap::new(),
            next_handle: 1,
            pending: BTreeMap::new(),
            by_xfer: BTreeMap::new(),
            next_token: 0,
            stats: FsStats::default(),
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Statistics.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// Publishes a program image.
    pub fn add_image(&mut self, name: impl Into<String>, layout: SpaceLayout) {
        self.images.insert(name.into(), layout);
    }

    /// Creates (or truncates) an ordinary file.
    pub fn add_file(&mut self, name: impl Into<String>, size: u64) {
        self.files.insert(name.into(), size);
    }

    /// Size of a stored file.
    pub fn file_size(&self, name: &str) -> Option<u64> {
        self.files.get(name).copied()
    }

    /// Currently open files (handle, descriptor) — the residual-dependency
    /// auditor inspects this.
    pub fn open_files(&self) -> impl Iterator<Item = (&FileHandle, &OpenFile)> {
        self.open.iter()
    }

    /// Bytes an image occupies on the wire: its code + initialized data.
    fn image_bytes(layout: &SpaceLayout) -> u64 {
        layout.code_bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES
            + layout.init_data_bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES
    }

    fn token(&mut self, p: Pending) -> SvcToken {
        let t = self.next_token;
        self.next_token += 1;
        self.pending.insert(t, p);
        SvcToken(t)
    }

    fn storage_delay(bytes: u64) -> SimDuration {
        FILE_SERVER_READ_PER_KB * bytes.div_ceil(1024)
    }

    /// Handles a request.
    pub fn handle_request(
        &mut self,
        now: SimTime,
        msg: vkernel::MsgIn<ServiceMsg>,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let (requester, seq) = (msg.from, msg.seq);
        match msg.body {
            ServiceMsg::Stat { name } => {
                let reply = match self.images.get(&name) {
                    Some(&layout) => ServiceMsg::StatReply { layout },
                    None => {
                        self.stats.errors += 1;
                        ServiceMsg::Err(SvcError::NotFound)
                    }
                };
                out = out.kernel(k.reply(now, self.pid, requester, seq, reply, 0));
            }
            ServiceMsg::LoadImage {
                name,
                to_lh,
                to_space,
            } => match self.images.get(&name) {
                Some(&layout) => {
                    let bytes = Self::image_bytes(&layout);
                    let pages: Vec<u32> = (0..(bytes / PAGE_BYTES) as u32).collect();
                    // The program's brand-new logical host has never sent
                    // a packet, so no binding exists for it. Its program
                    // manager (the requester) is co-resident with it —
                    // adopt that binding.
                    if !k.is_resident(to_lh) {
                        if let Some(h) = k.binding_cache().peek(requester.lh) {
                            k.learn_binding(to_lh, h);
                        }
                    }
                    let t = self.token(Pending::LoadRead {
                        requester,
                        seq,
                        to_lh,
                        to_space,
                        pages,
                        bytes,
                    });
                    out = out.timer(t, Self::storage_delay(bytes));
                }
                None => {
                    self.stats.errors += 1;
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::NotFound),
                        0,
                    ));
                }
            },
            ServiceMsg::Open { name, create } => {
                let exists = self.files.contains_key(&name);
                if !exists && !create {
                    self.stats.errors += 1;
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::NotFound),
                        0,
                    ));
                    return out;
                }
                self.stats.opens += 1;
                let size = *self.files.entry(name.clone()).or_insert(0);
                let handle = FileHandle(self.next_handle);
                self.next_handle += 1;
                self.open.insert(
                    handle,
                    OpenFile {
                        name,
                        owner: requester,
                        pos: 0,
                    },
                );
                let reply = ServiceMsg::Opened { handle, size };
                out = out.kernel(k.reply(now, self.pid, requester, seq, reply, 0));
            }
            ServiceMsg::Read { handle, bytes } => match self.open.get_mut(&handle) {
                Some(f) if f.owner == requester => {
                    let size = self.files.get(&f.name).copied().unwrap_or(0);
                    let n = bytes.min(size.saturating_sub(f.pos));
                    f.pos += n;
                    self.stats.bytes_read += n;
                    let t = self.token(Pending::Read {
                        requester,
                        seq,
                        bytes: n,
                    });
                    out = out.timer(t, Self::storage_delay(n.max(1)));
                }
                _ => {
                    self.stats.errors += 1;
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                }
            },
            ServiceMsg::Write { handle, bytes } => match self.open.get_mut(&handle) {
                Some(f) if f.owner == requester => {
                    f.pos += bytes;
                    let size = self.files.entry(f.name.clone()).or_insert(0);
                    *size = (*size).max(f.pos);
                    self.stats.bytes_written += bytes;
                    let t = self.token(Pending::Write { requester, seq });
                    out = out.timer(t, Self::storage_delay(bytes.max(1)));
                }
                _ => {
                    self.stats.errors += 1;
                    out = out.kernel(k.reply(
                        now,
                        self.pid,
                        requester,
                        seq,
                        ServiceMsg::Err(SvcError::BadRequest),
                        0,
                    ));
                }
            },
            ServiceMsg::Close { handle } => {
                let reply = if self.open.remove(&handle).is_some() {
                    ServiceMsg::Ok
                } else {
                    self.stats.errors += 1;
                    ServiceMsg::Err(SvcError::BadRequest)
                };
                out = out.kernel(k.reply(now, self.pid, requester, seq, reply, 0));
            }
            _ => {
                self.stats.errors += 1;
                out = out.kernel(k.reply(
                    now,
                    self.pid,
                    requester,
                    seq,
                    ServiceMsg::Err(SvcError::BadRequest),
                    0,
                ));
            }
        }
        out
    }

    /// Handles a storage-delay timer.
    pub fn handle_timer(
        &mut self,
        now: SimTime,
        token: SvcToken,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let Some(p) = self.pending.remove(&token.0) else {
            return out;
        };
        match p {
            Pending::LoadRead {
                requester,
                seq,
                to_lh,
                to_space,
                pages,
                bytes,
            } => {
                let t = self.next_token;
                self.next_token += 1;
                self.pending.insert(
                    t,
                    Pending::LoadXfer {
                        requester,
                        seq,
                        bytes,
                    },
                );
                let (xfer, kouts) = k.copy_pages(now, self.pid, to_lh, to_space, pages);
                self.by_xfer.insert(xfer, t);
                out = out.kernel(kouts);
            }
            Pending::Read {
                requester,
                seq,
                bytes,
            } => {
                let reply = ServiceMsg::ReadDone { bytes };
                out = out.kernel(k.reply(now, self.pid, requester, seq, reply, bytes));
            }
            Pending::Write { requester, seq } => {
                out = out.kernel(k.reply(now, self.pid, requester, seq, ServiceMsg::WriteDone, 0));
            }
            Pending::LoadXfer { .. } => unreachable!("LoadXfer completes via CopyDone"),
        }
        out
    }

    /// Handles completion of an image-load bulk copy.
    pub fn handle_copy_done(
        &mut self,
        now: SimTime,
        xfer: XferId,
        result: Result<u64, SendError>,
        k: &mut Kernel<ServiceMsg>,
    ) -> SvcOutputs {
        let mut out = SvcOutputs::new();
        let Some(token) = self.by_xfer.remove(&xfer) else {
            return out;
        };
        let Some(Pending::LoadXfer {
            requester,
            seq,
            bytes,
        }) = self.pending.remove(&token)
        else {
            return out;
        };
        let reply = match result {
            Ok(_) => {
                self.stats.images_loaded += 1;
                self.stats.image_bytes += bytes;
                ServiceMsg::ImageLoaded { bytes }
            }
            Err(_) => {
                self.stats.errors += 1;
                ServiceMsg::Err(SvcError::UpstreamFailed)
            }
        };
        out = out.kernel(k.reply(now, self.pid, requester, seq, reply, 0));
        out
    }
}
