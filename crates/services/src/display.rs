//! The display server.
//!
//! §2: "programs perform all 'terminal output' via a display server that
//! remains co-resident with the frame buffer it manages" — it is the
//! canonical example of a server that does *not* migrate, and the reason
//! remotely executed programs stay network-transparent: their output
//! still appears on the user's screen.

use std::collections::BTreeMap;

use vkernel::{Kernel, ProcessId};
use vsim::{SimDuration, SimTime};

use crate::msg::{ServiceMsg, SvcError};
use crate::service::{SvcOutputs, SvcToken};

/// Per-character output cost on the bitmap display (font rendering on the
/// 68010).
pub const DISPLAY_PER_CHAR: SimDuration = SimDuration::from_micros(80);

/// Display-server statistics.
#[derive(Debug, Clone, Default)]
pub struct DisplayStats {
    /// Write requests served.
    pub writes: u64,
    /// Characters rendered.
    pub chars: u64,
}

#[derive(Debug)]
struct PendingWrite {
    requester: ProcessId,
    seq: vkernel::SendSeq,
}

/// A workstation's display server.
pub struct DisplayServer {
    pid: ProcessId,
    pending: BTreeMap<u64, PendingWrite>,
    next_token: u64,
    stats: DisplayStats,
    /// Characters received per client process (for tests and demos).
    per_client: BTreeMap<ProcessId, u64>,
}

impl DisplayServer {
    /// Creates a display server.
    pub fn new(pid: ProcessId) -> Self {
        DisplayServer {
            pid,
            pending: BTreeMap::new(),
            next_token: 0,
            stats: DisplayStats::default(),
            per_client: BTreeMap::new(),
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Statistics.
    pub fn stats(&self) -> &DisplayStats {
        &self.stats
    }

    /// Characters written by one client.
    pub fn chars_from(&self, client: ProcessId) -> u64 {
        self.per_client.get(&client).copied().unwrap_or(0)
    }

    /// Handles a request.
    pub fn handle_request(
        &mut self,
        now: SimTime,
        msg: vkernel::MsgIn<ServiceMsg>,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs,
    ) {
        match msg.body {
            ServiceMsg::WriteChars { count } => {
                self.stats.writes += 1;
                self.stats.chars += count;
                *self.per_client.entry(msg.from).or_insert(0) += count;
                let t = self.next_token;
                self.next_token += 1;
                self.pending.insert(
                    t,
                    PendingWrite {
                        requester: msg.from,
                        seq: msg.seq,
                    },
                );
                out.timers
                    .push((SvcToken(t), DISPLAY_PER_CHAR * count.max(1)));
            }
            _ => {
                k.reply(
                    now,
                    self.pid,
                    msg.from,
                    msg.seq,
                    ServiceMsg::Err(SvcError::BadRequest),
                    0,
                    &mut out.kernel,
                );
            }
        }
    }

    /// Handles a render-delay timer.
    pub fn handle_timer(
        &mut self,
        now: SimTime,
        token: SvcToken,
        k: &mut Kernel<ServiceMsg>,
        out: &mut SvcOutputs,
    ) {
        if let Some(p) = self.pending.remove(&token.0) {
            k.reply(
                now,
                self.pid,
                p.requester,
                p.seq,
                ServiceMsg::Ok,
                0,
                &mut out.kernel,
            );
        }
    }
}
