//! A miniature multi-kernel test rig.
//!
//! Wires several [`Kernel`]s to one simulated [`Ethernet`] segment and an
//! event engine, with optional auto-responder closures standing in for
//! server processes. Used by this crate's protocol tests and by downstream
//! crates' unit tests; the production event loop lives in `vcluster`.

use std::collections::BTreeMap;

use vnet::{Ethernet, Frame, HostAddr, LossModel};
use vsim::{DetRng, Engine, SimDuration, SimTime, Trace, TraceLevel};

use crate::ids::ProcessId;
use crate::kernel::{Kernel, KernelConfig, KernelOutput, MsgIn, ReplyIn, SendError, TimerKey};
use crate::packet::{Packet, SendSeq, XferId};

/// Events flowing through the rig.
#[derive(Debug)]
pub enum RigEvent<X> {
    /// A frame reached a station.
    Frame {
        /// Receiving station.
        to: HostAddr,
        /// The frame.
        frame: Frame<Packet<X>>,
    },
    /// A kernel timer fired.
    Timer {
        /// The kernel's station.
        host: HostAddr,
        /// Timer key.
        key: TimerKey,
    },
}

/// Application-level outcomes observed by the rig.
#[derive(Debug)]
pub enum AppEvent<X> {
    /// A request was delivered to a process.
    Delivered(MsgIn<X>),
    /// A Send completed.
    SendDone {
        /// Unblocked sender.
        pid: ProcessId,
        /// Transaction.
        seq: SendSeq,
        /// Outcome.
        result: Result<ReplyIn<X>, SendError>,
    },
    /// A CopyTo completed.
    CopyDone {
        /// Transfer.
        xfer: XferId,
        /// Initiator.
        initiator: ProcessId,
        /// Outcome.
        result: Result<u64, SendError>,
    },
}

type Responder<X> = Box<dyn FnMut(&MsgIn<X>) -> Option<X>>;

/// The rig.
pub struct Rig<X> {
    /// The event engine (public so tests can inspect time).
    pub engine: Engine<RigEvent<X>>,
    /// The wire.
    pub net: Ethernet<Packet<X>>,
    kernels: Vec<Kernel<X>>,
    trace: Trace,
    /// Observed application events, with their times.
    pub log: Vec<(SimTime, AppEvent<X>)>,
    /// Kernel timers fired so far, in order, by station index.
    pub fired: Vec<(usize, TimerKey)>,
    responders: BTreeMap<ProcessId, Responder<X>>,
}

impl<X: Clone + std::fmt::Debug> Rig<X> {
    /// Builds a rig with `n` kernels on a lossless wire.
    pub fn new(n: usize) -> Self {
        Self::with_loss(n, LossModel::None, KernelConfig::default())
    }

    /// Builds a rig with a loss model and kernel configuration. The wire
    /// and every kernel emit into one [`TraceLevel::Detail`] trace.
    pub fn with_loss(n: usize, loss: LossModel, cfg: KernelConfig) -> Self {
        let trace = Trace::new(TraceLevel::Detail);
        let mut net = Ethernet::new(loss, DetRng::seed(0xF00D), trace.clone());
        let mut kernels = Vec::with_capacity(n);
        for _ in 0..n {
            let host = net.attach();
            kernels.push(Kernel::new(host, cfg.clone(), trace.clone()));
        }
        Rig {
            engine: Engine::new(),
            net,
            kernels,
            trace,
            log: Vec::new(),
            fired: Vec::new(),
            responders: BTreeMap::new(),
        }
    }

    /// The kernel at station index `i`.
    pub fn kernel(&self, i: usize) -> &Kernel<X> {
        &self.kernels[i]
    }

    /// Mutable kernel access.
    pub fn kernel_mut(&mut self, i: usize) -> &mut Kernel<X> {
        &mut self.kernels[i]
    }

    /// The trace the wire and every kernel share.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Always false; rigs have at least one kernel in practice.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Registers an auto-responder: whenever a request is delivered to
    /// `pid`, the closure runs and, if it returns a body, the process
    /// replies immediately.
    pub fn respond(&mut self, pid: ProcessId, f: impl FnMut(&MsgIn<X>) -> Option<X> + 'static) {
        self.responders.insert(pid, Box::new(f));
    }

    /// Invokes `f` on kernel `i`, feeds the outputs it appends into the
    /// rig and returns what `f` returns.
    pub fn drive<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut Kernel<X>, SimTime, &mut Vec<KernelOutput<X>>) -> R,
    ) -> R {
        let now = self.engine.now();
        let mut outs = Vec::new();
        let r = f(&mut self.kernels[i], now, &mut outs);
        self.apply(i, outs);
        r
    }

    fn host_index(&self, host: HostAddr) -> usize {
        host.0 as usize
    }

    fn apply(&mut self, i: usize, outs: Vec<KernelOutput<X>>) {
        let host = self.kernels[i].host();
        for o in outs {
            match o {
                KernelOutput::Transmit(frame) => {
                    let now = self.engine.now();
                    let mut arrivals = Vec::new();
                    self.net.transmit(now, &frame, &mut arrivals);
                    // Each receiver gets its own copy (the rig has no
                    // checksum check, so a corrupted copy is delivered as
                    // is); the last one takes the frame as sent.
                    let shared = std::iter::repeat_n(frame, arrivals.len());
                    for (a, frame) in arrivals.into_iter().zip(shared) {
                        let frame = a.corrupted.map_or(frame, |copy| *copy);
                        let to = a.to;
                        self.engine.schedule_at(a.at, RigEvent::Frame { to, frame });
                    }
                }
                KernelOutput::SetTimer { key, after } => {
                    self.engine
                        .schedule_after(after, RigEvent::Timer { host, key });
                }
                KernelOutput::Deliver(msg) => {
                    let now = self.engine.now();
                    let reply = self
                        .responders
                        .get_mut(&msg.to)
                        .and_then(|f| f(&msg))
                        .map(|body| (msg.to, msg.from, msg.seq, body));
                    self.log.push((now, AppEvent::Delivered(msg)));
                    if let Some((from, requester, seq, body)) = reply {
                        self.drive(i, |k, t, out| {
                            k.reply(t, from, requester, seq, body, 0, out)
                        });
                    }
                }
                KernelOutput::SendDone { pid, seq, result } => {
                    let now = self.engine.now();
                    self.log
                        .push((now, AppEvent::SendDone { pid, seq, result }));
                }
                KernelOutput::CopyDone {
                    xfer,
                    initiator,
                    result,
                } => {
                    let now = self.engine.now();
                    self.log.push((
                        now,
                        AppEvent::CopyDone {
                            xfer,
                            initiator,
                            result,
                        },
                    ));
                }
                KernelOutput::JoinMcast(g) => self.net.join(g, host),
                KernelOutput::LeaveMcast(g) => self.net.leave(g, host),
            }
        }
    }

    /// Runs until the event queue drains or `limit` is reached.
    pub fn run_until(&mut self, limit: SimTime) {
        while let Some((_, ev)) = self.engine.step_due(limit) {
            match ev {
                RigEvent::Frame { to, frame } => {
                    let i = self.host_index(to);
                    self.drive(i, |k, t, out| k.handle_frame(t, frame, out));
                }
                RigEvent::Timer { host, key } => {
                    let i = self.host_index(host);
                    self.fired.push((i, key));
                    self.drive(i, |k, t, out| k.handle_timer(t, key, out));
                }
            }
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let limit = self.engine.now() + d;
        self.run_until(limit);
    }

    /// Completed sends observed so far, as `(pid, seq, ok)` triples.
    pub fn send_results(&self) -> Vec<(ProcessId, SendSeq, bool)> {
        self.log
            .iter()
            .filter_map(|(_, e)| match e {
                AppEvent::SendDone { pid, seq, result } => Some((*pid, *seq, result.is_ok())),
                _ => None,
            })
            .collect()
    }

    /// Requests delivered so far, as `(to, from)` pairs.
    pub fn deliveries(&self) -> Vec<(ProcessId, ProcessId)> {
        self.log
            .iter()
            .filter_map(|(_, e)| match e {
                AppEvent::Delivered(m) => Some((m.to, m.from)),
                _ => None,
            })
            .collect()
    }
}
