//! Service-level tests: the program manager and file server driven over
//! the kernel test rig, without the full cluster runtime.

use vkernel::testkit::{AppEvent, Rig};
use vkernel::{
    GroupId, LogicalHostId, MsgIn, Priority, ProcessId, SendError, SendSeq, PROGRAM_MANAGER_INDEX,
};
use vmem::SpaceLayout;
use vservices::{
    DisplayServer, FileServer, ProgramManager, ProgramSpec, ServiceMsg, SvcError, SvcEvent,
    SvcOutputs, SvcToken, MAX_GUEST_PROGRAMS, TEMP_LH_FLOOR,
};
use vsim::SimTime;

type SRig = Rig<ServiceMsg>;

/// A one-workstation stand: kernel 0 runs a PM, a FS and a display in a
/// system logical host; this driver pumps their timers by hand.
struct Stand {
    rig: SRig,
    pm: ProgramManager,
    fs: FileServer,
    display: DisplayServer,
    client: ProcessId,
    timers: Vec<(Who, SvcToken, SimTime)>,
    /// Service timers already fired, in order.
    fired: Vec<(Who, SvcToken)>,
    events: Vec<SvcEvent>,
    /// Send completions observed for non-service processes, with the
    /// reply body each one received.
    completions: Vec<(ProcessId, Result<ServiceMsg, SendError>)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Who {
    Pm,
    Fs,
    Display,
}

impl Stand {
    fn new() -> Self {
        let mut rig: SRig = Rig::new(1);
        let (pm_pid, fs_pid, disp_pid, client) = {
            let l = rig.kernel_mut(0).create_logical_host(LogicalHostId(1));
            let team = l.create_space(SpaceLayout::tiny());
            let pm = l.create_process(team, Priority::SYSTEM, false);
            let fs = l.create_process(team, Priority::SYSTEM, false);
            let d = l.create_process(team, Priority::SYSTEM, false);
            let c = l.create_process(team, Priority::LOCAL, false);
            (pm, fs, d, c)
        };
        rig.kernel_mut(0)
            .register_well_known(PROGRAM_MANAGER_INDEX, pm_pid);
        let mut fs = FileServer::new(fs_pid);
        fs.add_image(
            "job",
            SpaceLayout {
                code_bytes: 64 * 1024,
                init_data_bytes: 16 * 1024,
                heap_bytes: 128 * 1024,
                stack_bytes: 16 * 1024,
            },
        );
        let pm = ProgramManager::new(
            pm_pid,
            vnet::HostAddr(0),
            "stand",
            fs_pid,
            10_000,
            MAX_GUEST_PROGRAMS,
        );
        Stand {
            rig,
            pm,
            fs,
            display: DisplayServer::new(disp_pid),
            client,
            timers: Vec::new(),
            fired: Vec::new(),
            events: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Sends `body` from the test client to `to` and pumps to quiescence.
    fn send(&mut self, to: ProcessId, body: ServiceMsg) {
        let client = self.client;
        self.rig.drive(0, move |k, t, out| {
            k.send(t, client, to.into(), body, 0, out)
        });
        self.pump();
    }

    /// Pumps kernel events, routing service deliveries/timers until idle.
    fn pump(&mut self) {
        loop {
            self.rig.run_until(SimTime::MAX);
            // Route any undelivered service requests from the rig log.
            let mut progressed = false;
            let deliveries: Vec<MsgIn<ServiceMsg>> = {
                let mut v = Vec::new();
                let mut log = std::mem::take(&mut self.rig.log);
                progressed |= !log.is_empty();
                for (_, e) in log.drain(..) {
                    if let AppEvent::Delivered(m) = e {
                        v.push(m);
                    } else if let AppEvent::SendDone { pid, seq, result } = e {
                        if pid == self.pm.pid() {
                            let now = self.rig.engine.now();
                            let mut outs = SvcOutputs::default();
                            let k = self.rig.kernel_mut(0);
                            self.pm.handle_send_done(now, seq, result, k, &mut outs);
                            self.absorb(Who::Pm, outs);
                        } else {
                            self.completions.push((pid, result.map(|r| r.body)));
                        }
                    } else if let AppEvent::CopyDone { xfer, result, .. } = e {
                        let now = self.rig.engine.now();
                        let mut outs = SvcOutputs::default();
                        let k = self.rig.kernel_mut(0);
                        self.fs.handle_copy_done(now, xfer, result, k, &mut outs);
                        self.absorb(Who::Fs, outs);
                    }
                }
                v
            };
            for m in deliveries {
                let now = self.rig.engine.now();
                let who = if m.to == self.pm.pid() {
                    Who::Pm
                } else if m.to == self.fs.pid() {
                    Who::Fs
                } else if m.to == self.display.pid() {
                    Who::Display
                } else {
                    continue; // Client deliveries have no handler here.
                };
                let mut outs = SvcOutputs::default();
                let (k, o) = (self.rig.kernel_mut(0), &mut outs);
                match who {
                    Who::Pm => self.pm.handle_request(now, m, k, o),
                    Who::Fs => self.fs.handle_request(now, m, k, o),
                    Who::Display => self.display.handle_request(now, m, k, o),
                }
                self.absorb(who, outs);
            }
            // Fire the earliest due service timer, if any.
            if let Some(idx) = self
                .timers
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, at))| *at)
                .map(|(i, _)| i)
            {
                let (who, token, at) = self.timers.remove(idx);
                self.fired.push((who, token));
                let now = self.rig.engine.now().max(at);
                self.rig.engine.advance_to(now);
                let mut outs = SvcOutputs::default();
                let (k, o) = (self.rig.kernel_mut(0), &mut outs);
                match who {
                    Who::Pm => self.pm.handle_timer(now, token, k, o),
                    Who::Fs => self.fs.handle_timer(now, token, k, o),
                    Who::Display => self.display.handle_timer(now, token, k, o),
                }
                self.absorb(who, outs);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    fn absorb(&mut self, who: Who, outs: SvcOutputs) {
        let now = self.rig.engine.now();
        for (token, after) in outs.timers {
            self.timers.push((who, token, now + after));
        }
        self.events.extend(outs.events);
        // Feed kernel outputs back through the rig.
        self.rig.drive(0, move |_k, _t, out| *out = outs.kernel);
    }

    /// Sends `body` from the test client to `to`, pumps to quiescence and
    /// returns the reply the client received, as a `Debug` string (reply
    /// bodies have no `PartialEq`).
    fn call(&mut self, to: ProcessId, body: ServiceMsg) -> String {
        let before = self.completions.len();
        self.send(to, body);
        let client = self.client;
        let replies: Vec<_> = self.completions[before..]
            .iter()
            .filter(|(p, _)| *p == client)
            .collect();
        assert_eq!(replies.len(), 1, "one reply per call");
        format!("{:?}", replies[0].1)
    }
}

#[test]
fn create_start_destroy_lifecycle() {
    let mut s = Stand::new();
    let spec = ProgramSpec {
        image: "job".into(),
        priority: Priority::GUEST,
    };
    s.send(s.pm.pid(), ServiceMsg::CreateProgram(Box::new(spec)));
    assert_eq!(s.pm.programs().len(), 1, "program registered");
    assert_eq!(s.pm.stats().programs_created, 1);
    assert_eq!(s.fs.stats().images_loaded, 1);
    // 80 KB image (64 code + 16 idata).
    assert_eq!(s.fs.stats().image_bytes, 80 * 1024);

    let (&lh, info) = s.pm.programs().iter().next().expect("one program");
    let root = info.root;
    s.send(s.pm.pid(), ServiceMsg::StartProgram { root });
    assert!(
        s.events
            .iter()
            .any(|e| matches!(e, SvcEvent::ProgramStarted { root: r, .. } if *r == root)),
        "start event emitted"
    );

    s.send(s.pm.pid(), ServiceMsg::DestroyProgram { lh });
    assert_eq!(s.pm.programs().len(), 0);
    assert_eq!(s.pm.stats().programs_destroyed, 1);
    assert!(!s.rig.kernel(0).is_resident(lh), "logical host deleted");
}

#[test]
fn create_unknown_image_fails_cleanly() {
    let mut s = Stand::new();
    let spec = ProgramSpec {
        image: "no-such-image".into(),
        priority: Priority::GUEST,
    };
    s.send(s.pm.pid(), ServiceMsg::CreateProgram(Box::new(spec)));
    assert_eq!(s.pm.programs().len(), 0);
    assert_eq!(s.pm.stats().programs_created, 0);
    assert_eq!(s.fs.stats().errors, 1, "stat failed at the file server");
}

/// Events are never cancelled, so a service must ignore a timer whose
/// work is done: firing a consumed program-manager token again changes
/// nothing.
#[test]
fn consumed_pm_tokens_fire_as_no_ops() {
    let mut s = Stand::new();
    let spec = ProgramSpec {
        image: "job".into(),
        priority: Priority::GUEST,
    };
    s.send(s.pm.pid(), ServiceMsg::CreateProgram(Box::new(spec)));
    assert!(s.fired.iter().any(|(who, _)| *who == Who::Pm));
    let stats = |s: &Stand| format!("{:?}{:?}", s.pm.stats(), s.rig.kernel(0).stats());
    let before = stats(&s);
    for (_, token) in s
        .fired
        .clone()
        .into_iter()
        .filter(|(who, _)| *who == Who::Pm)
    {
        let now = s.rig.engine.now();
        let mut outs = SvcOutputs::default();
        s.pm.handle_timer(now, token, s.rig.kernel_mut(0), &mut outs);
        assert!(
            outs.kernel.is_empty() && outs.timers.is_empty() && outs.events.is_empty(),
            "{token:?} fired again produced {outs:?}"
        );
    }
    assert!(s.rig.log.is_empty());
    assert_eq!(s.rig.engine.pending(), 0);
    assert_eq!(stats(&s), before);
}

#[test]
fn query_host_respects_policy() {
    let mut s = Stand::new();
    // Named query for the wrong name: silence.
    s.send(
        s.pm.pid(),
        ServiceMsg::QueryHost {
            host_name: Some("elsewhere".into()),
            exclude_hosts: Vec::new(),
        },
    );
    assert_eq!(s.pm.stats().queries_answered, 0);

    // Named query for our name: answered even when owner is active.
    s.pm.set_owner_active(true);
    s.send(
        s.pm.pid(),
        ServiceMsg::QueryHost {
            host_name: Some("stand".into()),
            exclude_hosts: Vec::new(),
        },
    );
    assert_eq!(s.pm.stats().queries_answered, 1);

    // Generic query from a *resident* client: declined ("some OTHER
    // machine").
    s.send(
        s.pm.pid(),
        ServiceMsg::QueryHost {
            host_name: None,
            exclude_hosts: Vec::new(),
        },
    );
    assert_eq!(s.pm.stats().queries_answered, 1);
    assert!(s.pm.stats().queries_declined >= 1);
}

#[test]
fn suspend_and_resume_freeze_in_place() {
    let mut s = Stand::new();
    let spec = ProgramSpec {
        image: "job".into(),
        priority: Priority::GUEST,
    };
    s.send(s.pm.pid(), ServiceMsg::CreateProgram(Box::new(spec)));
    let (&lh, _) = s.pm.programs().iter().next().expect("program");
    s.send(s.pm.pid(), ServiceMsg::SuspendProgram { lh });
    assert!(s
        .rig
        .kernel(0)
        .logical_host(lh)
        .expect("resident")
        .is_frozen());
    s.send(s.pm.pid(), ServiceMsg::ResumeProgram { lh });
    assert!(!s
        .rig
        .kernel(0)
        .logical_host(lh)
        .expect("resident")
        .is_frozen());
    assert!(s
        .events
        .iter()
        .any(|e| matches!(e, SvcEvent::ProgramResumed { lh: l } if *l == lh)));
}

#[test]
fn file_server_sequential_io() {
    let mut s = Stand::new();
    s.fs.add_file("data", 10_000);
    s.send(
        s.fs.pid(),
        ServiceMsg::Open {
            name: "data".into(),
            create: false,
        },
    );
    assert_eq!(s.fs.stats().opens, 1);
    let handle = *s.fs.open_files().next().expect("open file").0;

    s.send(
        s.fs.pid(),
        ServiceMsg::Read {
            handle,
            bytes: 6_000,
        },
    );
    s.send(
        s.fs.pid(),
        ServiceMsg::Read {
            handle,
            bytes: 6_000,
        },
    );
    // Second read is truncated at EOF.
    assert_eq!(s.fs.stats().bytes_read, 10_000);

    s.send(s.fs.pid(), ServiceMsg::Write { handle, bytes: 500 });
    assert_eq!(s.fs.stats().bytes_written, 500);
    assert_eq!(s.fs.file_size("data"), Some(10_500));

    s.send(s.fs.pid(), ServiceMsg::Close { handle });
    assert_eq!(s.fs.open_files().count(), 0);
}

#[test]
fn file_server_rejects_foreign_handles() {
    let mut s = Stand::new();
    s.fs.add_file("data", 100);
    s.send(
        s.fs.pid(),
        ServiceMsg::Open {
            name: "data".into(),
            create: false,
        },
    );
    let handle = *s.fs.open_files().next().expect("open").0;
    // Forge a request from a different process id.
    let intruder = ProcessId::new(LogicalHostId(9), 16);
    let now = s.rig.engine.now();
    let msg = MsgIn {
        to: s.fs.pid(),
        from: intruder,
        seq: SendSeq(999),
        body: ServiceMsg::Read { handle, bytes: 10 },
    };
    let k = s.rig.kernel_mut(0);
    s.fs.handle_request(now, msg, k, &mut SvcOutputs::default());
    assert_eq!(s.fs.stats().errors, 1, "foreign handle rejected");
    assert_eq!(s.fs.stats().bytes_read, 0);
}

#[test]
fn display_counts_per_client() {
    let mut s = Stand::new();
    s.send(s.display.pid(), ServiceMsg::WriteChars { count: 100 });
    s.send(s.display.pid(), ServiceMsg::WriteChars { count: 20 });
    assert_eq!(s.display.stats().writes, 2);
    assert_eq!(s.display.stats().chars, 120);
    assert_eq!(s.display.chars_from(s.client), 120);
    let other = ProcessId::new(LogicalHostId(5), 16);
    assert_eq!(s.display.chars_from(other), 0);
}

#[test]
fn bad_request_to_wrong_server_is_rejected() {
    let mut s = Stand::new();
    let bad = format!(
        "{:?}",
        Ok::<_, SendError>(ServiceMsg::Err(SvcError::BadRequest))
    );
    // A file op sent to the display server.
    let open = ServiceMsg::Open {
        name: "x".into(),
        create: true,
    };
    assert_eq!(s.call(s.display.pid(), open), bad);
    // And a display op to the PM.
    assert_eq!(s.call(s.pm.pid(), ServiceMsg::WriteChars { count: 1 }), bad);
    assert_eq!(s.display.stats().writes, 0);
    assert_eq!(s.pm.programs().len(), 0);
}

#[test]
fn wait_program_blocks_until_destroy() {
    let mut s = Stand::new();
    let spec = ProgramSpec {
        image: "job".into(),
        priority: Priority::GUEST,
    };
    s.send(s.pm.pid(), ServiceMsg::CreateProgram(Box::new(spec)));
    let (&lh, _) = s.pm.programs().iter().next().expect("program");

    // Issue the wait from a second client process so the destroy can be
    // sent concurrently from the first.
    let waiter = {
        let l = s
            .rig
            .kernel_mut(0)
            .logical_host_mut(LogicalHostId(1))
            .expect("system lh");
        l.create_process(vmem::SpaceId(0), Priority::LOCAL, false)
    };
    s.rig.drive(0, move |k, t, out| {
        k.send(
            t,
            waiter,
            s_pm_dest(),
            ServiceMsg::WaitProgram { lh },
            0,
            out,
        )
    });
    s.pump();
    // No completion yet: the wait is parked.
    let waits_done = s.completions.iter().filter(|(p, _)| *p == waiter).count();
    assert_eq!(waits_done, 0, "wait still parked");

    s.send(s.pm.pid(), ServiceMsg::DestroyProgram { lh });
    let waits_done: Vec<_> = s.completions.iter().filter(|(p, _)| *p == waiter).collect();
    assert_eq!(waits_done.len(), 1, "wait completed on destroy");
    assert!(waits_done[0].1.is_ok(), "completed successfully");
}

/// Destination helper: the stand's PM via its well-known local group.
fn s_pm_dest() -> vkernel::Destination {
    vkernel::Destination::Group(GroupId::program_manager_of(LogicalHostId(1)))
}

#[test]
fn suspended_programs_defer_process_messages_but_pm_stays_reachable() {
    let mut s = Stand::new();
    let spec = ProgramSpec {
        image: "job".into(),
        priority: Priority::GUEST,
    };
    s.send(s.pm.pid(), ServiceMsg::CreateProgram(Box::new(spec)));
    let (&lh, info) = s.pm.programs().iter().next().expect("program");
    let root = info.root;
    s.send(s.pm.pid(), ServiceMsg::SuspendProgram { lh });

    // A message to the suspended *process* defers...
    let client = s.client;
    s.rig.drive(0, move |k, t, out| {
        k.send(t, client, root.into(), ServiceMsg::WriteDone, 0, out)
    });
    s.pump();
    assert_eq!(
        s.rig
            .kernel(0)
            .logical_host(lh)
            .expect("resident")
            .deferred_count(),
        1
    );
    // ...while the PM of that logical host remains reachable (that is how
    // the resume arrives).
    s.send(s.pm.pid(), ServiceMsg::ResumeProgram { lh });
    assert!(!s
        .rig
        .kernel(0)
        .logical_host(lh)
        .expect("resident")
        .is_frozen());
}

/// Every duplicated migration step is acknowledged exactly like the
/// original and leaves one copy: a retransmitted `InitMigration`,
/// `InstallState` or `UnfreezeMigrated` (its first reply was lost) must
/// not decline, fail or build a second copy.
#[test]
fn duplicate_migration_steps_ack_idempotently() {
    let mut s = Stand::new();
    // The stand pumps every timer to quiescence, so the 60 s watchdogs
    // would reclaim each half-built copy before its duplicate arrived.
    s.pm.set_migration_watchdog(false);
    let pm = s.pm.pid();
    // The incoming program's kernel state, taken from a logical host that
    // is then deleted, as the source does after the commit.
    let lh = LogicalHostId(20_000);
    let layout = SpaceLayout::tiny();
    let (space, record) = {
        let k = s.rig.kernel_mut(0);
        let l = k.create_logical_host(lh);
        let space = l.create_space(layout);
        l.create_process(space, Priority::GUEST, false);
        (space, k.extract_migration_record(lh))
    };
    s.rig
        .drive(0, move |k, t, out| k.delete_logical_host(t, lh, out));
    s.pump();

    let temp = LogicalHostId(TEMP_LH_FLOOR);
    let resident_copies = |s: &Stand| {
        [temp, lh]
            .iter()
            .filter(|&&l| s.rig.kernel(0).is_resident(l))
            .count()
    };
    let init = ServiceMsg::InitMigration {
        temp,
        spaces: vec![(space, layout)],
    };
    let first = s.call(pm, init.clone());
    assert!(first.contains("MigrationAccepted"), "{first}");
    assert_eq!(s.call(pm, init), first, "duplicate init re-acked");
    assert_eq!(resident_copies(&s), 1);

    let install = ServiceMsg::InstallState {
        temp,
        record: Box::new(record),
        image: "job".into(),
        priority: Priority::GUEST,
        fetch: None,
        origin: None,
    };
    let ok = format!("{:?}", Ok::<_, SendError>(ServiceMsg::Ok));
    assert_eq!(s.call(pm, install.clone()), ok);
    assert_eq!(s.call(pm, install), ok, "duplicate install re-acked");
    assert!(s.rig.kernel(0).is_resident(lh) && !s.rig.kernel(0).is_resident(temp));
    assert_eq!(resident_copies(&s), 1);
    assert_eq!(s.pm.programs().len(), 1);

    let unfreeze = ServiceMsg::UnfreezeMigrated { lh };
    assert_eq!(s.call(pm, unfreeze.clone()), ok);
    assert_eq!(s.call(pm, unfreeze), ok, "duplicate unfreeze re-acked");
    assert_eq!(resident_copies(&s), 1);
    let adopted = s
        .events
        .iter()
        .filter(|e| matches!(e, SvcEvent::LogicalHostAdopted { lh: l } if *l == lh))
        .count();
    assert_eq!(adopted, 1, "the copy was unfrozen once");
    assert!(!s
        .rig
        .kernel(0)
        .logical_host(lh)
        .expect("resident")
        .is_frozen());
}
