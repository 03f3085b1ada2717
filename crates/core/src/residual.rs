//! Residual-dependency auditing: the paper's §3.3.
//!
//! "Extraneous state that is created in the original host workstation may
//! lead to residual dependencies on this host after the program has been
//! migrated" — open files on a workstation-local file server being the
//! canonical example. The paper notes "there is currently no mechanism for
//! detecting or handling these dependencies"; this auditor *is* such a
//! mechanism (flagged as future work there), plus the convention checks
//! (§6) that avoid the problem in the first place.

use vkernel::{LogicalHostId, ProcessId};
use vnet::HostAddr;
use vservices::{ExecEnv, FileServer};

use crate::report::ResidualDependency;

/// Audits a *workstation-local* file server: any open file owned by a
/// process whose logical host no longer resides on that workstation is a
/// residual dependency (the file access still works via network-transparent
/// IPC, but loads the old host and dies with it).
///
/// `locate` maps a logical host to the physical host it currently runs on
/// (`None` if gone).
pub fn audit_local_file_server(
    fs: &FileServer,
    fs_host: HostAddr,
    locate: impl Fn(LogicalHostId) -> Option<HostAddr>,
) -> Vec<ResidualDependency> {
    let mut out = Vec::new();
    for (_, f) in fs.open_files() {
        let runs_on = locate(f.owner.lh);
        if runs_on != Some(fs_host) {
            out.push(ResidualDependency {
                pid: f.owner,
                runs_on,
                depends_on: fs_host,
                resource: format!("open file \"{}\"", f.name),
            });
        }
    }
    out
}

/// Audits an environment block against the §6 principle: "place the state
/// of a program's execution environment either in its address space or in
/// global servers". Any name-cache binding to a server on `local_host`
/// other than the always-co-resident display is flagged.
///
/// `locate` maps a server process to its current physical host; `is_global`
/// says whether a server is a global (migration-safe) service.
pub fn audit_environment(
    owner: ProcessId,
    env: &ExecEnv,
    runs_on: HostAddr,
    locate: impl Fn(ProcessId) -> Option<HostAddr>,
    is_global: impl Fn(ProcessId) -> bool,
) -> Vec<ResidualDependency> {
    let mut out = Vec::new();
    for (name, &server) in &env.name_cache {
        if is_global(server) {
            continue;
        }
        if name == vservices::NAME_DISPLAY {
            // The display is *supposed* to stay with the user (§2); its
            // host dependency is by design, not residual.
            continue;
        }
        if let Some(h) = locate(server) {
            if h != runs_on {
                out.push(ResidualDependency {
                    pid: owner,
                    runs_on: Some(runs_on),
                    depends_on: h,
                    resource: format!("name-cache binding \"{name}\" -> {server}"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::{Kernel, KernelConfig, LogicalHostId, Priority};
    use vmem::SpaceLayout;
    use vservices::ServiceMsg;
    use vsim::SimTime;

    fn pid(lh: u32, i: u32) -> ProcessId {
        ProcessId::new(LogicalHostId(lh), i)
    }

    #[test]
    fn open_file_on_departed_host_is_residual() {
        // Build a tiny world: a local file server on host0, a client
        // process that opens a file, then "migrates" to host1.
        let mut k: Kernel<ServiceMsg> =
            Kernel::new(HostAddr(0), KernelConfig::default(), vsim::Trace::quiet());
        let l = k.create_logical_host(LogicalHostId(1));
        let team = l.create_space(SpaceLayout::tiny());
        let fs_pid = l.create_process(team, Priority::SYSTEM, false);
        let client = pid(7, 16);

        let mut fs = FileServer::new(fs_pid);
        fs.add_file("tmp/scratch", 100);
        // Deliver an Open request by hand.
        let msg = vkernel::MsgIn {
            to: fs_pid,
            from: client,
            seq: vkernel::SendSeq(0),
            body: ServiceMsg::Open {
                name: "tmp/scratch".into(),
                create: false,
            },
        };
        let _ = fs.handle_request(SimTime::ZERO, msg, &mut k);
        assert_eq!(fs.open_files().count(), 1);

        // While the client runs on host0: no residual dependency.
        let deps = audit_local_file_server(&fs, HostAddr(0), |_| Some(HostAddr(0)));
        assert!(deps.is_empty());

        // After migration to host1: flagged.
        let deps = audit_local_file_server(&fs, HostAddr(0), |_| Some(HostAddr(1)));
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].depends_on, HostAddr(0));
        assert!(deps[0].resource.contains("tmp/scratch"));

        // After the old host reboots and the program is gone: also flagged
        // (with unknown location).
        let deps = audit_local_file_server(&fs, HostAddr(0), |_| None);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].runs_on, None);
    }

    #[test]
    fn env_audit_flags_local_bindings_but_not_display_or_globals() {
        let display = pid(1, 20);
        let global_fs = pid(2, 16);
        let local_spooler = pid(3, 16);
        let mut env = ExecEnv::standard(display, global_fs);
        env.name_cache.insert("spooler".into(), local_spooler);

        let owner = pid(9, 16);
        let runs_on = HostAddr(5);
        let locate = |p: ProcessId| {
            Some(match p {
                p if p == display => HostAddr(0),
                p if p == global_fs => HostAddr(10),
                _ => HostAddr(0), // The spooler stayed on the old host.
            })
        };
        let is_global = |p: ProcessId| p == global_fs;

        let deps = audit_environment(owner, &env, runs_on, locate, is_global);
        assert_eq!(deps.len(), 1, "{deps:?}");
        assert!(deps[0].resource.contains("spooler"));
        assert_eq!(deps[0].depends_on, HostAddr(0));
    }
}
