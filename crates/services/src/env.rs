//! Execution environments.
//!
//! §2.1: the requester "initializes the new program space with program
//! arguments, default I/O, and various 'environment variables', including
//! a name cache for commonly used global names". Because the environment
//! lives *in the program's address space* (or points at global servers),
//! it migrates with the program — the paper's §6 principle for avoiding
//! residual dependencies. The name cache binds symbolic names to process
//! ids, which stay valid across migration.

use std::collections::BTreeMap;

use vkernel::ProcessId;

/// Well-known name of the network file server in the default name cache.
pub const NAME_FILE_SERVER: &str = "fileserver";

/// Well-known name of the user's display server.
pub const NAME_DISPLAY: &str = "display";

/// An execution environment block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecEnv {
    /// Environment variables.
    pub vars: BTreeMap<String, String>,
    /// Name cache: symbolic name → server process. Process ids are
    /// location-independent, so these bindings survive migration.
    pub name_cache: BTreeMap<String, ProcessId>,
    /// Standard input/output server (usually the display server of the
    /// workstation the user sits at — which never migrates).
    pub stdio: Option<ProcessId>,
}

impl ExecEnv {
    /// Builds the default environment a command interpreter would install:
    /// stdio on the user's display, and the global file server in the name
    /// cache.
    pub fn standard(display: ProcessId, file_server: ProcessId) -> Self {
        let mut name_cache = BTreeMap::new();
        name_cache.insert(NAME_FILE_SERVER.to_string(), file_server);
        name_cache.insert(NAME_DISPLAY.to_string(), display);
        ExecEnv {
            vars: BTreeMap::new(),
            name_cache,
            stdio: Some(display),
        }
    }

    /// Looks up a server by symbolic name.
    pub fn resolve(&self, name: &str) -> Option<ProcessId> {
        self.name_cache.get(name).copied()
    }

    /// The file server this program uses.
    pub fn file_server(&self) -> Option<ProcessId> {
        self.resolve(NAME_FILE_SERVER)
    }

    /// The display server this program writes to.
    pub fn display(&self) -> Option<ProcessId> {
        self.resolve(NAME_DISPLAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::LogicalHostId;

    fn pid(lh: u32, i: u32) -> ProcessId {
        ProcessId::new(LogicalHostId(lh), i)
    }

    #[test]
    fn standard_env_binds_servers() {
        let env = ExecEnv::standard(pid(1, 20), pid(2, 16));
        assert_eq!(env.display(), Some(pid(1, 20)));
        assert_eq!(env.file_server(), Some(pid(2, 16)));
        assert_eq!(env.stdio, Some(pid(1, 20)));
        assert_eq!(env.resolve("nonexistent"), None);
        assert_eq!(ExecEnv::default().file_server(), None);
    }
}
