//! The results cache: `results/cache/` keyed by cell hash.
//!
//! Layout, per cell (`<stem>` = `<bin>-<16-hex-digit key>`):
//!
//! * `<stem>.json` — the artifact the binary wrote via `--out`;
//! * `<stem>.config.json` — the canonical config the cell ran with;
//! * `<stem>.log` — captured stdout + stderr of the run;
//! * `<stem>_trace.json` — the Perfetto trace a span-instrumented binary
//!   writes beside its `--out` artifact (absent for the others).
//!
//! A cell is a **hit** when its artifact exists, parses as JSON (via the
//! same [`vsim::Json`] reader the simulation uses), and names the
//! expected experiment binary — a truncated file from a killed run is a
//! miss, not an error. The directory is safe to delete at any time; the
//! next sweep just re-runs everything.

use std::path::{Path, PathBuf};
use vsim::Json;

/// Handle on a sweep's cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Cache under `results_dir` (`<results_dir>/cache`), created on
    /// first use.
    #[must_use]
    pub fn new(results_dir: &Path) -> Cache {
        Cache {
            dir: results_dir.join("cache"),
        }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File stem for a cell: `<bin>-<key as 16 hex digits>`.
    #[must_use]
    pub fn stem(bin: &str, key: u64) -> String {
        format!("{bin}-{key:016x}")
    }

    /// Artifact path for a cell (where `--out` points).
    #[must_use]
    pub fn artifact_path(&self, bin: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{}.json", Cache::stem(bin, key)))
    }

    /// Config path for a cell (where `--config` points).
    #[must_use]
    pub fn config_path(&self, bin: &str, key: u64) -> PathBuf {
        self.dir
            .join(format!("{}.config.json", Cache::stem(bin, key)))
    }

    /// Trace path for a cell (written beside the artifact, if at all).
    #[must_use]
    pub fn trace_path(&self, bin: &str, key: u64) -> PathBuf {
        self.dir
            .join(format!("{}_trace.json", Cache::stem(bin, key)))
    }

    /// Log path for a cell (captured stdout/stderr).
    #[must_use]
    pub fn log_path(&self, bin: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{}.log", Cache::stem(bin, key)))
    }

    /// Creates the cache directory.
    pub fn ensure(&self) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))
    }

    /// Returns the cached artifact text for a cell, verifying it parses
    /// and names `bin`; `None` on any miss (absent, truncated, stale).
    #[must_use]
    pub fn lookup(&self, bin: &str, key: u64) -> Option<String> {
        let text = std::fs::read_to_string(self.artifact_path(bin, key)).ok()?;
        verify(&text, bin).ok()?;
        Some(text)
    }
}

/// Checks that artifact `text` is well-formed JSON whose `experiment`
/// field is `bin`. Used both for cache lookups and to validate a
/// just-finished run before trusting its output.
pub fn verify(text: &str, bin: &str) -> Result<Json, String> {
    let json = Json::parse(text).map_err(|e| format!("artifact does not parse: {e}"))?;
    match json.get("experiment").and_then(Json::as_str) {
        Some(name) if name == bin => Ok(json),
        Some(name) => Err(format!(
            "artifact names experiment `{name}`, expected `{bin}`"
        )),
        None => Err("artifact has no `experiment` field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("vrun-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Cache::new(&dir);
        c.ensure().unwrap();
        c
    }

    #[test]
    fn stem_is_bin_plus_16_hex_digits() {
        assert_eq!(Cache::stem("exp_a", 0x1a), "exp_a-000000000000001a");
    }

    #[test]
    fn lookup_accepts_only_wellformed_matching_artifacts() {
        let c = temp_cache("lookup");
        assert!(c.lookup("exp_a", 7).is_none(), "absent = miss");

        std::fs::write(c.artifact_path("exp_a", 7), "{\"experiment\": \"exp_a\"").unwrap();
        assert!(c.lookup("exp_a", 7).is_none(), "truncated = miss");

        std::fs::write(
            c.artifact_path("exp_a", 7),
            "{\"experiment\": \"other\", \"table\": []}",
        )
        .unwrap();
        assert!(c.lookup("exp_a", 7).is_none(), "wrong experiment = miss");

        let good = "{\"experiment\": \"exp_a\", \"table\": []}";
        std::fs::write(c.artifact_path("exp_a", 7), good).unwrap();
        assert_eq!(c.lookup("exp_a", 7).as_deref(), Some(good));
    }
}
