//! E11 — §4.2 space cost of the migration facility.
//!
//! The paper: migration added 8 KB of code+data to the kernel and 4 KB to
//! the program manager; remote execution itself added nothing (the kernel
//! is network-transparent anyway). We report the analogous static
//! accounting for this reproduction: source lines of the migration-only
//! modules versus the rest.

use vbench::emit;

struct Results {
    migration_loc: usize,
    kernel_loc: usize,
    services_loc: usize,
    migration_fraction: f64,
}
vsim::impl_to_json!(Results {
    migration_loc,
    kernel_loc,
    services_loc,
    migration_fraction
});

/// Non-blank, non-comment lines of `path` above its `#[cfg(test)]`
/// module, so unit tests do not count as mechanism; exits with code 1,
/// naming the file, when it cannot be read — a missing file is not 0
/// lines. Each counted file keeps its unit tests in one module at the
/// end.
fn count_loc(path: &str) -> usize {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("exp_space_cost: cannot read {path}: {e}");
        std::process::exit(1)
    });
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

fn main() {
    vbench::args(); // start the wall clock; this experiment has no knobs
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".into());

    // Migration-specific code: the engine, plus the kernel's
    // freeze/record/transfer support (counted as whole modules where the
    // module exists only for migration).
    let migration_files = [
        "crates/core/src/migration.rs",
        "crates/kernel/src/transfer.rs",
    ];
    let kernel_files = [
        "crates/kernel/src/kernel.rs",
        "crates/kernel/src/logical_host.rs",
        "crates/kernel/src/binding.rs",
        "crates/kernel/src/packet.rs",
        "crates/kernel/src/process.rs",
        "crates/kernel/src/ids.rs",
    ];
    let service_files = [
        "crates/services/src/program_manager.rs",
        "crates/services/src/file_server.rs",
        "crates/services/src/display.rs",
        "crates/services/src/msg.rs",
    ];

    let mig: usize = migration_files
        .iter()
        .map(|f| count_loc(&format!("{root}/{f}")))
        .sum();
    let kern: usize = kernel_files
        .iter()
        .map(|f| count_loc(&format!("{root}/{f}")))
        .sum();
    let svc: usize = service_files
        .iter()
        .map(|f| count_loc(&format!("{root}/{f}")))
        .sum();

    println!(
        "\nThe paper's 8 KB + 4 KB against a kernel of tens of KB is the\n\
         same shape: migration is a modest add-on to a kernel whose IPC\n\
         was network-transparent from the start."
    );
    // Static analysis only — no simulation runs, so the report is empty.
    emit(
        "exp_space_cost",
        &Results {
            migration_loc: mig,
            kernel_loc: kern,
            services_loc: svc,
            migration_fraction: mig as f64 / (mig + kern + svc) as f64,
        },
        &vsim::MetricsReport::new(),
    );
}
