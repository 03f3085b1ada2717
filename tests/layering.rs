//! The crate layering: each workspace crate may depend only on the
//! crates below it in the stack.
//!
//! rustc already rejects a path into a crate that is not a dependency,
//! so the DAG is enforced at the manifests: every package `cargo
//! metadata` lists must have an entry in [`LAYERING`], and each of its
//! normal dependencies must be allowed there. Dev-dependencies are not
//! checked.

use std::process::Command;

use vsim::Json;

/// The intended dependency DAG, bottom layer first. An entry may only
/// allow crates listed above it. vbench appears in no allow-list:
/// bench-only code is never imported by library crates.
#[rustfmt::skip]
const LAYERING: &[(&str, &[&str])] = &[
    ("vsim", &[]),
    ("vnet", &["vsim"]),
    ("vmem", &["vsim"]),
    ("vkernel", &["vsim", "vnet", "vmem"]),
    ("vservices", &["vsim", "vnet", "vmem", "vkernel"]),
    ("vworkload", &["vsim", "vnet", "vmem", "vkernel", "vservices"]),
    ("vcore", &["vsim", "vnet", "vmem", "vkernel", "vservices", "vworkload"]),
    ("vcluster", &["vsim", "vnet", "vmem", "vkernel", "vservices", "vworkload", "vcore"]),
    ("vbench", &["vsim", "vnet", "vmem", "vkernel", "vservices", "vworkload", "vcore", "vcluster"]),
    ("vrun", &["vsim"]),
    ("vtrace", &["vsim"]),
    ("v-system", &["vsim", "vnet", "vmem", "vkernel", "vservices", "vworkload", "vcore", "vcluster"]),
];

/// `(package, normal dependencies)` for every workspace member.
fn workspace_packages() -> Vec<(String, Vec<String>)> {
    let out = Command::new(env!("CARGO"))
        .args([
            "metadata",
            "--no-deps",
            "--offline",
            "--format-version",
            "1",
        ])
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .output()
        .expect("spawn cargo metadata");
    assert!(
        out.status.success(),
        "cargo metadata failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let meta = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("metadata is JSON");
    let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
    let packages = meta
        .get("packages")
        .and_then(Json::as_arr)
        .expect("packages");
    packages
        .iter()
        .map(|p| {
            let deps = p.get("dependencies").and_then(Json::as_arr).expect("deps");
            let normal = deps
                .iter()
                .filter(|d| matches!(d.get("kind"), Some(Json::Null)))
                .map(|d| str_of(d, "name").expect("dependency name"))
                .collect();
            (str_of(p, "name").expect("package name"), normal)
        })
        .collect()
}

#[test]
fn layering_is_a_dag_in_listed_order() {
    for (i, (krate, allowed)) in LAYERING.iter().enumerate() {
        for dep in *allowed {
            assert!(
                LAYERING[..i].iter().any(|(c, _)| c == dep),
                "{krate} allows {dep}, which is not listed above it"
            );
        }
    }
}

#[test]
fn every_crate_depends_only_on_layers_below_it() {
    let packages = workspace_packages();
    let mut violations = Vec::new();
    for (name, deps) in &packages {
        let Some((_, allowed)) = LAYERING.iter().find(|(c, _)| c == name) else {
            violations.push(format!("{name}: no entry in LAYERING"));
            continue;
        };
        for dep in deps {
            if !allowed.contains(&dep.as_str()) {
                violations.push(format!("{name} depends on {dep}, which LAYERING forbids"));
            }
        }
    }
    for (krate, _) in LAYERING {
        if !packages.iter().any(|(name, _)| name == krate) {
            violations.push(format!(
                "LAYERING lists {krate}, which is not a workspace crate"
            ));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
