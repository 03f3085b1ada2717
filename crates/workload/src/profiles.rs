//! The paper's measured programs.
//!
//! Table 4-1 reports, for eight programs, the average KB of dirty pages
//! generated over 0.2 s, 1 s and 3 s windows. Those three points per
//! program pin the WWS model parameters; address-space layouts and phase
//! structure are plausible reconstructions (documented in DESIGN.md) —
//! what matters for the reproduction is the *dirtying behaviour*, which is
//! fitted, and the image sizes, which set load/migration costs.

use std::sync::OnceLock;

use vmem::{SpaceLayout, WwsParams};
use vsim::SimDuration;

use crate::program::{Phase, ProgramProfile};

/// One row of Table 4-1: program name and dirty KB at 0.2 / 1 / 3 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table41Row {
    /// Program name as printed in the paper.
    pub name: &'static str,
    /// Dirty KB generated in 0.2 s.
    pub at_0_2s: f64,
    /// Dirty KB generated in 1 s.
    pub at_1s: f64,
    /// Dirty KB generated in 3 s.
    pub at_3s: f64,
}

impl Table41Row {
    /// The row as `(window_secs, dirty_kb)` fit points.
    pub fn points(&self) -> [(f64, f64); 3] {
        [(0.2, self.at_0_2s), (1.0, self.at_1s), (3.0, self.at_3s)]
    }

    /// Fits the WWS parameters to this row, page-quantization-aware (the
    /// sampler dirties whole 2 KB pages, which matters for the sub-page
    /// `make` and `cc68` rows). The fit is a grid search, so the
    /// [`TABLE_4_1`] rows are fitted once per process; any other row is
    /// fitted on every call.
    pub fn fit(&self) -> WwsParams {
        static FITS: OnceLock<[WwsParams; TABLE_4_1.len()]> = OnceLock::new();
        match TABLE_4_1.iter().position(|r| r == self) {
            Some(i) => FITS.get_or_init(|| TABLE_4_1.map(|r| r.fit_uncached()))[i],
            None => self.fit_uncached(),
        }
    }

    fn fit_uncached(&self) -> WwsParams {
        WwsParams::fit_quantized(&self.points(), PAGE_KB)
    }
}

/// The sampler's page size in KB, the quantum [`Table41Row::fit`] fits in.
const PAGE_KB: f64 = vsim::calib::PAGE_BYTES as f64 / 1024.0;

/// Table 4-1 of the paper, verbatim.
pub const TABLE_4_1: [Table41Row; 8] = [
    Table41Row {
        name: "make",
        at_0_2s: 0.8,
        at_1s: 1.8,
        at_3s: 4.2,
    },
    Table41Row {
        name: "cc68",
        at_0_2s: 0.6,
        at_1s: 2.2,
        at_3s: 6.2,
    },
    Table41Row {
        name: "preprocessor",
        at_0_2s: 25.0,
        at_1s: 40.2,
        at_3s: 59.6,
    },
    Table41Row {
        name: "parser",
        at_0_2s: 50.0,
        at_1s: 76.8,
        at_3s: 109.4,
    },
    Table41Row {
        name: "optimizer",
        at_0_2s: 19.8,
        at_1s: 32.2,
        at_3s: 41.0,
    },
    Table41Row {
        name: "assembler",
        at_0_2s: 21.6,
        at_1s: 33.4,
        at_3s: 48.4,
    },
    Table41Row {
        name: "linking loader",
        at_0_2s: 25.0,
        at_1s: 39.2,
        at_3s: 37.8,
    },
    Table41Row {
        name: "tex",
        at_0_2s: 68.6,
        at_1s: 111.6,
        at_3s: 142.8,
    },
];

const KB: u64 = 1024;

/// Reconstructed address-space layout for a Table 4-1 program.
///
/// Sizes are plausible for 1985 SUN binaries; the heap is generous enough
/// that the fitted cold sweep does not wrap within the paper's longest
/// measurement window.
pub fn layout_for(name: &str) -> SpaceLayout {
    let (code, idata, heap, stack) = match name {
        "make" => (48, 8, 128, 16),
        "cc68" => (32, 4, 64, 16),
        "preprocessor" => (80, 16, 256, 16),
        "parser" => (160, 32, 512, 16),
        "optimizer" => (120, 16, 384, 16),
        "assembler" => (96, 16, 320, 16),
        "linking loader" => (80, 16, 448, 16),
        "tex" => (400, 64, 700, 32),
        _ => (64, 8, 256, 16),
    };
    SpaceLayout {
        code_bytes: code * KB,
        init_data_bytes: idata * KB,
        heap_bytes: heap * KB,
        stack_bytes: stack * KB,
    }
}

/// CPU a typical run of the program consumes (reconstruction; the paper's
/// remark that users offload "non-interactive programs with non-trivial
/// running times" sets the scale).
pub fn cpu_for(name: &str) -> SimDuration {
    SimDuration::from_secs(match name {
        "make" => 20,
        "cc68" => 15,
        "preprocessor" => 8,
        "parser" => 15,
        "optimizer" => 12,
        "assembler" => 10,
        "linking loader" => 8,
        "tex" => 60,
        _ => 10,
    })
}

/// Steady-compute profile for one Table 4-1 program (used by the dirty-
/// rate measurement, where only the compute behaviour matters).
pub fn steady_profile(row: &Table41Row) -> ProgramProfile {
    ProgramProfile::steady(row.name, layout_for(row.name), row.fit(), cpu_for(row.name))
}

/// A realistic compiler-pass profile: read source, compute, write output.
pub fn realistic_profile(row: &Table41Row) -> ProgramProfile {
    let name = row.name;
    let cpu = cpu_for(name);
    let phases = vec![
        Phase::FileRead {
            name: format!("{name}.in"),
            bytes: 40 * KB,
            chunk: 8 * KB,
        },
        Phase::Compute(cpu / 2),
        Phase::Display { chars: 80 },
        Phase::Compute(cpu / 2),
        Phase::FileWrite {
            name: format!("{name}.out"),
            bytes: 60 * KB,
            chunk: 8 * KB,
        },
        Phase::Display { chars: 40 },
    ];
    ProgramProfile {
        name: name.to_string(),
        layout: layout_for(name),
        wws: row.fit(),
        phases,
    }
}

/// The interactive text-editing user of §2 ("the most common activity is
/// editing files").
pub fn editor_profile(keystrokes: u64) -> ProgramProfile {
    ProgramProfile {
        name: "edit".into(),
        layout: SpaceLayout {
            code_bytes: 96 * KB,
            init_data_bytes: 16 * KB,
            heap_bytes: 192 * KB,
            stack_bytes: 16 * KB,
        },
        wws: WwsParams {
            hot_kb: 6.0,
            hot_write_kb_per_sec: 30.0,
            cold_kb_per_sec: 0.5,
        },
        phases: vec![Phase::Interactive {
            mean_gap: SimDuration::from_millis(400),
            burst: SimDuration::from_millis(5),
            count: keystrokes,
        }],
    }
}

/// A long-running simulation job — the §4.3 use case that most benefits
/// from preemptable remote execution.
pub fn simulation_profile(cpu: SimDuration) -> ProgramProfile {
    ProgramProfile {
        name: "simulate".into(),
        layout: SpaceLayout {
            code_bytes: 128 * KB,
            init_data_bytes: 32 * KB,
            heap_bytes: 900 * KB,
            stack_bytes: 16 * KB,
        },
        wws: WwsParams {
            hot_kb: 90.0,
            hot_write_kb_per_sec: 400.0,
            cold_kb_per_sec: 4.0,
        },
        phases: vec![Phase::Compute(cpu)],
    }
}

/// The real `cc68` of the paper: a control program that runs its five
/// passes — preprocessor, parser, optimizer, assembler, linking loader —
/// as separate subprograms, each placed on an idle host by the `@*`
/// machinery and awaited (§4.1 footnote, §2 "truly distributed
/// programs").
///
/// # Panics
///
/// Panics if Table 4-1 lacks the `cc68` row or one of its pass rows.
#[allow(clippy::expect_used)]
pub fn cc68_pipeline() -> ProgramProfile {
    let control = row("cc68").expect("cc68 row");
    let passes = [
        "preprocessor",
        "parser",
        "optimizer",
        "assembler",
        "linking loader",
    ];
    let mut phases = Vec::new();
    for pass in passes {
        let r = row(pass).expect("pass row");
        phases.push(Phase::SpawnAndWait {
            profile: Box::new(steady_profile(r)),
        });
        // The control program does a little bookkeeping between passes.
        phases.push(Phase::Compute(SimDuration::from_millis(200)));
    }
    ProgramProfile {
        name: "cc68".into(),
        layout: layout_for("cc68"),
        wws: control.fit(),
        phases,
    }
}

/// Row lookup by name.
pub fn row(name: &str) -> Option<&'static Table41Row> {
    TABLE_4_1.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoised_fits_equal_a_fresh_grid_search() {
        let bits = |p: WwsParams| {
            [
                p.hot_kb.to_bits(),
                p.hot_write_kb_per_sec.to_bits(),
                p.cold_kb_per_sec.to_bits(),
            ]
        };
        for r in &TABLE_4_1 {
            let fresh = WwsParams::fit_quantized(&r.points(), PAGE_KB);
            // First call fills the table, the second reads it back.
            assert_eq!(bits(r.fit()), bits(fresh), "{}", r.name);
            assert_eq!(bits(r.fit()), bits(fresh), "{}", r.name);
        }
        // A row outside the table is fitted from its own points.
        let custom = Table41Row {
            name: "make",
            at_0_2s: 3.0,
            at_1s: 9.0,
            at_3s: 20.0,
        };
        let fresh = WwsParams::fit_quantized(&custom.points(), PAGE_KB);
        assert_eq!(bits(custom.fit()), bits(fresh));
        assert_ne!(bits(custom.fit()), bits(TABLE_4_1[0].fit()));
    }

    #[test]
    fn all_rows_fit_reasonably() {
        let page_kb = vsim::calib::PAGE_BYTES as f64 / 1024.0;
        for r in &TABLE_4_1 {
            let fit = r.fit();
            let rms = {
                let sum: f64 = r
                    .points()
                    .iter()
                    .map(|&(t, y)| {
                        let e = (fit.expected_dirty_kb_quantized(t, page_kb) - y) / y;
                        e * e
                    })
                    .sum();
                (sum / 3.0).sqrt()
            };
            // Sub-page rows (make, cc68) collide with 2 KB page
            // granularity; the non-monotone linking-loader row cannot fit
            // a monotone model exactly.
            let bound = match r.name {
                "make" | "cc68" => 0.30,
                "linking loader" => 0.15,
                _ => 0.06,
            };
            assert!(rms < bound, "{}: rms {:.3} with {:?}", r.name, rms, fit);
        }
    }

    #[test]
    fn heaps_fit_the_cold_sweep() {
        // The fitted hot set + 3 s of cold sweep must fit in the heap,
        // or Table 4-1 measurements would saturate artificially.
        for r in &TABLE_4_1 {
            let fit = r.fit();
            let need_kb = fit.hot_kb + fit.cold_kb_per_sec * 3.0;
            let heap_kb = layout_for(r.name).heap_bytes as f64 / 1024.0;
            assert!(
                heap_kb > need_kb * 1.2,
                "{}: heap {heap_kb} KB vs needed {need_kb:.0} KB",
                r.name
            );
        }
    }

    #[test]
    fn layouts_fit_in_workstation_memory() {
        for r in &TABLE_4_1 {
            assert!(
                layout_for(r.name).total_bytes() < 1536 * 1024,
                "{} image too large for a 2 MB workstation",
                r.name
            );
        }
    }

    #[test]
    fn steady_profiles_are_single_phase() {
        for p in TABLE_4_1.iter().map(steady_profile) {
            assert_eq!(p.phases.len(), 1);
            assert!(matches!(p.phases[0], Phase::Compute(_)));
        }
    }

    #[test]
    fn realistic_profile_has_io() {
        let p = realistic_profile(row("parser").expect("row exists"));
        assert!(p
            .phases
            .iter()
            .any(|ph| matches!(ph, Phase::FileRead { .. })));
        assert!(p
            .phases
            .iter()
            .any(|ph| matches!(ph, Phase::FileWrite { .. })));
        assert_eq!(p.total_cpu(), cpu_for("parser"));
    }

    #[test]
    fn expected_dirty_matches_table_within_tolerance() {
        // The fitted model evaluated at the table's windows reproduces the
        // table (the measurement harness then verifies the *sampled*
        // behaviour matches too).
        let page_kb = vsim::calib::PAGE_BYTES as f64 / 1024.0;
        for r in &TABLE_4_1 {
            if matches!(r.name, "linking loader" | "make" | "cc68") {
                continue; // Non-monotone / sub-page rows: looser bounds
                          // covered by all_rows_fit_reasonably.
            }
            let fit = r.fit();
            for (t, y) in r.points() {
                let pred = fit.expected_dirty_kb_quantized(t, page_kb);
                let rel = (pred - y).abs() / y;
                assert!(
                    rel < 0.10,
                    "{} at {t}s: predicted {pred:.1} vs table {y:.1}",
                    r.name
                );
            }
        }
    }
}
