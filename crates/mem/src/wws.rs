//! The writable-working-set (WWS) dirty-page model.
//!
//! Table 4-1 of the paper reports, for eight programs, the average number
//! of kilobytes dirtied over windows of 0.2, 1 and 3 seconds. The curves
//! are strongly concave: a *hot set* of pages is re-written continuously
//! (saturating quickly) while a slower *cold sweep* touches new pages
//! linearly. We model the expected unique KB dirtied in a window of `t`
//! seconds as
//!
//! ```text
//! dirty(t) = H · (1 − e^(−w·t / H)) + r · t
//! ```
//!
//! where `H` is the hot-set size (KB), `w` the hot write rate (KB/s of
//! stores landing uniformly in the hot set) and `r` the cold sweep rate
//! (KB/s of first-touch writes). [`WwsParams::fit_quantized`] recovers
//! `(H, w, r)` from the paper's three points per program, in whole pages;
//! [`WwsSampler`] then issues
//! *concrete page writes* against an [`AddressSpace`] so that experiments
//! measure dirty pages from the page tables, not from the formula.

use vsim::calib::PAGE_BYTES;
use vsim::{DetRng, SimDuration};

use crate::space::AddressSpace;

/// Fitted parameters of the WWS model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WwsParams {
    /// Hot-set size in KB.
    pub hot_kb: f64,
    /// Hot write rate in KB/s (stores, counting re-writes).
    pub hot_write_kb_per_sec: f64,
    /// Cold first-touch sweep rate in KB/s.
    pub cold_kb_per_sec: f64,
}

impl WwsParams {
    /// Expected unique KB dirtied in a window of `t` seconds.
    pub fn expected_dirty_kb(&self, t: f64) -> f64 {
        let hot = if self.hot_kb <= f64::EPSILON {
            0.0
        } else {
            self.hot_kb * (1.0 - (-self.hot_write_kb_per_sec * t / self.hot_kb).exp())
        };
        hot + self.cold_kb_per_sec * t
    }

    /// Fits parameters under **page quantization**: the sampler dirties
    /// whole pages, so for programs whose rates are comparable to one page
    /// (the paper's `make` at 0.8 KB / 0.2 s) the continuous fit
    /// overshoots badly. This variant searches integer hot-set sizes `h`
    /// (pages) and a store rate, predicting
    /// `page_kb·h·(1 − e^(−λT/h)) + r·T` — exactly what the sampler
    /// realizes in expectation.
    ///
    /// The returned parameters are sampler-exact: `hot_kb` is a whole
    /// number of pages and `hot_write_kb_per_sec / page_kb` is the store
    /// rate λ.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two points or non-positive observations.
    pub fn fit_quantized(points: &[(f64, f64)], page_kb: f64) -> WwsParams {
        assert!(points.len() >= 2, "need at least two points to fit");
        assert!(
            points.iter().all(|&(t, y)| t > 0.0 && y > 0.0),
            "points must be positive"
        );
        assert!(page_kb > 0.0);
        let y_max = points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
        let h_max = ((4.0 * y_max / page_kb).ceil() as u64).max(2);

        let eval = |h: u64, lam: f64, r: f64, t: f64| -> f64 {
            let hot = if h == 0 {
                0.0
            } else {
                page_kb * h as f64 * (1.0 - (-lam * t / h as f64).exp())
            };
            hot + r * t
        };
        let mut best = (f64::INFINITY, 0u64, 0.0f64, 0.0f64);
        for h in 0..=h_max {
            // λ grid (stores/sec), log-spaced; r in closed form per (h, λ).
            let steps = 160;
            let (lo, hi) = (1e-3f64, 1e5f64);
            for j in 0..=steps {
                let lam = lo * (hi / lo).powf(j as f64 / steps as f64);
                let (mut num, mut den) = (0.0, 0.0);
                for &(t, y) in points {
                    let g = eval(h, lam, 0.0, t);
                    num += t * (y - g);
                    den += t * t;
                }
                let r = (num / den).max(0.0);
                let loss: f64 = points
                    .iter()
                    .map(|&(t, y)| {
                        let e = (eval(h, lam, r, t) - y) / y;
                        e * e
                    })
                    .sum();
                if loss < best.0 {
                    best = (loss, h, lam, r);
                }
            }
        }
        WwsParams {
            hot_kb: best.1 as f64 * page_kb,
            hot_write_kb_per_sec: best.2 * page_kb,
            cold_kb_per_sec: best.3,
        }
    }

    /// Expected unique KB dirtied in `t` seconds under page quantization
    /// (matches what [`WwsSampler`] produces for parameters built by
    /// [`WwsParams::fit_quantized`]).
    pub fn expected_dirty_kb_quantized(&self, t: f64, page_kb: f64) -> f64 {
        let h = (self.hot_kb / page_kb).ceil();
        let lam = self.hot_write_kb_per_sec / page_kb;
        let hot = if h < 1.0 {
            0.0
        } else {
            page_kb * h * (1.0 - (-lam * t / h).exp())
        };
        hot + self.cold_kb_per_sec * t
    }
}

/// Issues concrete page writes that realize a [`WwsParams`] against an
/// address space.
///
/// The hot set is a random subset of the space's writable pages; hot
/// stores land uniformly in it. The cold sweep first-touches the remaining
/// writable pages in a shuffled order, starting over (as re-writes, which
/// dirty but are no longer "new") when exhausted.
#[derive(Debug)]
pub struct WwsSampler {
    params: WwsParams,
    hot_pages: Vec<u32>,
    cold_pages: Vec<u32>,
    cold_cursor: usize,
    hot_store_acc: f64,
    cold_kb_acc: f64,
}

impl WwsSampler {
    /// Builds a sampler for `space`. The hot set is clamped to the number
    /// of writable pages.
    pub fn new(params: WwsParams, space: &AddressSpace, rng: &mut DetRng) -> Self {
        let page_kb = PAGE_BYTES as f64 / 1024.0;
        let mut writable = space.writable_pages();
        rng.shuffle(&mut writable);
        let hot_count = ((params.hot_kb / page_kb).ceil() as usize).min(writable.len());
        let hot_pages = writable.split_off(writable.len() - hot_count);
        WwsSampler {
            params,
            hot_pages,
            cold_pages: writable,
            cold_cursor: 0,
            hot_store_acc: 0.0,
            cold_kb_acc: 0.0,
        }
    }

    /// The fitted parameters driving this sampler.
    pub fn params(&self) -> &WwsParams {
        &self.params
    }

    /// Advances program execution by `dt` of CPU time, issuing the page
    /// writes the model prescribes.
    pub fn advance(&mut self, dt: SimDuration, space: &mut AddressSpace, rng: &mut DetRng) {
        let secs = dt.as_secs_f64();
        let page_kb = PAGE_BYTES as f64 / 1024.0;

        // Hot stores: rate in stores/sec = (KB/s) / (KB/page).
        if !self.hot_pages.is_empty() {
            self.hot_store_acc += self.params.hot_write_kb_per_sec / page_kb * secs;
            while self.hot_store_acc >= 1.0 {
                self.hot_store_acc -= 1.0;
                let page = *rng.pick(&self.hot_pages);
                space.write_page(page);
            }
        }

        // Cold sweep: first-touch pages at `r` KB/s.
        if !self.cold_pages.is_empty() {
            self.cold_kb_acc += self.params.cold_kb_per_sec * secs;
            while self.cold_kb_acc >= page_kb {
                self.cold_kb_acc -= page_kb;
                let page = self.cold_pages[self.cold_cursor % self.cold_pages.len()];
                self.cold_cursor += 1;
                space.write_page(page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{SpaceId, SpaceLayout};

    const T: [f64; 3] = [0.2, 1.0, 3.0];

    #[test]
    fn expected_dirty_is_monotone_and_concave_in_hot_part() {
        let p = WwsParams {
            hot_kb: 50.0,
            hot_write_kb_per_sec: 200.0,
            cold_kb_per_sec: 10.0,
        };
        let y: Vec<f64> = T.iter().map(|&t| p.expected_dirty_kb(t)).collect();
        assert!(y[0] < y[1] && y[1] < y[2]);
        // Hot part saturates below H + r t.
        assert!(y[2] < 50.0 + 10.0 * 3.0 + 1e-9);
    }

    #[test]
    fn zero_hot_set_is_pure_linear() {
        let p = WwsParams {
            hot_kb: 0.0,
            hot_write_kb_per_sec: 100.0,
            cold_kb_per_sec: 7.0,
        };
        assert!((p.expected_dirty_kb(2.0) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn quantized_fit_handles_sub_page_rates() {
        // The paper's `make` row: 0.8 / 1.8 / 4.2 KB — below one 2 KB page
        // at the shortest window. The continuous fit overshoots ~2x when
        // sampled; the quantized fit must stay within ~25% per point.
        let points = [(0.2, 0.8), (1.0, 1.8), (3.0, 4.2)];
        let fit = WwsParams::fit_quantized(&points, 2.0);
        for (t, y) in points {
            let pred = fit.expected_dirty_kb_quantized(t, 2.0);
            let rel = (pred - y).abs() / y;
            assert!(rel < 0.30, "at {t}s: {pred:.2} vs {y} ({rel:.2})");
        }
        // Parameters are sampler-exact: whole pages.
        assert_eq!(fit.hot_kb % 2.0, 0.0);
    }

    #[test]
    fn quantized_fit_matches_continuous_for_large_programs() {
        let points = [(0.2, 50.0), (1.0, 76.8), (3.0, 109.4)];
        let q = WwsParams::fit_quantized(&points, 2.0);
        for (t, y) in points {
            let pred = q.expected_dirty_kb_quantized(t, 2.0);
            assert!((pred - y).abs() / y < 0.05, "at {t}: {pred} vs {y}");
        }
    }

    fn big_space() -> AddressSpace {
        AddressSpace::new(
            SpaceId(0),
            SpaceLayout {
                code_bytes: 0,
                init_data_bytes: 0,
                heap_bytes: 768 * 1024,
                stack_bytes: 0,
            },
        )
    }

    #[test]
    fn sampler_matches_expectation_over_windows() {
        let params = WwsParams {
            hot_kb: 40.0,
            hot_write_kb_per_sec: 300.0,
            cold_kb_per_sec: 15.0,
        };
        let mut rng = DetRng::seed(99);
        let mut space = big_space();
        let mut sampler = WwsSampler::new(params, &space, &mut rng);

        // Warm up so the hot set is in steady state, then measure 1 s
        // windows in 10 ms quanta.
        for _ in 0..100 {
            sampler.advance(SimDuration::from_millis(10), &mut space, &mut rng);
        }
        let mut measured = Vec::new();
        for _ in 0..30 {
            space.clear_dirty();
            for _ in 0..100 {
                sampler.advance(SimDuration::from_millis(10), &mut space, &mut rng);
            }
            measured.push(space.dirty_bytes() as f64 / 1024.0);
        }
        let mean = measured.iter().sum::<f64>() / measured.len() as f64;
        let expected = params.expected_dirty_kb(1.0);
        let rel = (mean - expected).abs() / expected;
        assert!(rel < 0.15, "mean {mean:.1} KB vs expected {expected:.1} KB");
    }

    #[test]
    fn sampler_clamps_hot_set_to_writable_pages() {
        let params = WwsParams {
            hot_kb: 1e6,
            hot_write_kb_per_sec: 100.0,
            cold_kb_per_sec: 0.0,
        };
        let mut rng = DetRng::seed(1);
        let mut space = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        let mut sampler = WwsSampler::new(params, &space, &mut rng);
        sampler.advance(SimDuration::from_secs(10), &mut space, &mut rng);
        assert!(space.dirty_pages() <= space.writable_page_count());
    }

    #[test]
    fn sampler_with_zero_rates_writes_nothing() {
        let params = WwsParams {
            hot_kb: 10.0,
            hot_write_kb_per_sec: 0.0,
            cold_kb_per_sec: 0.0,
        };
        let mut rng = DetRng::seed(1);
        let mut space = big_space();
        let mut sampler = WwsSampler::new(params, &space, &mut rng);
        sampler.advance(SimDuration::from_secs(60), &mut space, &mut rng);
        assert_eq!(space.dirty_pages(), 0);
    }

    #[test]
    fn cold_sweep_first_touches_distinct_pages() {
        let params = WwsParams {
            hot_kb: 0.0,
            hot_write_kb_per_sec: 0.0,
            cold_kb_per_sec: 20.0,
        };
        let mut rng = DetRng::seed(3);
        let mut space = big_space();
        let mut sampler = WwsSampler::new(params, &space, &mut rng);
        sampler.advance(SimDuration::from_secs(1), &mut space, &mut rng);
        // 20 KB at 2 KB pages = 10 distinct pages.
        assert_eq!(space.dirty_pages(), 10);
    }
}
