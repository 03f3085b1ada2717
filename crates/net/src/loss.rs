//! Packet-loss models.
//!
//! The paper's migration protocol leans on reliable-IPC retransmission to
//! survive loss during and after migration (§3.1.3: "the sender ... is
//! prepared to retransmit"). The loss model is pluggable so experiments can
//! sweep it (ablation A3) and tests can force deterministic drops.

use vsim::DetRng;

/// Decides, per receiver, whether a frame is lost.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// No loss at all; used by unit tests that assert exact protocol
    /// behaviour.
    None,
    /// Independent Bernoulli loss with the given probability.
    Bernoulli(f64),
    /// Deterministically drop every `n`-th delivery (1-based counter);
    /// reproducible loss for protocol-recovery tests.
    EveryNth(u64),
    /// Drop exactly the first `n` deliveries, then none; for tests that
    /// need a specific packet lost.
    FirstN(u64),
}

/// Stateful evaluator for a [`LossModel`].
#[derive(Debug)]
pub struct LossState {
    model: LossModel,
    counter: u64,
}

impl LossState {
    /// Creates an evaluator for `model`.
    pub fn new(model: LossModel) -> Self {
        LossState { model, counter: 0 }
    }

    /// The model being evaluated.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// Returns `true` if the next delivery should be dropped.
    pub fn drops(&mut self, rng: &mut DetRng) -> bool {
        self.counter += 1;
        match self.model {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.chance(p),
            LossModel::EveryNth(n) => n > 0 && self.counter.is_multiple_of(n),
            LossModel::FirstN(n) => self.counter <= n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut s = LossState::new(LossModel::None);
        let mut rng = DetRng::seed(1);
        assert!((0..1000).all(|_| !s.drops(&mut rng)));
    }

    #[test]
    fn every_nth_is_deterministic() {
        let mut s = LossState::new(LossModel::EveryNth(3));
        let mut rng = DetRng::seed(1);
        let pattern: Vec<bool> = (0..9).map(|_| s.drops(&mut rng)).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn every_zero_never_drops() {
        let mut s = LossState::new(LossModel::EveryNth(0));
        let mut rng = DetRng::seed(1);
        assert!((0..100).all(|_| !s.drops(&mut rng)));
    }

    #[test]
    fn first_n_drops_then_clears() {
        let mut s = LossState::new(LossModel::FirstN(2));
        let mut rng = DetRng::seed(1);
        let pattern: Vec<bool> = (0..5).map(|_| s.drops(&mut rng)).collect();
        assert_eq!(pattern, vec![true, true, false, false, false]);
    }

    #[test]
    fn bernoulli_rate_is_about_p() {
        let mut s = LossState::new(LossModel::Bernoulli(0.1));
        let mut rng = DetRng::seed(5);
        let drops = (0..50_000).filter(|_| s.drops(&mut rng)).count();
        let rate = drops as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }
}
