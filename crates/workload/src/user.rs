//! The workstation-owner activity model.
//!
//! §1: "With a personal workstation per project member, we observe over
//! one third of our workstations idle, even at the busiest times of the
//! day." §4.3: "most of our workstations are over 80% idle even during the
//! peak usage hours" — and an owner returning must be able to reclaim the
//! machine "within a few seconds". This module models owners as a two-
//! state (active/idle) process with exponential holding times.

use vsim::{DetRng, SimDuration};

/// Owner presence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerState {
    /// At the console (editing, mostly).
    Active,
    /// Away; the workstation is a candidate computation server.
    Idle,
}

/// Parameters of the on/off process.
#[derive(Debug, Clone)]
pub struct UserModelParams {
    /// Mean duration of an active session.
    pub mean_active: SimDuration,
    /// Mean duration of an idle period.
    pub mean_idle: SimDuration,
    /// Probability a workstation starts active.
    pub initially_active: f64,
}

impl UserModelParams {
    /// Peak hours per the paper: ~80% idle.
    pub fn peak_hours() -> Self {
        UserModelParams {
            mean_active: SimDuration::from_secs(10 * 60),
            mean_idle: SimDuration::from_secs(40 * 60),
            initially_active: 0.2,
        }
    }
}

/// One workstation owner.
#[derive(Debug)]
pub struct UserModel {
    params: UserModelParams,
    state: OwnerState,
    active_time: SimDuration,
    idle_time: SimDuration,
    transitions: u64,
}

impl UserModel {
    /// Creates an owner, drawing the initial state.
    pub fn new(params: UserModelParams, rng: &mut DetRng) -> Self {
        let state = if rng.chance(params.initially_active) {
            OwnerState::Active
        } else {
            OwnerState::Idle
        };
        UserModel {
            params,
            state,
            active_time: SimDuration::ZERO,
            idle_time: SimDuration::ZERO,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> OwnerState {
        self.state
    }

    /// True when the owner is at the console.
    pub fn is_active(&self) -> bool {
        self.state == OwnerState::Active
    }

    /// Draws how long the owner stays in the current state; the runtime
    /// schedules a transition event after this duration.
    pub fn holding_time(&self, rng: &mut DetRng) -> SimDuration {
        let mean = match self.state {
            OwnerState::Active => self.params.mean_active,
            OwnerState::Idle => self.params.mean_idle,
        };
        SimDuration::from_secs_f64(rng.exp_f64(mean.as_secs_f64()).max(1.0))
    }

    /// Flips the state, crediting `held` to the state just left.
    pub fn transition(&mut self, held: SimDuration) -> OwnerState {
        match self.state {
            OwnerState::Active => {
                self.active_time += held;
                self.state = OwnerState::Idle;
            }
            OwnerState::Idle => {
                self.idle_time += held;
                self.state = OwnerState::Active;
            }
        }
        self.transitions += 1;
        self.state
    }

    /// Measured idle fraction over the credited time.
    pub fn measured_idle_fraction(&self) -> f64 {
        let total = self.active_time + self.idle_time;
        if total.is_zero() {
            return if self.is_active() { 0.0 } else { 1.0 };
        }
        self.idle_time.as_secs_f64() / total.as_secs_f64()
    }

    /// Number of state flips so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_idle_fraction_matches_parameters() {
        let params = UserModelParams::peak_hours();
        let mut rng = DetRng::seed(42);
        let mut total_idle = SimDuration::ZERO;
        let mut total = SimDuration::ZERO;
        // Simulate many owners for a simulated week each.
        for _ in 0..50 {
            let mut u = UserModel::new(params.clone(), &mut rng);
            let mut elapsed = SimDuration::ZERO;
            let week = SimDuration::from_secs(7 * 24 * 3600);
            while elapsed < week {
                let hold = u.holding_time(&mut rng);
                let hold = hold.min(week - elapsed);
                if !u.is_active() {
                    total_idle += hold;
                }
                elapsed += hold;
                u.transition(hold);
            }
            total += week;
        }
        let frac = total_idle.as_secs_f64() / total.as_secs_f64();
        assert!((frac - 0.8).abs() < 0.03, "idle fraction {frac}");
    }

    #[test]
    fn transition_alternates_and_credits() {
        let params = UserModelParams {
            mean_active: SimDuration::from_secs(10),
            mean_idle: SimDuration::from_secs(10),
            initially_active: 1.0,
        };
        let mut rng = DetRng::seed(1);
        let mut u = UserModel::new(params, &mut rng);
        assert!(u.is_active());
        u.transition(SimDuration::from_secs(30));
        assert!(!u.is_active());
        u.transition(SimDuration::from_secs(10));
        assert!(u.is_active());
        assert_eq!(u.transitions(), 2);
        assert!((u.measured_idle_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn holding_time_is_positive() {
        let mut rng = DetRng::seed(2);
        let u = UserModel::new(UserModelParams::peak_hours(), &mut rng);
        for _ in 0..100 {
            assert!(u.holding_time(&mut rng) > SimDuration::ZERO);
        }
    }
}
