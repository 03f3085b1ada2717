//! Schema fixture: one emission drifted away from the documented table.
//! `frames_sent` matches its row; `queue_depth` is emitted but
//! undocumented, and the doc still lists `frames_lost`, which nothing
//! emits any more.

pub enum Subsystem {
    Net,
}

pub struct ScopeMetrics;

impl ScopeMetrics {
    pub fn with_counter(self, _s: Subsystem, _name: &'static str, _v: u64) -> Self {
        self
    }
    pub fn with_gauge(self, _s: Subsystem, _name: &'static str, _v: f64) -> Self {
        self
    }
}

pub fn export(m: ScopeMetrics) -> ScopeMetrics {
    m.with_counter(Subsystem::Net, "frames_sent", 1)
        .with_gauge(Subsystem::Net, "queue_depth", 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_emissions_do_not_count() {
        // Exports inside cfg(test) are invisible to the audit.
        let _ = ScopeMetrics.with_counter(Subsystem::Net, "test_only_counter", 0);
    }
}
