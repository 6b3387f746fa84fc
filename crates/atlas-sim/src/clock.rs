//! Virtual time.
//!
//! The simulation never reads wall-clock time; the anchor-mesh download
//! advances a [`VirtualClock`] by its API round trip instead. This keeps
//! runs reproducible and lets `ipgeo sanitize` report the time a download
//! would take without actually waiting minutes.

/// A monotonically advancing virtual clock.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now_secs: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Current virtual time in seconds since start.
    pub fn now_secs(&self) -> f64 {
        self.now_secs
    }

    /// Advances the clock by `secs` virtual seconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite durations — time never goes
    /// backwards.
    pub fn advance(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "clock can only advance forward, got {secs}"
        );
        self.now_secs += secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_secs(), 0.0);
        c.advance(12.5);
        c.advance(0.5);
        assert_eq!(c.now_secs(), 13.0);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn rejects_negative_advance() {
        VirtualClock::new().advance(-1.0);
    }
}
