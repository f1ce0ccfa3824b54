//! Host-speed calibration for wall-clock samples.
//!
//! On a shared host the same work can take 1.5x longer for seconds at a
//! time (a busy hyperthread sibling, a lower clock), and these regimes last
//! about as long as a benchmark run. Timing a fixed kernel around each
//! sample measures the host's current speed; scaling the sample by it
//! removes much of that swing. Over ten seeds on a 2-core Xeon, the
//! interquartile spread of the wall metrics was 0.05-0.24 of their median
//! unscaled and 0.03-0.16 scaled.
//!
//! The kernel is this benchmark's own code, never the program's, so a
//! change to the program cannot move the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time at the reference speed: what it takes on a 2-core
/// Xeon in that host's common state. A scaled sample reads in seconds at
/// that speed.
const REFERENCE_S: f64 = 0.016;

/// Kernel size: 1,500 steps of a 64x96 matrix-vector product with a tanh,
/// the arithmetic of one LSTM gate block.
const STEPS: usize = 1_500;
const INPUT: usize = 64;
const HIDDEN: usize = 96;

/// The host's current speed relative to the reference: `REFERENCE_S`
/// divided by the kernel's wall time now.
fn speed() -> f64 {
    let w = vec![0.1f32; INPUT * HIDDEN];
    let x = black_box(vec![0.5f32; INPUT]);
    let mut h = vec![0.0f32; HIDDEN];
    let t0 = Instant::now();
    for _ in 0..STEPS {
        for (j, hj) in h.iter_mut().enumerate() {
            let a: f32 = (0..INPUT).map(|i| w[i * HIDDEN + j] * x[i]).sum();
            *hj = (a + *hj * 0.5).tanh();
        }
        black_box(&mut h);
    }
    REFERENCE_S / t0.elapsed().as_secs_f64()
}

/// Reads the host speed between timed calls. A call's sample is scaled by
/// the mean of the readings just before and just after it, so a regime
/// change in the middle of the call counts half.
pub struct Speedometer {
    last: f64,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        Speedometer { last: speed() }
    }

    /// Read the speed again before a timed call that follows untimed work.
    pub fn mark(&mut self) {
        self.last = speed();
    }

    /// The speed over the timed call that just ended.
    pub fn lap(&mut self) -> f64 {
        let now = speed();
        let over = (self.last + now) / 2.0;
        self.last = now;
        over
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn speed_is_positive_and_finite() {
        let mut meter = super::Speedometer::new();
        let s = meter.lap();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
