//! The host's speed, sampled through a run, and times corrected by it.
//!
//! This sandbox's host alternates, for seconds to a minute at a time, between
//! a quiet state and states a quarter or more slower, and a pure ALU loop
//! slows with the simulator (correlation 0.4 to 0.8 over minutes of alternating
//! samples, depending on the hour). A fixed ALU loop timed between ops
//! therefore says how slow the host was around each op; dividing the op's
//! wall by that slowdown, relative to the fastest the host was seen in the
//! run, leaves the time a quiet host would have taken. Medians of corrected
//! times over a run's passes spread 2-18 % over ten runs where medians of raw
//! times spread 12-27 % and each op's smallest raw time 6-18 % (README.md).
//!
//! The loop belongs to the benchmark, not to the simulator: no change to the
//! program under test can speed it up, so the correction cannot hide or fake
//! a gain.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the calibration loop: about 25 ms on the host the workloads
/// were sized on, long enough that timer and call overhead vanish.
const LOOP_ITERATIONS: u64 = 20_000_000;
/// A new sample is due once the last is this old; the host's states last
/// seconds, so a denser grid buys nothing.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

fn calibration_loop() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..black_box(LOOP_ITERATIONS) {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    x
}

/// Calibration samples of one process: when each ended and how long it took.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// Times the calibration loop once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(calibration_loop());
        let end = Instant::now();
        self.samples.push((end, (end - start).as_secs_f64()));
    }

    /// [`HostSpeed::sample`], unless the last sample is still fresh.
    pub fn sample_if_due(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= SAMPLE_EVERY)
        {
            self.sample();
        }
    }

    /// How much slower than at its fastest in this process the host was
    /// around `[start, end]`: the mean of the last sample before and the first
    /// after, over the smallest sample. At least one sample must lie on each
    /// side.
    pub fn slowdown(&self, start: Instant, end: Instant) -> f64 {
        let before = self.samples.iter().rev().find(|(at, _)| *at <= start);
        let after = self.samples.iter().find(|(at, _)| *at >= end);
        let (Some((_, before)), Some((_, after))) = (before, after) else {
            panic!("no calibration sample on each side of the interval");
        };
        let fastest = self
            .samples
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::MAX, f64::min);
        (before + after) / 2.0 / fastest
    }

    /// The samples' count, smallest and largest, for the printed table.
    pub fn summary(&self) -> String {
        let secs = self.samples.iter().map(|(_, s)| *s);
        format!(
            "{} calibration samples, {:.1}-{:.1} ms",
            self.samples.len(),
            secs.clone().fold(f64::MAX, f64::min) * 1e3,
            secs.fold(0.0, f64::max) * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_relative_to_the_fastest_sample() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let host = HostSpeed {
            samples: vec![
                (at(0), 0.020),
                (at(100), 0.030),
                (at(200), 0.024),
                (at(300), 0.020),
            ],
        };
        // Between the second and third sample: (30 + 24) / 2 over 20.
        assert!((host.slowdown(at(120), at(180)) - 1.35).abs() < 1e-12);
        // An op spanning a sample takes the ones outside it.
        assert!((host.slowdown(at(50), at(250)) - 1.0).abs() < 1e-12);
        // Samples exactly at the edges count.
        assert!((host.slowdown(at(100), at(200)) - 1.35).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_the_grid() {
        let mut host = HostSpeed::default();
        host.sample_if_due();
        host.sample_if_due();
        assert_eq!(host.samples.len(), 1, "the second sample was not yet due");
        host.sample();
        assert_eq!(host.samples.len(), 2);
        assert!(host.samples.iter().all(|(_, s)| *s > 0.0));
    }
}
