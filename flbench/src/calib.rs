//! Host-speed calibration: a fixed piece of work owned by the
//! benchmark, timed between federation runs.
//!
//! On a shared virtual machine the speed the benchmark gets drifts by
//! tens of percent over seconds, and every kind of work slows together.
//! The calibration work does not touch the program, so the ratio of a
//! timing to the calibration time measured beside it removes the
//! host's drift and keeps the program's own cost. The work runs on as
//! many threads at once as the program is pinned to, because the
//! program's parallel rounds slow more when every core is busy than a
//! single thread does.

use crate::stats::{fastest, timed};

/// `u32` words the calibration walks: 256 KiB, within a core's L2.
const WORDS: usize = 1 << 16;
/// Dependent loads per calibration.
const STEPS: usize = 1 << 16;
/// `f32` lanes of the arithmetic part.
const LANES: usize = 1 << 12;
/// Multiply-add sweeps over the lanes.
const SWEEPS: usize = 48;
/// Calibration runs per measurement; the fastest is kept.
const REPS: usize = 3;

/// The calibration time, in ms, of the host the benchmark was sized
/// on (a 2-vCPU Xeon virtual machine when it was not contended).
/// Timings are scaled to it, so they read as that host's ms.
pub const REFERENCE_MS: f64 = 1.0;

/// The calibration work's buffers, one copy per thread.
pub struct Calibrator {
    copies: Vec<Work>,
}

/// One thread's buffers.
struct Work {
    words: Vec<u32>,
    lanes: Vec<f32>,
}

impl Calibrator {
    /// Allocates and fills the buffers for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Calibrator {
            copies: (0..threads.max(1)).map(|_| Work::new()).collect(),
        }
    }

    /// Milliseconds the calibration work takes now: the mean over the
    /// threads, all running it at once, and the fastest of [`REPS`]
    /// such runs.
    pub fn measure(&mut self) -> f64 {
        let threads = self.copies.len() as f64;
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let (first, rest) = self.copies.split_at_mut(1);
                std::thread::scope(|sc| {
                    let others: Vec<_> = rest
                        .iter_mut()
                        .map(|w| sc.spawn(move || timed(|| std::hint::black_box(w.run())).1))
                        .collect();
                    let mut total = timed(|| std::hint::black_box(first[0].run())).1;
                    for h in others {
                        total += h.join().unwrap_or(f64::NAN);
                    }
                    total / threads
                })
            })
            .collect();
        fastest(&samples)
    }
}

impl Work {
    /// The words hold one random cycle through all of them (Sattolo's
    /// shuffle), so the walk visits every word.
    fn new() -> Self {
        let mut words: Vec<u32> = (0..WORDS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..WORDS).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((state >> 33) as usize) % i;
            words.swap(i, j);
        }
        Work {
            words,
            lanes: (0..LANES).map(|i| (i % 13) as f32 * 0.01).collect(),
        }
    }

    /// A walk of dependent loads along the cycle in [`WORDS`], then
    /// [`SWEEPS`] dependent multiply-add sweeps over [`LANES`].
    fn run(&mut self) -> u64 {
        let mut idx = 0usize;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            idx = self.words[idx] as usize;
            acc = acc.wrapping_add(idx as u64);
        }
        let mut x = 1.0f32;
        for _ in 0..SWEEPS {
            for v in &mut self.lanes {
                *v = v.mul_add(0.999_9, x * 1e-4);
                x = *v;
            }
        }
        acc ^ u64::from(x.to_bits())
    }
}
