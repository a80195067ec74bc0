//! Host anchor: a naive single-thread channels-last direct convolution
//! on the ResNet-18 body 3x3 shape, so "how far from this machine's easy
//! speed" is a measured number rather than an assumption.

use std::hint::black_box;
use std::time::Instant;

const H: usize = 56;
const W: usize = 56;
const CI: usize = 64;
const CO: usize = 64;
const K: usize = 3;

/// Floating-point operations of one anchor convolution (231 MFLOP).
pub const FLOPS: f64 = (2 * H * W * CI * CO * K * K) as f64;

/// 3x3, stride 1, pad 1 convolution. `input` is HWC, `weight` is
/// (ky, kx, ci, co), `out` is HWC. The innermost loop runs over the
/// contiguous output channels so the compiler can vectorize it.
pub fn conv3x3_nhwc(input: &[f32], weight: &[f32], out: &mut [f32]) {
    assert_eq!(input.len(), H * W * CI);
    assert_eq!(weight.len(), K * K * CI * CO);
    assert_eq!(out.len(), H * W * CO);
    for y in 0..H {
        for x in 0..W {
            let o = &mut out[(y * W + x) * CO..][..CO];
            o.fill(0.0);
            for ky in 0..K {
                let Some(iy) = (y + ky).checked_sub(1).filter(|&iy| iy < H) else {
                    continue;
                };
                for kx in 0..K {
                    let Some(ix) = (x + kx).checked_sub(1).filter(|&ix| ix < W) else {
                        continue;
                    };
                    let pixel = &input[(iy * W + ix) * CI..][..CI];
                    for (c, &v) in pixel.iter().enumerate() {
                        let row = &weight[((ky * K + kx) * CI + c) * CO..][..CO];
                        for (acc, &w) in o.iter_mut().zip(row) {
                            *acc += v * w;
                        }
                    }
                }
            }
        }
    }
}

/// Anchor speed that wall times are normalized to: about what the
/// anchor reaches on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest.
pub const NOMINAL_GFLOPS: f64 = 20.0;

/// Host speed sampled through a run: the anchor convolution on every
/// CPU at once, probed between the run's timed operations.
///
/// Shared 2-vCPU KVM guests change speed by up to 2x for tens of seconds
/// at a time (the anchor alone reads 10-26 GFLOP/s within a minute, on
/// both vCPUs at once, with no steal time reported), which would swamp
/// any change under test. Times are therefore reported at the nominal
/// host speed: wall time x median probe speed / nominal.
pub struct HostSpeed {
    input: Vec<f32>,
    weight: Vec<f32>,
    /// One output buffer per CPU.
    outs: Vec<Vec<f32>>,
    gflops: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        HostSpeed {
            input: (0..H * W * CI).map(|i| (i % 7) as f32 * 0.25).collect(),
            weight: (0..K * K * CI * CO)
                .map(|i| (i % 5) as f32 * 0.125 - 0.25)
                .collect(),
            outs: vec![vec![0.0; H * W * CO]; cpus],
            gflops: Vec::new(),
        }
    }

    /// Runs `reps` anchor convolutions on every CPU at once, recording
    /// each one's speed.
    pub fn probe(&mut self, reps: usize) {
        let (input, weight) = (&self.input, &self.weight);
        let speeds: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .outs
                .iter_mut()
                .map(|out| {
                    scope.spawn(move || {
                        (0..reps)
                            .map(|_| {
                                let t = Instant::now();
                                conv3x3_nhwc(black_box(input), black_box(weight), black_box(out));
                                black_box(&out);
                                FLOPS / t.elapsed().as_secs_f64() / 1e9
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("anchor probe thread"))
                .collect()
        });
        self.gflops.extend(speeds.into_iter().flatten());
    }

    /// Median anchor GFLOP/s (per CPU) over every probe so far.
    pub fn gflops(&self) -> f64 {
        crate::report::median(&self.gflops)
    }

    pub fn probes(&self) -> usize {
        self.gflops.len()
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_matches_a_scalar_reference_at_a_border_pixel() {
        let input: Vec<f32> = (0..H * W * CI).map(|i| (i % 3) as f32).collect();
        let weight: Vec<f32> = (0..K * K * CI * CO).map(|i| (i % 2) as f32).collect();
        let mut out = vec![0.0f32; H * W * CO];
        conv3x3_nhwc(&input, &weight, &mut out);
        // Output pixel (0, 0), channel 5: only taps (ky, kx) in {1,2}^2
        // land inside the image.
        let mut want = 0.0f32;
        for ky in 1..3 {
            for kx in 1..3 {
                for c in 0..CI {
                    let v = input[((ky - 1) * W + (kx - 1)) * CI + c];
                    want += v * weight[((ky * K + kx) * CI + c) * CO + 5];
                }
            }
        }
        assert_eq!(out[5], want);
        assert_eq!(FLOPS, 231_211_008.0);
    }
}
