//! A host-speed yardstick owned by the benchmark.
//!
//! The host these numbers come from is shared: other tenants slow this
//! process's vector code by up to ~1.8× for stretches from seconds to
//! minutes. The yardstick is a fixed 3×3 convolution layer (im2col plus
//! a register-blocked GEMM) written here, not in the program, so no
//! change to the program moves it. It is timed between the workload's
//! ops, and the end-to-end times are scaled by `YARDSTICK_REF_MS /
//! yardstick time`: they read as times on a host where the yardstick
//! takes `YARDSTICK_REF_MS`. On the measured host it slows by about
//! 1.35× where the workloads slow by about 1.65×, so the scaling removes
//! most, not all, of the host's drift; README.md gives the figures.

use std::time::Instant;

/// The yardstick's time on the reference host (the 2-vCPU Xeon these
/// figures were taken on, when quiet), ms.
pub const YARDSTICK_REF_MS: f64 = 6.0;

const MR: usize = 6;
const NR: usize = 16;
const BATCH: usize = 8;
const CHANNELS: usize = 64;
const SIZE: usize = 16;
const FILTERS: usize = 132; // a multiple of MR

pub struct Yardstick {
    input: Vec<f32>,
    weights: Vec<f32>,
    out: Vec<f32>,
    cols: Vec<f32>,
    packed_a: Vec<f32>,
    packed_b: Vec<f32>,
}

impl Yardstick {
    pub fn new() -> Self {
        let k = CHANNELS * 9;
        let o2 = SIZE * SIZE;
        Yardstick {
            input: (0..BATCH * CHANNELS * o2)
                .map(|i| (i % 17) as f32 * 0.01)
                .collect(),
            weights: (0..FILTERS * k).map(|i| (i % 13) as f32 * 0.001).collect(),
            out: vec![0.0; BATCH * FILTERS * o2],
            cols: vec![0.0; k * o2],
            packed_a: Vec::with_capacity(FILTERS * k),
            packed_b: Vec::with_capacity(k * o2),
        }
    }

    /// One timed pass of the yardstick, ms.
    pub fn measure_ms(&mut self) -> f64 {
        let t = Instant::now();
        self.conv();
        std::hint::black_box(&self.out);
        t.elapsed().as_secs_f64() * 1e3
    }

    fn conv(&mut self) {
        let (k, o2) = (CHANNELS * 9, SIZE * SIZE);
        for n in 0..BATCH {
            let img = &self.input[n * CHANNELS * o2..(n + 1) * CHANNELS * o2];
            self.cols.fill(0.0);
            for ch in 0..CHANNELS {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let row = (ch * 9 + ky * 3 + kx) * o2;
                        for oy in 0..SIZE {
                            let Some(iy) = (oy + ky).checked_sub(1).filter(|&y| y < SIZE) else {
                                continue;
                            };
                            for ox in 0..SIZE {
                                if let Some(ix) = (ox + kx).checked_sub(1).filter(|&x| x < SIZE) {
                                    self.cols[row + oy * SIZE + ox] = img[ch * o2 + iy * SIZE + ix];
                                }
                            }
                        }
                    }
                }
            }
            let out = &mut self.out[n * FILTERS * o2..(n + 1) * FILTERS * o2];
            gemm(
                FILTERS,
                o2,
                k,
                &self.weights,
                &self.cols,
                out,
                &mut self.packed_a,
                &mut self.packed_b,
            );
        }
    }
}

/// `c(m×n) = a(m×k) · b(k×n)`, row-major, `m % MR == 0`, `n % NR == 0`:
/// pack both operands into panels, then an `MR×NR` register tile per
/// output block.
#[allow(clippy::too_many_arguments)]
fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    pa: &mut Vec<f32>,
    pb: &mut Vec<f32>,
) {
    pb.clear();
    for j0 in (0..n).step_by(NR) {
        for p in 0..k {
            pb.extend_from_slice(&b[p * n + j0..p * n + j0 + NR]);
        }
    }
    pa.clear();
    for i0 in (0..m).step_by(MR) {
        for p in 0..k {
            pa.extend((0..MR).map(|i| a[(i0 + i) * k + p]));
        }
    }
    for i0 in (0..m).step_by(MR) {
        let ap = &pa[i0 * k..(i0 + MR) * k];
        for j0 in (0..n).step_by(NR) {
            let bp = &pb[j0 * k..(j0 + NR) * k];
            let mut acc = [[0f32; NR]; MR];
            for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                for (row, &ai) in acc.iter_mut().zip(av) {
                    for (cij, &bj) in row.iter_mut().zip(bv) {
                        *cij = ai.mul_add(bj, *cij);
                    }
                }
            }
            for (i, row) in acc.iter().enumerate() {
                c[(i0 + i) * n + j0..(i0 + i) * n + j0 + NR].copy_from_slice(row);
            }
        }
    }
}
