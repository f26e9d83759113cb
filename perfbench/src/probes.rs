//! Standalone kernel probes at the workloads' shapes: `sgemm` at each
//! VGG layer's im2col and FC shape, and the split-complex
//! `batched_cgemm_split` and split rfft batch paths at LeNet-5's FFT
//! conv shapes (batch 32, 32×32 inputs). FLOPs and bytes moved are
//! computed from the shapes.

use gcnn_fft::{rfft_forward_batch_split, rfft_inverse_batch_split, RfftPlan};
use gcnn_gemm::{batched_cgemm_split, cgemm_flops, gemm_flops, sgemm, Transpose};
use perfbench::Rng;

use crate::nets::{self, Shaped};
use crate::repeat_ms;
use crate::report::Report;

fn seeded(len: usize, rng: &mut Rng) -> Vec<f32> {
    (0..len).map(|_| rng.next_open01() as f32 - 0.5).collect()
}

fn row(label: &str, ms: f64, flops: u64, bytes: u64) {
    println!(
        "  {label:<34} {ms:>10.4} {flops:>14} {bytes:>14} {:>9.2} {:>9.2}",
        flops as f64 / ms / 1e6,
        flops as f64 / bytes as f64
    );
}

/// `(label, m, n, k, transpose B)` of every sgemm a VGG batch-8 forward
/// makes: one per image per conv (`W(f×ck²) · cols(ck²×o²)`) and one
/// per FC layer (`X(b×in) · Wᵀ`).
fn vgg_gemms() -> Vec<(String, usize, usize, usize, bool)> {
    let (mut convs, mut fcs) = (0, 0);
    nets::shapes(&nets::vgg(), nets::VGG_BATCH)
        .into_iter()
        .map(|layer| match layer {
            Shaped::Conv(cfg) => {
                convs += 1;
                let s = cfg.col_shape();
                (format!("L{convs}"), cfg.filters, s.cols, s.rows, false)
            }
            Shaped::Fc { batch, inp, out } => {
                fcs += 1;
                (format!("fc{fcs}"), batch, out, inp, true)
            }
        })
        .collect()
}

pub fn run(seed: u64, budget_s: f64, rep: &mut Report) {
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    println!(
        "  {:<34} {:>10} {:>14} {:>14} {:>9} {:>9}",
        "kernel probe (p10 per call)", "ms", "flops (comp.)", "bytes (comp.)", "GFLOP/s", "flop/B"
    );
    let gemms = vgg_gemms();
    let each = budget_s * 0.5 / gemms.len() as f64;
    for (label, m, n, k, tb) in gemms {
        let a = seeded(m * k, &mut rng);
        let b = seeded(k * n, &mut rng);
        let mut c = vec![0.0f32; m * n];
        let (transb, ldb) = if tb {
            (Transpose::Yes, k)
        } else {
            (Transpose::No, n)
        };
        let ms = repeat_ms(each, || {
            sgemm(
                Transpose::No,
                transb,
                m,
                n,
                k,
                1.0,
                &a,
                k,
                &b,
                ldb,
                0.0,
                &mut c,
                n,
            );
            std::hint::black_box(&mut c);
        });
        let flops = gemm_flops(m, n, k);
        row(
            &format!("gemm.sgemm.{label} {m}x{n}x{k}"),
            ms,
            flops,
            4 * (m * k + k * n + m * n) as u64,
        );
        rep.metric(
            &format!("gemm.sgemm.{label}.gflops"),
            flops as f64 / ms / 1e6,
            "GFLOP/s",
        );
    }

    // LeNet-5 FFT conv layers at batch 32: (transform size, batch,
    // channels, filters).
    let b = nets::LENET_FFT_BATCH;
    let layers = [(32usize, b, 1usize, 6usize), (16, b, 6, 16)];
    let plans: Vec<_> = layers.iter().map(|l| RfftPlan::cached(l.0)).collect();

    let mut bufs = Vec::new();
    let mut flops = 0;
    let mut bytes = 0;
    for (&(_, b, c, f), plan) in layers.iter().zip(&plans) {
        let bins = plan.spectrum_len();
        let a = (
            seeded(bins * f * c, &mut rng),
            seeded(bins * f * c, &mut rng),
        );
        let x = (
            seeded(bins * c * b, &mut rng),
            seeded(bins * c * b, &mut rng),
        );
        let y = (vec![0.0f32; bins * f * b], vec![0.0f32; bins * f * b]);
        flops += cgemm_flops(f, b, c) * bins as u64;
        bytes += 8 * (bins * (f * c + c * b + f * b)) as u64;
        bufs.push((a, x, y));
    }
    let ms = repeat_ms(budget_s * 0.2, || {
        for ((&(_, b, c, f), plan), (a, x, y)) in layers.iter().zip(&plans).zip(&mut bufs) {
            let bins = plan.spectrum_len();
            batched_cgemm_split(
                true,
                false,
                f,
                b,
                c,
                bins,
                &a.0,
                &a.1,
                f * c,
                &x.0,
                &x.1,
                c * b,
                &mut y.0,
                &mut y.1,
                f * b,
            );
            std::hint::black_box(y);
        }
    });
    row("gemm.cgemm_split (both layers)", ms, flops, bytes);
    rep.metric("gemm.cgemm_split.ms", ms, "ms");
    rep.metric(
        "gemm.cgemm_split.gflops",
        flops as f64 / ms / 1e6,
        "GFLOP/s",
    );

    // Forward transforms of the input planes, inverse transforms of the
    // output planes.
    for (inverse, name) in [(false, "fft.rfft_fwd"), (true, "fft.rfft_inv")] {
        let mut work = Vec::new();
        let (mut flops, mut bytes) = (0u64, 0u64);
        for (&(n, b, c, f), plan) in layers.iter().zip(&plans) {
            let planes = if inverse { b * f } else { b * c };
            let bins = plan.spectrum_len();
            let real = seeded(planes * n * n, &mut rng);
            let spec = (
                seeded(planes * bins, &mut rng),
                seeded(planes * bins, &mut rng),
            );
            // A real n×n transform: half of a complex one's 5·N·log2(N).
            let nn = (n * n) as f64;
            flops += (planes as f64 * 2.5 * nn * nn.log2()) as u64;
            bytes += 4 * (planes * (n * n + 2 * bins)) as u64;
            work.push((plan, real, spec));
        }
        let ms = repeat_ms(budget_s * 0.15, || {
            for (plan, real, spec) in &mut work {
                if inverse {
                    rfft_inverse_batch_split(plan, &spec.0, &spec.1, real);
                } else {
                    rfft_forward_batch_split(plan, real, &mut spec.0, &mut spec.1);
                }
                std::hint::black_box(&mut *spec);
            }
        });
        row(&format!("{name} (both layers)"), ms, flops, bytes);
        rep.metric(&format!("{name}.ms"), ms, "ms");
        rep.metric(
            &format!("{name}.gflops"),
            flops as f64 / ms / 1e6,
            "GFLOP/s",
        );
    }
}
