//! The three compute workloads (`vgg-infer`, `vgg-train`,
//! `lenet-fft-train`): the untraced end-to-end run and the traced
//! layer-by-layer replay.

use std::time::Instant;

use gcnn_conv::layers::softmax_cross_entropy;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_models::Network;
use gcnn_tensor::im2col::{col2im_from, im2col_into};
use gcnn_tensor::{workspace, Tensor4, Workspace};
use perfbench::{best_window_rate, median, percentile, Tally};

use crate::nets::{self, Arch, Shaped};
use crate::replay::{self, p10, Replay, Tracer};
use crate::report::{self, Report};
use crate::yardstick::{Yardstick, YARDSTICK_REF_MS};
use crate::{alloc, SETUPS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    VggInfer,
    VggTrain,
    LenetFftTrain,
}

/// Distinct seeded batches each workload cycles through.
const BATCHES: usize = 4;
/// Relative tolerance between an optimized path and its oracle.
const TOL: f32 = 1e-4;
/// `throughput_ips` is the best rate over a window of this fraction
/// (1/`WINDOW_DIV`) of a run's ops.
const WINDOW_DIV: usize = 10;
/// Seconds between yardstick passes in a timed phase.
const YARD_EVERY_S: f64 = 0.5;

/// What one workload runs: a net, its batch, and how its convs execute.
pub struct Spec {
    pub name: &'static str,
    pub arch: Arch,
    pub batch: usize,
    pub strategy: Strategy,
    /// Convs after the first run in the host's NCHWc layout.
    pub blocked: bool,
    /// An op is a training step, not an inference.
    pub training: bool,
}

impl Kind {
    pub fn spec(self) -> Spec {
        let (name, arch, batch, strategy) = match self {
            Kind::VggInfer => (
                "vgg-infer",
                nets::vgg(),
                nets::VGG_BATCH,
                Strategy::Unrolling,
            ),
            Kind::VggTrain => (
                "vgg-train",
                nets::vgg(),
                nets::VGG_BATCH,
                Strategy::Unrolling,
            ),
            Kind::LenetFftTrain => (
                "lenet-fft-train",
                nets::lenet(32),
                nets::LENET_FFT_BATCH,
                Strategy::Fft,
            ),
        };
        Spec {
            name,
            arch,
            batch,
            strategy,
            blocked: self == Kind::VggInfer,
            training: self != Kind::VggInfer,
        }
    }
}

impl Spec {
    fn network(&self, seed: u64) -> Network {
        nets::network(&self.arch, self.strategy, seed, self.blocked)
    }

    fn batches(&self, seed: u64) -> Vec<(Tensor4, Vec<usize>)> {
        (0..BATCHES)
            .map(|j| {
                nets::batch(
                    &self.arch,
                    self.batch,
                    seed.wrapping_add(7919 * j as u64 + 1),
                )
            })
            .collect()
    }
}

/// What one op produced, for its correctness check.
enum Output {
    Logits(Tensor4),
    Loss(f32),
}

/// One op of the workload through the program's public API.
fn op(spec: &Spec, net: &mut Network, ws: &mut Workspace, batch: &(Tensor4, Vec<usize>)) -> Output {
    if spec.training {
        Output::Loss(net.train_batch_ws(&batch.0, &batch.1, ws))
    } else {
        Output::Logits(net.infer_ws(&batch.0, ws))
    }
}

/// A set-up workload: network, workspace, inputs, and the outputs of
/// the warm-up pass the timed ops are checked against.
struct State {
    net: Network,
    ws: Workspace,
    batches: Vec<(Tensor4, Vec<usize>)>,
    /// Inference: the logits of each batch. Training: empty.
    expected: Vec<Tensor4>,
    /// Training: the loss of the first step.
    first_loss: f32,
    /// `lenet-fft-train`: the first-step loss of the same net on
    /// `Unrolling`.
    unroll_loss: Option<f32>,
}

/// Build the net and inputs, then run a fixed warm-up (one op per
/// batch) that fills the arena and the FFT plan cache.
fn setup(kind: Kind, seed: u64) -> State {
    let spec = kind.spec();
    let mut net = spec.network(seed);
    let mut ws = Workspace::new();
    let batches = spec.batches(seed);
    let mut expected = Vec::new();
    let mut first_loss = f32::NAN;
    for (j, b) in batches.iter().enumerate() {
        match op(&spec, &mut net, &mut ws, b) {
            Output::Logits(t) => expected.push(t),
            Output::Loss(l) if j == 0 => first_loss = l,
            Output::Loss(_) => {}
        }
    }
    let unroll_loss = (kind == Kind::LenetFftTrain).then(|| {
        let mut unroll = nets::network(&spec.arch, Strategy::Unrolling, seed, false);
        unroll.train_batch_ws(&batches[0].0, &batches[0].1, &mut Workspace::new())
    });
    State {
        net,
        ws,
        batches,
        expected,
        first_loss,
        unroll_loss,
    }
}

struct Timed {
    lat_ms: Vec<f64>,
    /// Each op's time scaled to the reference host speed by the latest
    /// yardstick pass before it, ms.
    ref_ms: Vec<f64>,
    /// Yardstick times taken during the phase, ms.
    yard_ms: Vec<f64>,
    images: usize,
    elapsed_s: f64,
    tally: Tally,
    peak_rss_mb: f64,
}

/// Back-to-back ops for `seconds`, each checked: inference logits must
/// equal the warm-up logits of the same batch bit for bit, a training
/// loss must be finite. The yardstick runs between ops every
/// [`YARD_EVERY_S`].
fn timed(spec: &Spec, st: &mut State, yard: &mut Yardstick, seconds: f64) -> Timed {
    let (mut lat_ms, mut ref_ms, mut yard_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let mut j = 0;
    let mut speed = 1.0;
    while t0.elapsed().as_secs_f64() < seconds {
        if t0.elapsed().as_secs_f64() >= yard_ms.len() as f64 * YARD_EVERY_S {
            let y = yard.measure_ms();
            yard_ms.push(y);
            speed = y / YARDSTICK_REF_MS;
        }
        let b = &st.batches[j % BATCHES];
        let t = Instant::now();
        let out = op(spec, &mut st.net, &mut st.ws, b);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        lat_ms.push(ms);
        ref_ms.push(ms / speed);
        tally.record(match out {
            Output::Logits(l) => l == st.expected[j % BATCHES],
            Output::Loss(l) => l.is_finite(),
        });
        j += 1;
    }
    Timed {
        ref_ms,
        yard_ms,
        elapsed_s: t0.elapsed().as_secs_f64(),
        images: lat_ms.len() * spec.batch,
        lat_ms,
        tally,
        peak_rss_mb: report::peak_rss_mb(),
    }
}

/// Untraced end-to-end run. Set-up runs [`SETUPS`] times, each on a
/// fresh thread (so each starts with an empty thread-local arena) right
/// after a yardstick pass; the last set-up's thread goes on to the
/// timed phase.
pub fn run(kind: Kind, seed: u64, seconds: f64, rep: &mut Report) {
    let spec = kind.spec();
    let mut yard = Yardstick::new();
    // Per set-up: (seconds, yardstick ms just before it).
    let mut setups = Vec::new();
    let mut result = None;
    for r in 0..SETUPS {
        let last = r + 1 == SETUPS;
        let (s, y, out) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let y = yard.measure_ms();
                    let t = Instant::now();
                    let mut st = setup(kind, seed);
                    let s = t.elapsed().as_secs_f64();
                    (
                        s,
                        y,
                        last.then(|| (timed(&spec, &mut st, &mut yard, seconds), st)),
                    )
                })
                .join()
                .expect("workload thread panicked")
        });
        setups.push((s, y));
        result = out.or(result);
    }
    let (t, st) = result.expect("the last set-up runs the timed phase");

    let p10 = percentile(&t.lat_ms, 0.1);
    let p50 = percentile(&t.lat_ms, 0.5);
    let p90 = percentile(&t.lat_ms, 0.9);
    let window = (t.lat_ms.len() / WINDOW_DIV).max(1);
    let best_ips = best_window_rate(&t.lat_ms, window) * spec.batch as f64;
    let ref_ips = best_window_rate(&t.ref_ms, window) * spec.batch as f64;
    println!(
        "{}: {} ops of batch {} in {:.3} s ({:.3} images/s overall, {best_ips:.3} over the best {window}-op window); latency_ms_p10 {:.4}, latency_ms_p50 {:.4}, latency_ms_p90 {:.4} ({} beyond p90); scaled latency_ms_p10 {:.4}; failed_frac {}",
        spec.name,
        t.lat_ms.len(),
        spec.batch,
        t.elapsed_s,
        t.images as f64 / t.elapsed_s,
        p10.value,
        p50.value,
        p90.value,
        p90.beyond,
        percentile(&t.ref_ms, 0.1).value,
        t.tally.failed_frac()
    );
    println!(
        "  yardstick: {} passes, p10 {:.4} ms, p90 {:.4} ms (reference {YARDSTICK_REF_MS} ms); raw set-up s {:?}",
        t.yard_ms.len(),
        percentile(&t.yard_ms, 0.1).value,
        percentile(&t.yard_ms, 0.9).value,
        setups.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    if !p90.supported() {
        println!("  note: fewer than ten ops beyond p90; raise --seconds");
    }
    rep.tally.merge(t.tally);
    if t.tally.failed > 0 {
        rep.fail(&format!(
            "{} of {} timed ops failed their check",
            t.tally.failed, t.tally.attempted
        ));
    }
    final_checks(kind, seed, &st, rep);

    rep.metric("setup_s", setup_at_reference(&setups), "s");
    rep.metric("throughput_ips", ref_ips, "1/s");
    rep.metric("ok_frac", rep.tally.ok_frac(), "1");
    rep.metric("peak_rss_mb", t.peak_rss_mb, "MiB");
}

/// Median set-up time, each scaled by the yardstick pass just before it.
pub fn setup_at_reference(setups: &[(f64, f64)]) -> f64 {
    let scaled: Vec<f64> = setups
        .iter()
        .map(|&(s, y)| s * YARDSTICK_REF_MS / y)
        .collect();
    median(&scaled)
}

/// The once-per-run checks against an oracle.
fn final_checks(kind: Kind, seed: u64, st: &State, rep: &mut Report) {
    let arch = kind.spec().arch;
    let (images, labels) = &st.batches[0];
    match kind {
        Kind::VggInfer => {
            let want = replay::reference_logits(&arch, seed, images);
            let dist = want.rel_l2_dist(&st.expected[0]).unwrap_or(f32::INFINITY);
            rep.check(
                dist < TOL,
                &format!("vgg-infer logits vs reference composition: rel L2 {dist:e}"),
            );
        }
        Kind::VggTrain => {
            let want =
                softmax_cross_entropy(&replay::reference_logits(&arch, seed, images), labels).loss;
            let rel = ((st.first_loss - want) / want).abs();
            rep.check(
                rel < TOL,
                &format!(
                    "vgg-train first-step loss {} vs reference {want}: rel {rel:e}",
                    st.first_loss
                ),
            );
        }
        Kind::LenetFftTrain => {
            let want = st.unroll_loss.expect("set up with the Unrolling twin");
            let rel = ((st.first_loss - want) / want).abs();
            rep.check(
                rel < TOL,
                &format!(
                    "lenet-fft-train first-step loss {} vs Unrolling {want}: rel {rel:e}",
                    st.first_loss
                ),
            );
        }
    }
}

/// Heap allocations, bytes requested and arena misses of one warm op,
/// each the median over three ops.
pub fn alloc_counts(mut op: impl FnMut()) -> (f64, f64, f64) {
    let (mut allocs, mut bytes, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (a0, b0) = alloc::counts();
        let m0 = workspace::fresh_allocs();
        op();
        let (a1, b1) = alloc::counts();
        allocs.push((a1 - a0) as f64);
        bytes.push((b1 - b0) as f64);
        misses.push((workspace::fresh_allocs() - m0) as f64);
    }
    (median(&allocs), median(&bytes), median(&misses))
}

/// Traced replay of one compute workload for `budget_s`. Each round
/// runs, on the same batch and in rotating order, one op of the
/// network, one of the untraced replay and one of the traced replay,
/// and checks that all three agree bit for bit.
pub fn trace(spec: &Spec, seed: u64, budget_s: f64, rep: &mut Report) {
    let p = spec.name;
    let arch = &spec.arch;
    let mut tr = Tracer::new();
    let mut net = spec.network(seed);
    let mut replays = [
        Replay::new(arch, spec.strategy, seed, spec.blocked, p, &mut tr),
        Replay::new(arch, spec.strategy, seed, spec.blocked, p, &mut tr),
    ];
    let batches = spec.batches(seed);
    let mut ws = Workspace::new();
    let (mut t_net, mut t_untraced, mut t_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();

    let t0 = Instant::now();
    let mut round = 0usize;
    // Round 0 is the warm-up and is not kept.
    while round < 4 || t0.elapsed().as_secs_f64() < budget_s {
        let b = &batches[round % BATCHES];
        let mut outs: [Option<Output>; 3] = [None, None, None];
        for slot in 0..3 {
            let who = (slot + round) % 3;
            tr.on = who == 2;
            let t = Instant::now();
            let out = match who {
                0 => op(spec, &mut net, &mut ws, b),
                _ if spec.training => {
                    Output::Loss(replays[who - 1].train_step(&b.0, &b.1, &mut ws, &mut tr))
                }
                _ => Output::Logits(replays[who - 1].infer(&b.0, &mut ws, &mut tr)),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if who == 2 {
                tr.end_op();
            }
            if round > 0 {
                [&mut t_net, &mut t_untraced, &mut t_traced][who].push(ms);
            }
            outs[who] = Some(out);
        }
        if round == 0 {
            tr.reset();
        }
        tally.record(match outs {
            [Some(Output::Logits(a)), Some(Output::Logits(b)), Some(Output::Logits(c))] => {
                a == b && b == c
            }
            [Some(Output::Loss(a)), Some(Output::Loss(b)), Some(Output::Loss(c))] => {
                a.to_bits() == b.to_bits() && b.to_bits() == c.to_bits()
            }
            _ => false,
        });
        round += 1;
    }
    rep.tally.merge(tally);
    if tally.failed > 0 {
        rep.fail(&format!(
            "{p}: replay differs from the network in {} of {} rounds",
            tally.failed, tally.attempted
        ));
    } else {
        println!(
            "  check ok: {p} replay equals the network bit for bit in {} rounds",
            tally.attempted
        );
    }

    let (allocs, bytes, misses) = alloc_counts(|| {
        let _ = op(spec, &mut net, &mut ws, &batches[0]);
    });
    println!(
        "{p}: {} rounds; p10 op ms: network {:.4}, replay untraced {:.4}, replay traced {:.4}, replay layer sum {:.4}",
        t_net.len(),
        p10(&t_net),
        p10(&t_untraced),
        p10(&t_traced),
        p10(tr.sums())
    );
    print_layer_table(&tr, arch, spec.batch, spec.training, p);

    let costs = replay::forward_costs(arch, spec.batch);
    let mut conv = 0;
    for (label, flops, _) in &costs {
        if !label.starts_with("conv.") {
            continue;
        }
        conv += 1;
        let ms = tr.p10_ms(&format!("{p}.conv.fwd.L{conv}"));
        rep.metric(&format!("{p}.conv.fwd.L{conv}.ms"), ms, "ms");
        rep.metric(
            &format!("{p}.conv.fwd.L{conv}.gflops"),
            *flops as f64 / ms / 1e6,
            "GFLOP/s",
        );
        if spec.training {
            rep.metric(
                &format!("{p}.conv.bwd_data.L{conv}.ms"),
                tr.p10_ms(&format!("{p}.conv.bwd_data.L{conv}")),
                "ms",
            );
            rep.metric(
                &format!("{p}.conv.bwd_filters.L{conv}.ms"),
                tr.p10_ms(&format!("{p}.conv.bwd_filters.L{conv}")),
                "ms",
            );
        }
    }
    if spec.blocked {
        rep.metric(
            &format!("{p}.conv.nchwc.pack_ms"),
            tr.p10_ms(&format!("{p}.conv.nchwc.pack")),
            "ms",
        );
    }
    let mut layers = vec!["relu", "pool", "fc"];
    if spec.training {
        layers.push("softmax");
    }
    for l in layers {
        rep.metric(
            &format!("{p}.conv.{l}.ms"),
            tr.p10_ms(&format!("{p}.conv.{l}")),
            "ms",
        );
    }
    if spec.training && spec.strategy == Strategy::Unrolling {
        let (im2col_ms, col2im_ms) = unroll_probe(arch, spec.batch, budget_s * 0.05);
        rep.metric(&format!("{p}.tensor.im2col.ms"), im2col_ms, "ms");
        rep.metric(&format!("{p}.tensor.col2im.ms"), col2im_ms, "ms");
    }
    let overhead_ms = p10(&t_net) - p10(tr.sums());
    let trace_frac = (p10(&t_traced) - p10(&t_untraced)) / p10(&t_untraced);
    println!(
        "  accounting: layer sum {:.4} + models.overhead_ms {overhead_ms:.4} = network op {:.4} ms; trace overhead {:.3} %",
        p10(tr.sums()),
        p10(&t_net),
        trace_frac * 100.0
    );
    rep.metric(&format!("{p}.models.overhead_ms"), overhead_ms, "ms");
    rep.metric(&format!("{p}.bench.trace_overhead_frac"), trace_frac, "1");
    rep.metric(&format!("{p}.heap.allocs_per_op"), allocs, "count");
    rep.metric(&format!("{p}.heap.bytes_per_op"), bytes, "B");
    rep.metric(
        &format!("{p}.tensor.workspace.misses_per_op"),
        misses,
        "count",
    );
}

/// The span table of a replay with computed FLOPs and bytes moved.
pub fn print_layer_table(tr: &Tracer, arch: &Arch, batch: usize, training: bool, p: &str) {
    let costs = replay::forward_costs(arch, batch);
    // The FC span covers the backward passes too when training: about
    // three times the forward FLOPs.
    let passes = if training { 3 } else { 1 };
    let fc_flops: u64 = passes
        * costs
            .iter()
            .filter(|c| c.0.starts_with("fc."))
            .map(|c| c.1)
            .sum::<u64>();
    let fc_bytes: u64 = costs
        .iter()
        .filter(|c| c.0.starts_with("fc."))
        .map(|c| c.2)
        .sum();
    println!(
        "  {:<34} {:>10} {:>14} {:>14} {:>9} {:>9}",
        "span (p10 per op)", "ms", "flops (comp.)", "bytes (comp.)", "GFLOP/s", "flop/B"
    );
    for (name, ms) in tr.table() {
        if ms == 0.0 {
            continue;
        }
        let short = name
            .strip_prefix(p)
            .unwrap_or(&name)
            .trim_start_matches('.');
        let cost = costs
            .iter()
            .find(|c| c.0 == short)
            .map(|c| (c.1, c.2))
            .or((short == "conv.fc").then_some((fc_flops, fc_bytes)));
        match cost {
            Some((f, b)) => println!(
                "  {short:<34} {ms:>10.4} {f:>14} {b:>14} {:>9.2} {:>9.2}",
                f as f64 / ms / 1e6,
                f as f64 / b as f64
            ),
            None => println!("  {short:<34} {ms:>10.4}"),
        }
    }
}

/// Standalone `im2col_into` and `col2im_from` over every (conv layer,
/// image) pair of one batch: the unrolling work of one forward pass
/// and of one backward-data pass. p10 ms per pass.
fn unroll_probe(arch: &Arch, batch: usize, budget_s: f64) -> (f64, f64) {
    let mut geoms: Vec<(ConvConfig, Tensor4)> = nets::shapes(arch, batch)
        .into_iter()
        .filter_map(|layer| match layer {
            Shaped::Conv(cfg) => Some((cfg, Tensor4::zeros(cfg.input_shape()))),
            Shaped::Fc { .. } => None,
        })
        .collect();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while fwd.len() < 3 || t0.elapsed().as_secs_f64() < budget_s {
        let (mut a, mut b) = (0.0, 0.0);
        for (cfg, input) in &mut geoms {
            let geom = cfg.geometry();
            let s = cfg.col_shape();
            let mut cols = workspace::take_f32(s.rows * s.cols);
            let t = Instant::now();
            for n in 0..batch {
                im2col_into(input.image(n), &geom, &mut cols);
            }
            a += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            for n in 0..batch {
                col2im_from(&cols, &geom, input.image_mut(n));
            }
            b += t.elapsed().as_secs_f64() * 1e3;
        }
        fwd.push(a);
        bwd.push(b);
    }
    (p10(&fwd), p10(&bwd))
}
