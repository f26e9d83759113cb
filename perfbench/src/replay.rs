//! The layer-by-layer replay: a workload's op re-executed as explicit
//! calls into each layer's public entry points, in the order
//! `Network::infer_ws` / `Network::train_batch_ws` make them, with the
//! benchmark's own span around every call. Weights are rebuilt from
//! the network's seeds, so the replay's outputs must equal the
//! network's bit for bit.

use std::time::Instant;

use gcnn_conv::layers::{
    softmax_cross_entropy, FcLayer, PoolForward, PoolKind, PoolLayer, ReluLayer,
};
use gcnn_conv::nchwc as packed;
use gcnn_conv::{algorithm_for, reference, ConvConfig, Strategy};
use gcnn_tensor::workspace::{self, Scratch};
use gcnn_tensor::{nchwc, Matrix, Shape4, Tensor4, Workspace};

use crate::nets::{self, Arch, Op, Shaped};

/// Per-op span accumulator. Spans are keyed by interned names; each op
/// closes with [`Tracer::end_op`], which keeps one sample per key.
/// With `on == false` a span is a plain call with no clock reads, which
/// is the untraced side of the trace-overhead measurement.
pub struct Tracer {
    pub on: bool,
    names: Vec<String>,
    acc: Vec<f64>,
    samples: Vec<Vec<f64>>,
    sums: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            names: Vec::new(),
            acc: Vec::new(),
            samples: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Interned key of span `name`.
    pub fn key(&mut self, name: &str) -> usize {
        if let Some(k) = self.names.iter().position(|n| n == name) {
            return k;
        }
        self.names.push(name.to_string());
        self.acc.push(0.0);
        self.samples.push(Vec::new());
        self.names.len() - 1
    }

    /// Run `f` inside span `key`.
    pub fn span<R>(&mut self, key: usize, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.acc[key] += t.elapsed().as_secs_f64() * 1e3;
        r
    }

    /// Close one op: keep each key's time in it and their sum.
    pub fn end_op(&mut self) {
        if !self.on {
            return;
        }
        let mut sum = 0.0;
        for (acc, samples) in self.acc.iter_mut().zip(&mut self.samples) {
            samples.push(*acc);
            sum += *acc;
            *acc = 0.0;
        }
        self.sums.push(sum);
    }

    /// 10th-percentile per-op time of span `name`, ms.
    pub fn p10_ms(&self, name: &str) -> f64 {
        let k = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no span named {name}"));
        p10(&self.samples[k])
    }

    /// Per-op sum over all spans, ms, one entry per op.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Forget every op recorded so far (the warm-up).
    pub fn reset(&mut self) {
        self.samples.iter_mut().for_each(Vec::clear);
        self.sums.clear();
    }

    /// `(name, p10 ms)` of every span, in first-use order.
    pub fn table(&self) -> Vec<(String, f64)> {
        self.names
            .iter()
            .zip(&self.samples)
            .map(|(n, s)| (n.clone(), p10(s)))
            .collect()
    }
}

/// 10th percentile: the per-layer statistic, for the reason the
/// end-to-end latency uses it (see README.md).
pub fn p10(samples: &[f64]) -> f64 {
    perfbench::percentile(samples, 0.1).value
}

/// Span keys of one replayed network.
struct Keys {
    fwd: Vec<usize>,
    bwd_data: Vec<usize>,
    bwd_filters: Vec<usize>,
    pack: usize,
    relu: usize,
    pool: usize,
    fc: usize,
    softmax: usize,
    update: usize,
}

enum Layer {
    Conv {
        weights: Tensor4,
        velocity: Tensor4,
        pad: usize,
        strategy: Strategy,
        block: Option<usize>,
        /// Index among the net's convs (0-based).
        conv: usize,
    },
    Relu,
    Pool,
    Fc {
        layer: FcLayer,
        w_velocity: Matrix,
        b_velocity: Vec<f32>,
    },
}

/// The replay's activation: planar, or packed NCHWc between blocked
/// convs (mirrors the network's own transitions).
enum Act {
    Planar(Tensor4),
    Packed {
        buf: Scratch<f32>,
        shape: Shape4,
        block: usize,
    },
}

impl Act {
    fn shape(&self) -> Shape4 {
        match self {
            Act::Planar(t) => t.shape(),
            Act::Packed { shape, .. } => *shape,
        }
    }
}

enum Cache {
    Conv {
        input: Tensor4,
        cfg: ConvConfig,
    },
    Relu {
        input: Tensor4,
    },
    Pool {
        input_shape: Shape4,
        fwd: PoolForward,
    },
    Fc {
        input: Tensor4,
    },
}

const POOL: PoolLayer = PoolLayer {
    kind: PoolKind::Max,
    window: 2,
    stride: 2,
};

/// A network rebuilt layer by layer from its [`Arch`] and seed.
pub struct Replay {
    layers: Vec<Layer>,
    keys: Keys,
    lr: f32,
    /// The network's momentum and weight decay: its defaults, 0.
    mu: f32,
    wd: f32,
}

impl Replay {
    /// Replay of `nets::network(arch, strategy, seed, blocked)`, with
    /// span names under `prefix` registered in `tr`.
    pub fn new(
        arch: &Arch,
        strategy: Strategy,
        seed: u64,
        blocked: bool,
        prefix: &str,
        tr: &mut Tracer,
    ) -> Self {
        let block = gcnn_tensor::nchwc::preferred_layout().channel_block();
        let mut layers = Vec::new();
        let mut convs = 0;
        for (i, &op) in arch.ops.iter().enumerate() {
            layers.push(match op {
                Op::Conv { pad, .. } => {
                    let weights = nets::conv_weights(op, seed, i);
                    let velocity = Tensor4::zeros(weights.shape());
                    convs += 1;
                    Layer::Conv {
                        weights,
                        velocity,
                        pad,
                        strategy,
                        block: if blocked && convs > 1 { block } else { None },
                        conv: convs - 1,
                    }
                }
                Op::Relu => Layer::Relu,
                Op::Pool => Layer::Pool,
                Op::Fc { inp, out } => Layer::Fc {
                    layer: nets::fc_layer(op, seed, i),
                    w_velocity: Matrix::zeros(out, inp),
                    b_velocity: vec![0.0; out],
                },
            });
        }
        let mut per_conv = |what: &str| -> Vec<usize> {
            (1..=convs)
                .map(|l| tr.key(&format!("{prefix}.conv.{what}.L{l}")))
                .collect()
        };
        let fwd = per_conv("fwd");
        let bwd_data = per_conv("bwd_data");
        let bwd_filters = per_conv("bwd_filters");
        let keys = Keys {
            fwd,
            bwd_data,
            bwd_filters,
            pack: tr.key(&format!("{prefix}.conv.nchwc.pack")),
            relu: tr.key(&format!("{prefix}.conv.relu")),
            pool: tr.key(&format!("{prefix}.conv.pool")),
            fc: tr.key(&format!("{prefix}.conv.fc")),
            softmax: tr.key(&format!("{prefix}.conv.softmax")),
            update: tr.key(&format!("{prefix}.models.sgd_update")),
        };
        Replay {
            layers,
            keys,
            lr: arch.learning_rate,
            mu: 0.0,
            wd: 0.0,
        }
    }

    fn planar(&self, x: Act, tr: &mut Tracer) -> Tensor4 {
        match x {
            Act::Planar(t) => t,
            Act::Packed { buf, shape, block } => tr.span(self.keys.pack, || {
                let mut t = Tensor4::zeros(shape);
                nchwc::unpack_nchwc_from(buf.as_slice(), shape, block, t.as_mut_slice());
                t
            }),
        }
    }

    /// Inference, as `Network::infer_ws` runs it.
    pub fn infer(&self, input: &Tensor4, ws: &mut Workspace, tr: &mut Tracer) -> Tensor4 {
        let mut x = Act::Planar(input.clone());
        let mut i = 0;
        while i < self.layers.len() {
            match &self.layers[i] {
                Layer::Conv {
                    weights,
                    pad,
                    strategy,
                    block,
                    conv,
                    ..
                } => {
                    let cfg = conv_cfg(x.shape(), weights.shape(), *pad);
                    if let Some(b) = block.filter(|_| packed::supports(&cfg).is_ok()) {
                        let (act, consumed) = self.fused_chain(i, &cfg, weights, b, *conv, x, tr);
                        x = act;
                        i += consumed;
                        continue;
                    }
                    let xp = self.planar(x, tr);
                    let algo = algorithm_for(*strategy);
                    x = Act::Planar(tr.span(self.keys.fwd[*conv], || {
                        algo.forward_ws(&cfg, &xp, weights, ws)
                    }));
                }
                Layer::Relu => {
                    let xp = self.planar(x, tr);
                    x = Act::Planar(tr.span(self.keys.relu, || ReluLayer.forward(&xp)));
                }
                Layer::Pool => {
                    let xp = self.planar(x, tr);
                    x = Act::Planar(tr.span(self.keys.pool, || POOL.forward(&xp).output));
                }
                Layer::Fc { layer, .. } => {
                    let xp = self.planar(x, tr);
                    x = Act::Planar(tr.span(self.keys.fc, || layer.forward(&xp)));
                }
            }
            i += 1;
        }
        self.planar(x, tr)
    }

    /// One blocked conv at layer `i` with a following ReLU (and pool)
    /// fused, as the network's packed path runs it.
    #[allow(clippy::too_many_arguments)]
    fn fused_chain(
        &self,
        i: usize,
        cfg: &ConvConfig,
        weights: &Tensor4,
        block: usize,
        conv: usize,
        x: Act,
        tr: &mut Tracer,
    ) -> (Act, usize) {
        let fuse_relu = matches!(self.layers.get(i + 1), Some(Layer::Relu));
        let fuse_pool = fuse_relu
            && matches!(self.layers.get(i + 2), Some(Layer::Pool))
            && cfg.output() >= POOL.window;
        let pin = match x {
            Act::Packed {
                buf,
                shape,
                block: prev,
            } if prev == block => {
                if cfg.pad == 0 {
                    buf
                } else {
                    tr.span(self.keys.pack, || {
                        let mut padded = workspace::take_f32(packed::packed_input_len(cfg, block));
                        nchwc::repad_packed(
                            buf.as_slice(),
                            shape,
                            block,
                            cfg.pad,
                            padded.as_mut_slice(),
                        );
                        padded
                    })
                }
            }
            other => {
                let planar = self.planar(other, tr);
                tr.span(self.keys.pack, || {
                    let mut fresh = workspace::take_f32(packed::packed_input_len(cfg, block));
                    packed::pack_input(cfg, &planar, block, fresh.as_mut_slice());
                    fresh
                })
            }
        };
        let pw = tr.span(self.keys.pack, || {
            let mut pw = workspace::take_f32(packed::packed_filter_len(cfg, block));
            packed::pack_filters(cfg, weights, block, pw.as_mut_slice());
            pw
        });
        let fwd = self.keys.fwd[conv];
        if fuse_pool {
            let po = packed::pooled_output(cfg, POOL.window, POOL.stride);
            let shape = Shape4::new(cfg.batch, cfg.filters, po, po);
            let mut pout = workspace::take_f32(nchwc::packed_len(shape, block, 0));
            tr.span(fwd, || {
                packed::fused_conv_relu_pool(
                    cfg,
                    block,
                    POOL.window,
                    POOL.stride,
                    pin.as_slice(),
                    pw.as_slice(),
                    pout.as_mut_slice(),
                )
            });
            (
                Act::Packed {
                    buf: pout,
                    shape,
                    block,
                },
                3,
            )
        } else {
            let mut pout = workspace::take_f32(packed::packed_output_len(cfg, block));
            tr.span(fwd, || {
                packed::fused_conv_relu(
                    cfg,
                    block,
                    pin.as_slice(),
                    pw.as_slice(),
                    pout.as_mut_slice(),
                    fuse_relu,
                )
            });
            let shape = cfg.output_shape();
            (
                Act::Packed {
                    buf: pout,
                    shape,
                    block,
                },
                1 + usize::from(fuse_relu),
            )
        }
    }

    /// One SGD step, as `Network::train_batch_ws` runs it; returns the
    /// batch loss.
    pub fn train_step(
        &mut self,
        images: &Tensor4,
        labels: &[usize],
        ws: &mut Workspace,
        tr: &mut Tracer,
    ) -> f32 {
        let k = &self.keys;
        let mut x = images.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            match layer {
                Layer::Conv {
                    weights,
                    pad,
                    strategy,
                    conv,
                    ..
                } => {
                    let cfg = conv_cfg(x.shape(), weights.shape(), *pad);
                    let algo = algorithm_for(*strategy);
                    let y = tr.span(k.fwd[*conv], || algo.forward_ws(&cfg, &x, weights, ws));
                    caches.push(Cache::Conv { input: x, cfg });
                    x = y;
                }
                Layer::Relu => {
                    let y = tr.span(k.relu, || ReluLayer.forward(&x));
                    caches.push(Cache::Relu { input: x });
                    x = y;
                }
                Layer::Pool => {
                    let fwd = tr.span(k.pool, || POOL.forward(&x));
                    let y = fwd.output.clone();
                    caches.push(Cache::Pool {
                        input_shape: x.shape(),
                        fwd,
                    });
                    x = y;
                }
                Layer::Fc { layer, .. } => {
                    let y = tr.span(k.fc, || layer.forward(&x));
                    caches.push(Cache::Fc { input: x });
                    x = y;
                }
            }
        }
        let out = tr.span(k.softmax, || softmax_cross_entropy(&x, labels));
        let mut grad = out.grad_logits;
        let (lr, mu, wd) = (self.lr, self.mu, self.wd);
        for (layer, cache) in self.layers.iter_mut().zip(caches).rev() {
            match (layer, cache) {
                (
                    Layer::Conv {
                        weights,
                        velocity,
                        strategy,
                        conv,
                        ..
                    },
                    Cache::Conv { input, cfg },
                ) => {
                    let algo = algorithm_for(*strategy);
                    let gw = tr.span(k.bwd_filters[*conv], || {
                        algo.backward_filters_ws(&cfg, &input, &grad, ws)
                    });
                    grad = tr.span(k.bwd_data[*conv], || {
                        algo.backward_data_ws(&cfg, &grad, weights, ws)
                    });
                    tr.span(k.update, || {
                        sgd(
                            velocity.as_mut_slice(),
                            gw.as_slice(),
                            weights.as_mut_slice(),
                            lr,
                            mu,
                            wd,
                        )
                    });
                }
                (Layer::Relu, Cache::Relu { input }) => {
                    grad = tr.span(k.relu, || ReluLayer.backward(&input, &grad));
                }
                (Layer::Pool, Cache::Pool { input_shape, fwd }) => {
                    grad = tr.span(k.pool, || POOL.backward(input_shape, &fwd, &grad));
                }
                (
                    Layer::Fc {
                        layer,
                        w_velocity,
                        b_velocity,
                    },
                    Cache::Fc { input },
                ) => {
                    let grads = tr.span(k.fc, || layer.backward(&input, &grad));
                    tr.span(k.update, || {
                        sgd(
                            w_velocity.as_mut_slice(),
                            grads.grad_weights.as_slice(),
                            layer.weights.as_mut_slice(),
                            lr,
                            mu,
                            wd,
                        );
                        // No decay on biases.
                        sgd(b_velocity, &grads.grad_bias, &mut layer.bias, lr, mu, 0.0);
                    });
                    grad = grads.grad_input;
                }
                _ => unreachable!("replay layer/cache mismatch"),
            }
        }
        out.loss
    }
}

/// The network's momentum update: `v ← μ·v − lr·(g + wd·w); w ← w + v`.
fn sgd(v: &mut [f32], g: &[f32], w: &mut [f32], lr: f32, mu: f32, wd: f32) {
    for ((v, g), w) in v.iter_mut().zip(g).zip(w.iter_mut()) {
        *v = mu * *v - lr * (g + wd * *w);
        *w += *v;
    }
}

fn conv_cfg(x: Shape4, w: Shape4, pad: usize) -> ConvConfig {
    let mut cfg = ConvConfig::with_channels(x.n, x.c, x.h, w.n, w.h, 1);
    cfg.pad = pad;
    cfg
}

/// Logits of `arch` on `input` composed from `gcnn_conv::reference`
/// convolutions and the planar ReLU, pool and FC layers: the oracle the
/// optimized paths are checked against.
pub fn reference_logits(arch: &Arch, seed: u64, input: &Tensor4) -> Tensor4 {
    let mut x = input.clone();
    for (i, &op) in arch.ops.iter().enumerate() {
        x = match op {
            Op::Conv { pad, .. } => {
                let w = nets::conv_weights(op, seed, i);
                reference::forward_ref(&conv_cfg(x.shape(), w.shape(), pad), &x, &w)
            }
            Op::Relu => ReluLayer.forward(&x),
            Op::Pool => POOL.forward(&x).output,
            Op::Fc { .. } => nets::fc_layer(op, seed, i).forward(&x),
        };
    }
    x
}

/// Computed FLOPs and compulsory bytes moved (inputs, weights and
/// outputs read or written once, f32) of every conv and FC layer's
/// forward pass at batch `n`: `(label, flops, bytes)`.
pub fn forward_costs(arch: &Arch, n: usize) -> Vec<(String, u64, u64)> {
    let mut convs = 0;
    nets::shapes(arch, n)
        .into_iter()
        .map(|layer| match layer {
            Shaped::Conv(cfg) => {
                convs += 1;
                let len =
                    cfg.input_shape().len() + cfg.filter_shape().len() + cfg.output_shape().len();
                (
                    format!("conv.fwd.L{convs}"),
                    cfg.forward_flops(),
                    4 * len as u64,
                )
            }
            Shaped::Fc { batch, inp, out } => {
                let flops = gcnn_gemm::gemm_flops(batch, out, inp);
                let bytes = 4 * (batch * inp + out * inp + out + batch * out) as u64;
                (format!("fc.{inp}x{out}"), flops, bytes)
            }
        })
        .collect()
}
