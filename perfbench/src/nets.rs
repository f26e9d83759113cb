//! The networks the workloads run, described once as a layer list so
//! that the `Network` under test and the benchmark's layer-by-layer
//! replay are built from the same shapes and the same weight seeds.

use gcnn_conv::layers::FcLayer;
use gcnn_conv::{ConvConfig, Strategy};
use gcnn_models::Network;
use gcnn_tensor::{init, Shape4, Tensor4};

/// One layer of a sequential net. Convolutions are stride 1; pooling is
/// 2×2 max with stride 2, as in the zoo's VGG and LeNet-5 blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Conv {
        c: usize,
        f: usize,
        k: usize,
        pad: usize,
    },
    Relu,
    Pool,
    Fc {
        inp: usize,
        out: usize,
    },
}

/// A network description: input image shape `(c, h, w)` and layers.
#[derive(Debug, Clone)]
pub struct Arch {
    pub input: (usize, usize, usize),
    pub ops: Vec<Op>,
    pub learning_rate: f32,
}

pub const VGG_BATCH: usize = 8;
pub const LENET_FFT_BATCH: usize = 32;
pub const SERVE_SIZE: usize = 16;
pub const CLASSES: usize = 10;

/// CIFAR-scale VGG-style net: conv3-64 → pool → conv3-128 → pool →
/// conv3-256 → conv3-256 → pool → fc 4096→256 → fc 256→10, pad 1.
pub fn vgg() -> Arch {
    let conv = |c, f| Op::Conv { c, f, k: 3, pad: 1 };
    Arch {
        input: (3, 32, 32),
        ops: vec![
            conv(3, 64),
            Op::Relu,
            Op::Pool,
            conv(64, 128),
            Op::Relu,
            Op::Pool,
            conv(128, 256),
            Op::Relu,
            conv(256, 256),
            Op::Relu,
            Op::Pool,
            Op::Fc {
                inp: 4096,
                out: 256,
            },
            Op::Relu,
            Op::Fc {
                inp: 256,
                out: CLASSES,
            },
        ],
        learning_rate: 0.01,
    }
}

/// LeNet-5 over `size`² single-channel images (the layers of
/// `Network::lenet5`).
pub fn lenet(size: usize) -> Arch {
    let flat = ((size - 4) / 2 - 4) / 2;
    Arch {
        input: (1, size, size),
        ops: vec![
            Op::Conv {
                c: 1,
                f: 6,
                k: 5,
                pad: 0,
            },
            Op::Relu,
            Op::Pool,
            Op::Conv {
                c: 6,
                f: 16,
                k: 5,
                pad: 0,
            },
            Op::Relu,
            Op::Pool,
            Op::Fc {
                inp: 16 * flat * flat,
                out: 120,
            },
            Op::Relu,
            Op::Fc { inp: 120, out: 84 },
            Op::Relu,
            Op::Fc {
                inp: 84,
                out: CLASSES,
            },
        ],
        learning_rate: 0.05,
    }
}

/// Weight seed of layer `i`: every layer draws its own stream.
pub fn layer_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// Conv filter bank of layer `i`, as `Network::conv` initializes it.
pub fn conv_weights(op: Op, seed: u64, i: usize) -> Tensor4 {
    match op {
        Op::Conv { c, f, k, .. } => {
            init::xavier_filters(Shape4::new(f, c, k, k), layer_seed(seed, i))
        }
        _ => panic!("conv_weights: layer {i} is not a conv"),
    }
}

/// FC layer `i`, as `Network::fc` initializes it.
pub fn fc_layer(op: Op, seed: u64, i: usize) -> FcLayer {
    match op {
        Op::Fc { inp, out } => FcLayer::xavier(out, inp, layer_seed(seed, i)),
        _ => panic!("fc_layer: layer {i} is not an fc"),
    }
}

/// Build the `Network` for `arch` with every conv on `strategy`. When
/// `blocked` is set, every conv after the first runs in the host's
/// preferred NCHWc layout (the pinned per-layer verdict: the 3-channel
/// first layer loses when packed).
pub fn network(arch: &Arch, strategy: Strategy, seed: u64, blocked: bool) -> Network {
    let mut net = Network::new(arch.learning_rate);
    for (i, op) in arch.ops.iter().enumerate() {
        net = match *op {
            Op::Conv { c, f, k, pad } => net.conv(c, f, k, 1, pad, strategy, layer_seed(seed, i)),
            Op::Relu => net.relu(),
            Op::Pool => net.max_pool(2, 2),
            Op::Fc { inp, out } => net.fc(inp, out, layer_seed(seed, i)),
        };
    }
    if blocked {
        for (idx, _) in net.conv_layouts().into_iter().skip(1) {
            net.set_conv_layout(idx, gcnn_tensor::nchwc::preferred_layout());
        }
    }
    net
}

/// A conv or FC layer of a net at a given batch size.
pub enum Shaped {
    Conv(ConvConfig),
    Fc {
        batch: usize,
        inp: usize,
        out: usize,
    },
}

/// The conv and FC layers of `arch` at batch `n`, in network order.
pub fn shapes(arch: &Arch, n: usize) -> Vec<Shaped> {
    let (c, h, w) = arch.input;
    let mut shape = Shape4::new(n, c, h, w);
    let mut out = Vec::new();
    for op in &arch.ops {
        match *op {
            Op::Conv { f, k, pad, .. } => {
                let mut cfg = ConvConfig::with_channels(n, shape.c, shape.h, f, k, 1);
                cfg.pad = pad;
                shape = cfg.output_shape();
                out.push(Shaped::Conv(cfg));
            }
            Op::Relu => {}
            Op::Pool => shape = Shape4::new(n, shape.c, shape.h / 2, shape.w / 2),
            Op::Fc { inp, out: o } => {
                out.push(Shaped::Fc {
                    batch: n,
                    inp,
                    out: o,
                });
                shape = Shape4::new(n, o, 1, 1);
            }
        }
    }
    out
}

/// A seeded batch of `n` images in `[-1, 1)` with labels.
pub fn batch(arch: &Arch, n: usize, seed: u64) -> (Tensor4, Vec<usize>) {
    let (c, h, w) = arch.input;
    let images = init::uniform_tensor(Shape4::new(n, c, h, w), -1.0, 1.0, seed);
    let mut rng = perfbench::Rng::new(seed ^ 0x5EED_1ABE);
    let labels = (0..n).map(|_| rng.below(CLASSES)).collect();
    (images, labels)
}
