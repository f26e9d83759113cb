//! `perfbench`: the repository's benchmark. One run measures one
//! workload for `--seconds` and prints a human-readable log followed by
//! one JSON result line.
//!
//! ```text
//! perfbench --workload <vgg-infer|vgg-train|lenet-fft-train|lenet-serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the untraced end-to-end run of the named workload.
//! `--trace 1` is the traced run: every workload replayed layer by
//! layer with the benchmark's own spans, plus the standalone kernel
//! probes, so each traced run prints the whole per-layer table. See
//! README.md for the workloads and the metrics.

mod alloc;
mod compute;
mod nets;
mod probes;
mod replay;
mod report;
mod serve;
mod yardstick;

use compute::Kind;
use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// 10th-percentile ms of `f` over repeats filling `budget_s` (at least
/// 10).
pub fn repeat_ms(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut ms = Vec::new();
    let t0 = std::time::Instant::now();
    while ms.len() < 10 || t0.elapsed().as_secs_f64() < budget_s {
        let t = std::time::Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    replay::p10(&ms)
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Compute(Kind),
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "vgg-infer" => Workload::Compute(Kind::VggInfer),
            "vgg-train" => Workload::Compute(Kind::VggTrain),
            "lenet-fft-train" => Workload::Compute(Kind::LenetFftTrain),
            "lenet-serve" => Workload::Serve,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_string();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// One line naming the host and build the result came from.
fn fingerprint(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "host: isa={} nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} workload={} seed={} seconds={} trace={}",
        gcnn_tensor::simd::isa_name(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

/// The traced run: each workload's layer replay and the kernel probes,
/// sharing `seconds`.
fn trace_all(seed: u64, seconds: f64, rep: &mut Report) {
    for (kind, share) in [
        (Kind::VggInfer, 0.2),
        (Kind::VggTrain, 0.3),
        (Kind::LenetFftTrain, 0.15),
    ] {
        println!("== {} (traced replay)", kind.spec().name);
        compute::trace(&kind.spec(), seed, seconds * share, rep);
    }
    println!("== lenet-serve (traced)");
    serve::trace(seed, seconds * 0.2, rep);
    println!("== kernel probes");
    probes::run(seed, seconds * 0.15, rep);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    fingerprint(&args);
    let mut rep = Report::new();
    match (args.trace, args.workload) {
        (false, Workload::Compute(kind)) => compute::run(kind, args.seed, args.seconds, &mut rep),
        (false, Workload::Serve) => serve::run(args.seed, args.seconds, &mut rep),
        (true, _) => trace_all(args.seed, args.seconds, &mut rep),
    }
    let line = rep.json();
    println!("{line}");
    std::process::exit(if rep.correct { 0 } else { 1 });
}
