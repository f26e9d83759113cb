//! `lenet-serve`: a seeded open loop of Poisson arrivals against a
//! loopback `gcnn-serve` server, one connection, a sender and a
//! receiver thread. Each request is timed from when it was due, so a
//! stall counts against every request it delays.

use std::io::{BufReader, BufWriter, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gcnn_conv::Strategy;
use gcnn_models::Network;
use gcnn_serve::protocol::{read_response, write_request, write_response};
use gcnn_serve::{BatchPolicy, Request, Response, ServeConfig, Server, Status};
use gcnn_tensor::{init, Shape4, Tensor4, Workspace};
use perfbench::{max_rate_search, percentile, poisson_schedule, probe_passes, Rng, Tally};

use crate::compute::{self, Spec};
use crate::nets::{self, SERVE_SIZE};
use crate::report::{self, Report};
use crate::yardstick::{Yardstick, YARDSTICK_REF_MS};
use crate::{repeat_ms, SETUPS};

/// The rate latency is reported at, requests per second.
const NOMINAL_RPS: f64 = 4000.0;
/// `max_rate_rps` limit on a probe's median latency, failures counted
/// as late. The median, not a tail: on a shared host the tail of a
/// sub-second probe follows other tenants' stalls, while the median
/// rises only once the queue itself grows.
const LIMIT_MS: f64 = 5.0;
/// Admission bound: 64 ms of arrivals at the nominal rate, so a stall
/// of the shared host does not shed; overload still does.
const QUEUE_CAP: usize = 256;
/// `max_rate_rps` limit on the failed share of a probe's requests.
const MAX_FAILED: f64 = 0.01;
/// Rate-search resolution: 2 % per grid step.
const STEP: f64 = 1.02;
/// Distinct request images, each with its locally computed logits.
const IMAGES: usize = 64;
/// Closed-loop requests of the set-up warm-up.
const WARMUP: usize = 32;
/// Receiver read timeout: a response this late counts as lost.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Share of `--seconds` spent at the nominal rate; the rest goes to the
/// rate search, one probe per `PROBE_SHARE`.
const NOMINAL_SHARE: f64 = 0.25;
const PROBE_SHARE: f64 = 0.04;

pub fn serve_net(seed: u64) -> Network {
    nets::network(&nets::lenet(SERVE_SIZE), Strategy::Unrolling, seed, false)
}

pub fn serve_spec() -> Spec {
    Spec {
        name: "lenet-serve",
        arch: nets::lenet(SERVE_SIZE),
        batch: 8,
        strategy: Strategy::Unrolling,
        blocked: false,
        training: false,
    }
}

fn policy() -> BatchPolicy {
    BatchPolicy::new(8, Duration::from_millis(2)).with_queue_cap(QUEUE_CAP)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn connect(addr: SocketAddr) -> Conn {
    let stream = TcpStream::connect(addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set read timeout");
    Conn {
        reader: BufReader::new(stream.try_clone().expect("clone the client socket")),
        writer: BufWriter::new(stream),
    }
}

/// A running server, a client connection, and the request images with
/// the logits a local `infer_ws` gives for each.
struct Rig {
    server: Server,
    conn: Conn,
    images: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
    next_id: u64,
}

fn start(seed: u64) -> Rig {
    let cfg = ServeConfig::loopback(1, policy(), (1, SERVE_SIZE, SERVE_SIZE));
    let server = Server::start(cfg, |_| serve_net(seed)).expect("start the loopback server");
    let local = serve_net(seed);
    let mut ws = Workspace::new();
    let pool = init::uniform_tensor(
        Shape4::new(IMAGES, 1, SERVE_SIZE, SERVE_SIZE),
        -1.0,
        1.0,
        seed ^ 0x1111,
    );
    let images: Vec<Vec<f32>> = (0..IMAGES).map(|n| pool.image(n).to_vec()).collect();
    let expected = images
        .iter()
        .map(|img| {
            let x = Tensor4::from_vec(Shape4::new(1, 1, SERVE_SIZE, SERVE_SIZE), img.clone())
                .expect("one image");
            local.infer_ws(&x, &mut ws).into_vec()
        })
        .collect();
    let conn = connect(server.local_addr());
    let mut rig = Rig {
        server,
        conn,
        images,
        expected,
        next_id: 0,
    };
    // Warm-up: closed-loop requests that fill the worker's arena.
    for i in 0..WARMUP {
        let img = i % IMAGES;
        let req = request(rig.next_id, &rig.images[img]);
        rig.next_id += 1;
        write_request(&mut rig.conn.writer, &req).expect("warm-up send");
        rig.conn.writer.flush().expect("warm-up flush");
        let resp = read_response(&mut rig.conn.reader)
            .expect("warm-up response")
            .expect("server open");
        assert_eq!(resp.status, Status::Ok, "warm-up request failed");
    }
    rig
}

impl Rig {
    fn stop(self) {
        drop(self.conn);
        self.server.shutdown();
    }
}

fn request(id: u64, pixels: &[f32]) -> Request {
    Request {
        id,
        c: 1,
        h: SERVE_SIZE as u16,
        w: SERVE_SIZE as u16,
        pixels: pixels.to_vec(),
    }
}

/// Outcome of one open-loop phase.
struct Phase {
    /// Per request, ms from due to answered; infinite when it failed.
    lat_ms: Vec<f64>,
    /// Per request, ms the generator sent it after it was due.
    late_ms: Vec<f64>,
    tally: Tally,
    mismatched: u64,
    unanswered: u64,
}

/// Offer Poisson arrivals at `rate` for `duration_s`; wait for every
/// answer (or the read timeout). A request fails when it is shed,
/// rejected, unanswered, or its logits differ from the local ones.
fn phase(rig: &mut Rig, rate: f64, duration_s: f64, seed: u64) -> Phase {
    let sched = poisson_schedule(seed, rate, duration_s);
    let n = sched.len();
    let mut rng = Rng::new(seed ^ 0xA5A5);
    let pick: Vec<usize> = (0..n).map(|_| rng.below(IMAGES)).collect();
    let base = rig.next_id;
    rig.next_id += n as u64;
    let Rig {
        conn,
        images,
        expected,
        ..
    } = rig;
    let Conn { reader, writer } = conn;
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(sched[i]);

    let (answered, late_ms) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            // Per request: when it was answered, its status, and whether
            // an `Ok` carried the expected logits.
            let mut answered: Vec<Option<(Instant, Status, bool)>> = vec![None; n];
            let mut got = 0;
            while got < n {
                let Ok(Some(resp)) = read_response(reader) else {
                    break;
                };
                let at = Instant::now();
                let Some(i) = resp
                    .id
                    .checked_sub(base)
                    .map(|i| i as usize)
                    .filter(|&i| i < n)
                else {
                    continue;
                };
                if answered[i].is_none() {
                    let same = resp.values == expected[pick[i]];
                    answered[i] = Some((at, resp.status, same));
                    got += 1;
                }
            }
            answered
        });
        let mut late_ms = Vec::with_capacity(n);
        for i in 0..n {
            let d = due(i);
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
            if write_request(writer, &request(base + i as u64, &images[pick[i]])).is_err() {
                break;
            }
            // Send what is already due in one write.
            if (i + 1 == n || due(i + 1) > Instant::now()) && writer.flush().is_err() {
                break;
            }
        }
        (receiver.join().expect("receiver thread panicked"), late_ms)
    });

    let mut tally = Tally::default();
    let (mut mismatched, mut unanswered) = (0, 0);
    let mut lat_ms = Vec::with_capacity(n);
    for (i, a) in answered.iter().enumerate() {
        match a {
            Some((at, Status::Ok, true)) => {
                tally.record(true);
                lat_ms.push(at.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
            }
            Some((_, status, _)) => {
                tally.record(false);
                lat_ms.push(f64::INFINITY);
                mismatched += u64::from(*status == Status::Ok);
            }
            None => {
                tally.record(false);
                lat_ms.push(f64::INFINITY);
                unanswered += 1;
            }
        }
    }
    if unanswered > 0 {
        // A timed-out read may have stopped inside a frame.
        *conn = connect(rig.server.local_addr());
    }
    Phase {
        lat_ms,
        late_ms,
        tally,
        mismatched,
        unanswered,
    }
}

/// Shed or rejected requests among a phase's failures.
fn shed_of(p: &Phase) -> u64 {
    p.tally.failed - p.mismatched - p.unanswered
}

/// Untraced end-to-end run: set-up [`SETUPS`] times (server start,
/// local logits, warm-up), each after a yardstick pass, then the
/// nominal-rate phase and the maximum-rate search.
pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let mut yard = Yardstick::new();
    let mut setups = Vec::new();
    let mut rig = None;
    for r in 0..SETUPS {
        let y = yard.measure_ms();
        let t = Instant::now();
        let fresh = start(seed);
        setups.push((t.elapsed().as_secs_f64(), y));
        if r + 1 < SETUPS {
            fresh.stop();
        } else {
            rig = Some(fresh);
        }
    }
    let mut rig = rig.expect("the last set-up is kept");

    // The yardstick runs while the server is idle: before the nominal
    // phase and before every probe.
    let mut yard_ms = vec![yard.measure_ms()];
    let nominal = phase(&mut rig, NOMINAL_RPS, seconds * NOMINAL_SHARE, seed);
    // Before the search's overload probes fill the socket buffers.
    let peak = report::peak_rss_mb();
    let probe_s = seconds * PROBE_SHARE;
    let mut probes = 0u64;
    let mut probe_mismatches = 0u64;
    let (max_rate, lo_ok) = max_rate_search(NOMINAL_RPS, 100.0 * NOMINAL_RPS, STEP, 8, |rate| {
        probes += 1;
        // A failing probe gets one retry: a verdict needs the rate to
        // fail twice, so one slow stretch of the host cannot decide it.
        (0..2).any(|attempt| {
            yard_ms.push(yard.measure_ms());
            let p = phase(&mut rig, rate, probe_s, seed.wrapping_add(probes * 104_729 + attempt));
            let p50 = percentile(&p.lat_ms, 0.5).value;
            let pass = probe_passes(p50, LIMIT_MS, &p.tally, MAX_FAILED, p.unanswered);
            println!(
                "  probe {rate:>9.0} rps: {} requests, p50 {p50:.3} ms, p99 {:.3} ms, shed {}, mismatched {}, unanswered {} -> {}",
                p.lat_ms.len(),
                percentile(&p.lat_ms, 0.99).value,
                shed_of(&p),
                p.mismatched,
                p.unanswered,
                if pass { "pass" } else { "fail" }
            );
            probe_mismatches += p.mismatched;
            pass
        })
    });
    let stats = rig.server.stats();
    rig.stop();

    let p50 = percentile(&nominal.lat_ms, 0.5);
    let p90 = percentile(&nominal.lat_ms, 0.9);
    let p99 = percentile(&nominal.lat_ms, 0.99);
    let late = percentile(&nominal.late_ms, 0.99);
    println!(
        "lenet-serve: {} requests at {NOMINAL_RPS} rps; latency_ms_p10 {:.4}, latency_ms_p50 {:.4}, latency_ms_p90 {:.4}, latency_ms_p99 {:.4} over {} requests ({} beyond p99); failed_frac {} (shed {}, mismatched {}, unanswered {}); generator late p99 {:.4} ms",
        nominal.lat_ms.len(),
        percentile(&nominal.lat_ms, 0.1).value,
        p50.value,
        p90.value,
        p99.value,
        p99.samples,
        p99.beyond,
        nominal.tally.failed_frac(),
        shed_of(&nominal),
        nominal.mismatched,
        nominal.unanswered,
        late.value
    );
    println!(
        "  server: mean batch {:.3}, batches {}, shed {}; max_rate_rps {max_rate:.0} after {probes} probes (limit p50 <= {LIMIT_MS} ms, failed <= {MAX_FAILED})",
        stats.mean_batch, stats.batches, stats.shed
    );
    rep.tally.merge(nominal.tally);
    if nominal.tally.failed > 0 {
        rep.fail(&format!(
            "{} of {} requests at the nominal rate failed",
            nominal.tally.failed, nominal.tally.attempted
        ));
    }
    if probe_mismatches > 0 {
        rep.fail(&format!(
            "{probe_mismatches} responses in the rate search differ from local infer_ws"
        ));
    }
    if !lo_ok {
        println!("  note: the nominal rate itself misses the latency limit");
    }

    let speed = host_speed(&yard_ms);
    println!(
        "  yardstick: p10 {:.4} ms over {} passes; host slowdown {speed:.4} vs the reference {YARDSTICK_REF_MS} ms; raw max_rate_rps {max_rate:.0}, scaled latency_ms_p10 {:.4}",
        percentile(&yard_ms, 0.1).value,
        yard_ms.len(),
        percentile(&nominal.lat_ms, 0.1).value / speed
    );
    rep.metric("setup_s", compute::setup_at_reference(&setups), "s");
    rep.metric("throughput_ips", max_rate * speed, "1/s");
    rep.metric("ok_frac", rep.tally.ok_frac(), "1");
    rep.metric("peak_rss_mb", peak, "MiB");
}

/// How much slower than the reference the host ran: the yardstick's
/// p10 over its reference time. Times are divided by it, rates
/// multiplied.
fn host_speed(yard_ms: &[f64]) -> f64 {
    percentile(yard_ms, 0.1).value / YARDSTICK_REF_MS
}

/// Traced section of `lenet-serve`: the server's own view of a
/// nominal-rate phase, the protocol and the model on their own, and the
/// layer replay of the worker's batch-8 op.
pub fn trace(seed: u64, budget_s: f64, rep: &mut Report) {
    let mut rig = start(seed);
    let p = phase(&mut rig, NOMINAL_RPS, budget_s * 0.4, seed);
    let stats = rig.server.stats();
    rig.stop();
    rep.tally.merge(p.tally);
    if p.tally.failed > 0 {
        rep.fail(&format!(
            "{} of {} traced-phase requests failed",
            p.tally.failed, p.tally.attempted
        ));
    }
    let client_p50 = percentile(&p.lat_ms, 0.5).value;
    rep.metric("serve.server_ms_p50", stats.p50_ms, "ms");
    rep.metric("serve.server_ms_p99", stats.p99_ms, "ms");
    rep.metric("serve.wire_ms_p50", client_p50 - stats.p50_ms, "ms");
    rep.metric("serve.batch_mean", stats.mean_batch, "count");
    rep.metric("serve.shed", stats.shed as f64, "count");
    rep.metric(
        "loadgen.late_ms_p99",
        percentile(&p.late_ms, 0.99).value,
        "ms",
    );
    rep.metric(
        "loadgen.late_ms_max",
        percentile(&p.late_ms, 1.0).value,
        "ms",
    );

    let (encode_us, decode_us) = protocol_probe(budget_s * 0.1);
    rep.metric("serve.encode_us", encode_us, "us");
    rep.metric("serve.decode_us", decode_us, "us");

    let net = serve_net(seed);
    let mut ws = Workspace::new();
    for (b, name) in [(1, "models.infer_b1_ms"), (8, "models.infer_b8_ms")] {
        let x = init::uniform_tensor(Shape4::new(b, 1, SERVE_SIZE, SERVE_SIZE), -1.0, 1.0, seed);
        let ms = repeat_ms(budget_s * 0.1, || {
            std::hint::black_box(net.infer_ws(&x, &mut ws));
        });
        rep.metric(name, ms, "ms");
    }
    compute::trace(&serve_spec(), seed, budget_s * 0.4, rep);
}

/// p10 µs of `write_request` of one serve request and of
/// `read_response` of one logit response, on memory buffers.
fn protocol_probe(budget_s: f64) -> (f64, f64) {
    const CALLS: usize = 200;
    let pixels = vec![0.25f32; SERVE_SIZE * SERVE_SIZE];
    let req = request(7, &pixels);
    let mut buf = Vec::with_capacity(4096);
    let encode = repeat_ms(budget_s / 2.0, || {
        for _ in 0..CALLS {
            buf.clear();
            write_request(&mut buf, std::hint::black_box(&req)).expect("encode to memory");
        }
    });
    let mut frame = Vec::new();
    let resp = Response {
        id: 7,
        status: Status::Ok,
        values: vec![0.5; nets::CLASSES],
    };
    write_response(&mut frame, &resp).expect("encode to memory");
    let decode = repeat_ms(budget_s / 2.0, || {
        for _ in 0..CALLS {
            let got = read_response(&mut Cursor::new(std::hint::black_box(&frame)))
                .expect("decode from memory")
                .expect("one frame");
            std::hint::black_box(got);
        }
    });
    (encode * 1e3 / CALLS as f64, decode * 1e3 / CALLS as f64)
}
