//! The serve workloads: the real daemon in its own process, driven closed
//! loop over at most two connections by at most two load threads.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rbt_core::ReleaseSession;
use rbt_data::Dataset;
use rbt_linalg::Matrix;
use rbt_server::{Client, ClientError, Request, Response, RuntimeSnapshot, ServerStats};

use crate::check::{same_release, Miner};
use crate::daemon::{connect, Daemon};
use crate::gen;
use crate::layers::{self, Sample};
use crate::measure::{self, median, quantile};
use crate::release::{release, rerelease, ReleaseTimes};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Args;

/// The shape of one serve workload.
pub struct Spec {
    pub tenants: usize,
    pub cols: usize,
    /// Rows each tenant's key is fitted on.
    pub train_rows: usize,
    /// `--capacity` for the daemon (`None`: its default, 64).
    pub capacity: Option<usize>,
    pub batch_rows: usize,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// Distinct requests per connection, replayed cyclically.
    pub ops_per_conn: usize,
    /// Zipf-like tenant popularity (else connection `c` serves tenant `c`).
    pub zipf: bool,
    /// Every n-th request is a `LoadKey` re-registering its tenant.
    pub load_key_every: Option<usize>,
    /// Tenant releases re-timed in each gap between load segments.
    pub releases_per_gap: usize,
    pub warmup_s: f64,
    /// Every n-th request of the traced stretch gets spans, which bounds
    /// the trace of the small-request workload.
    pub trace_every: u64,
}

const CONNS: usize = 2;
const DEFAULT_CAPACITY: usize = 64;
const KMEANS_ITERS: usize = 10;
/// Load segments per run; set-up, release and k-means samples are taken
/// in the gaps around them.
const SEGMENTS: usize = 6;
const SETUPS_PER_GAP: usize = 5;
const FITS_PER_GAP: usize = 10;

struct Op {
    tenant: usize,
    request: Request,
    /// The release the daemon must return (`None` for `LoadKey`).
    want: Option<(Dataset, u64)>,
}

#[derive(Default)]
struct Phase {
    latency_us: Vec<f64>,
    send_us: Vec<f64>,
    receive_us: Vec<f64>,
    rows: u64,
    transforms: u64,
    load_keys: u64,
    first: Option<Instant>,
    last: Option<Instant>,
    /// (kind, message, wrong output?) of every failed operation.
    failures: Vec<(&'static str, String, bool)>,
    /// Connections given up after a failed exchange.
    dropped: u64,
    /// (op index, request id, round-trip span, send span) of traced
    /// requests picked for the in-process replay.
    picked: Vec<(usize, u64, u64, u64)>,
}

fn classify(e: &ClientError) -> &'static str {
    match e {
        ClientError::Deadline { .. } => "deadline",
        ClientError::Server { code, .. } if *code == rbt_server::CODE_UNAVAILABLE => "refused",
        ClientError::Server { .. } => "error",
        ClientError::GoingAway { .. } => "going_away",
        ClientError::Disconnected => "disconnect",
        ClientError::Wire(rbt_server::WireError::Io { .. }) => "io",
        ClientError::Wire(_) => "malformed",
        _ => "other",
    }
}

struct Conn<'a> {
    ops: &'a [Op],
    cols: usize,
    conn: u64,
    window: usize,
    cursor: usize,
    seq: u64,
    /// Op indices still wanted for the replay.
    wanted: Vec<bool>,
    picks_left: usize,
    corrupt_next: bool,
    trace_every: u64,
}

impl Conn<'_> {
    /// Keeps `window` requests in flight until `until`, then collects the
    /// replies still owed. Returns false once the connection is unusable.
    fn run(
        &mut self,
        client: &mut Client,
        until: Instant,
        tracer: &mut Tracer,
        ph: &mut Phase,
    ) -> bool {
        let mut inflight: VecDeque<(usize, Instant, Instant, u64)> = VecDeque::new();
        loop {
            while inflight.len() < self.window && Instant::now() < until {
                let i = self.cursor % self.ops.len();
                self.cursor += 1;
                self.seq += 1;
                let req = (self.conn << 40) | self.seq;
                let t0 = Instant::now();
                let sent = client.send(&self.ops[i].request);
                let t1 = Instant::now();
                ph.first.get_or_insert(t0);
                if let Err(e) = sent {
                    ph.failures
                        .push((classify(&e), format!("send: {e}"), false));
                    return abandon(inflight, ph);
                }
                ph.send_us.push((t1 - t0).as_secs_f64() * 1e6);
                inflight.push_back((i, t0, t1, req));
            }
            let Some(&(i, t0, t1, req)) = inflight.front() else {
                return true;
            };
            let r0 = Instant::now();
            let reply = client.receive();
            let r1 = Instant::now();
            inflight.pop_front();
            ph.last = Some(r1);
            ph.receive_us.push((r1 - r0).as_secs_f64() * 1e6);
            ph.latency_us.push((r1 - t0).as_secs_f64() * 1e6);
            if tracer.on() && (req & 0xFF_FFFF_FFFF) % self.trace_every == 0 {
                let rt = tracer.record("roundtrip", "server.reactor", req, 0, t0, r1);
                let send = tracer.record("client.send", "server.client", req, rt, t0, t1);
                if self.picks_left > 0 && self.wanted[i] && self.ops[i].want.is_some() {
                    self.wanted[i] = false;
                    self.picks_left -= 1;
                    ph.picked.push((i, req, rt, send));
                }
            }
            match reply {
                Ok(mut response) => {
                    if self.corrupt_next {
                        if let Response::Transformed { released, .. } = &mut response {
                            let v = &mut released.matrix_mut().as_mut_slice()[0];
                            *v = f64::from_bits(v.to_bits() ^ 1);
                            self.corrupt_next = false;
                        }
                    }
                    self.verify(i, response, ph);
                }
                Err(e) => {
                    ph.failures
                        .push((classify(&e), format!("reply: {e}"), false));
                    return abandon(inflight, ph);
                }
            }
        }
    }

    fn verify(&self, i: usize, response: Response, ph: &mut Phase) {
        let op = &self.ops[i];
        match (&op.want, response) {
            (
                Some((want, want_oor)),
                Response::Transformed {
                    released,
                    out_of_range_rows,
                },
            ) => match same_release(&released, want) {
                Ok(()) if out_of_range_rows == *want_oor => {
                    ph.transforms += 1;
                    ph.rows += released.n_rows() as u64;
                }
                Ok(()) => {
                    ph.failures
                        .push(("wrong", format!("tenant {}: drift count", op.tenant), true))
                }
                Err(e) => ph
                    .failures
                    .push(("wrong", format!("tenant {}: {e}", op.tenant), true)),
            },
            (
                None,
                Response::Loaded {
                    method,
                    n_attributes,
                },
            ) if method == "rbt" && n_attributes == self.cols as u64 => ph.load_keys += 1,
            (_, other) => ph.failures.push((
                "wrong",
                format!(
                    "tenant {}: unexpected reply {:?}",
                    op.tenant,
                    other.opcode()
                ),
                true,
            )),
        }
    }
}

/// A failed exchange leaves the stream's state unknown: the connection is
/// given up and every request still in flight on it is lost.
fn abandon(inflight: VecDeque<(usize, Instant, Instant, u64)>, ph: &mut Phase) -> bool {
    for _ in inflight {
        ph.failures
            .push(("lost", "in flight on a failed connection".into(), false));
    }
    ph.dropped += 1;
    false
}

fn tenant_name(t: usize) -> String {
    format!("t{t:02}")
}

/// Both connections' results for one measured stretch.
fn merge(phases: Vec<Phase>) -> Phase {
    let mut all = Phase::default();
    for p in phases {
        all.latency_us.extend(p.latency_us);
        all.send_us.extend(p.send_us);
        all.receive_us.extend(p.receive_us);
        all.rows += p.rows;
        all.transforms += p.transforms;
        all.load_keys += p.load_keys;
        all.dropped += p.dropped;
        all.first = match (all.first, p.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        all.last = all.last.max(p.last);
        all.failures.extend(p.failures);
        all.picked.extend(p.picked);
    }
    all
}

fn account(report: &mut Report, phase: &'static str, ph: &Phase) {
    report.ok(phase, ph.transforms + ph.load_keys);
    for (kind, msg, wrong) in &ph.failures {
        if *wrong {
            report.mismatch(phase, msg.clone());
        } else {
            report.failed(phase, format!("{kind}: {msg}"));
        }
    }
}

fn wall_s(ph: &Phase) -> f64 {
    match (ph.first, ph.last) {
        (Some(a), Some(b)) if b > a => (b - a).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// A set of load segments: their merged results, wall time and CPU.
#[derive(Default)]
struct Stretch {
    all: Phase,
    wall_s: f64,
    daemon_cpu_s: f64,
    own_cpu_s: f64,
}

impl Stretch {
    fn add(&mut self, ph: Phase) {
        let all = std::mem::take(&mut self.all);
        self.all = merge(vec![all, ph]);
    }

    fn rows_per_s(&self) -> f64 {
        self.all.rows as f64 / self.wall_s
    }
}

fn runtime_delta(a: &RuntimeSnapshot, b: &RuntimeSnapshot) -> [(&'static str, u64); 6] {
    [
        ("deadlines_shed", b.deadlines_shed - a.deadlines_shed),
        ("refused", b.refused - a.refused),
        ("stalled", b.stalled - a.stalled),
        ("malformed", b.malformed - a.malformed),
        ("idle_reaped", b.idle_reaped - a.idle_reaped),
        ("disconnects", b.disconnects - a.disconnects),
    ]
}

pub fn run(
    spec: &Spec,
    args: &Args,
    work: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
    memcpy: f64,
) {
    let Some(exe) = args.daemon.as_deref() else {
        report.failed(
            "setup",
            "--daemon <path to rbt-cli> is required for serve workloads".into(),
        );
        return;
    };
    let seed = args.seed;

    // The data owners: one key per tenant, fitted on the tenant's own data.
    // The daemon under test and the set-up probes read separate copies of
    // the key directory.
    let mut times = ReleaseTimes::default();
    let mut owners = Vec::with_capacity(spec.tenants);
    let mut mixtures = Vec::with_capacity(spec.tenants);
    let mut keys: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let (keys_dir, probe_dir) = (work.join("keys"), work.join("probe-keys"));
    for t in 0..spec.tenants {
        let mix = gen::mixture(&mut gen::rng(seed, 100 + t as u64), 8, spec.cols);
        let train = gen::table(&mix, spec.train_rows, &mut gen::rng(seed, 200 + t as u64));
        let Some(rel) = release(report, tracer, &mut times, &train, seed, 1000 + t as u64) else {
            return;
        };
        for dir in [&keys_dir, &probe_dir] {
            let path = dir.join(format!("{}.key", tenant_name(t)));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &rel.key))
            {
                report.failed("setup", format!("writing {}: {e}", path.display()));
                return;
            }
        }
        keys.insert(tenant_name(t), rel.key.clone());
        owners.push((train, rel));
        mixtures.push(mix);
    }

    // The request plan, and the releases the daemon must return for it,
    // computed in-process (untimed) under the same keys.
    let mut sessions: Vec<ReleaseSession> = (0..spec.tenants)
        .map(|t| ReleaseSession::from_bytes(&keys[&tenant_name(t)]).expect("own key decodes"))
        .collect();
    let zipf = gen::Zipf::new(spec.tenants, &mut gen::rng(seed, 300));
    let plans: Vec<Vec<Op>> = (0..CONNS)
        .map(|c| {
            let mut pick = gen::rng(seed, 400 + c as u64);
            (0..spec.ops_per_conn)
                .map(|i| {
                    let tenant = if spec.zipf { zipf.sample(&mut pick) } else { c };
                    let name = tenant_name(tenant);
                    if spec.load_key_every.is_some_and(|n| i % n == n - 1) {
                        return Op {
                            tenant,
                            request: Request::LoadKey {
                                key_bytes: keys[&name].clone(),
                                tenant: name,
                            },
                            want: None,
                        };
                    }
                    let batch = gen::table(&mixtures[tenant], spec.batch_rows, &mut pick);
                    let out = sessions[tenant]
                        .transform_batch(&batch)
                        .expect("own batch transforms");
                    Op {
                        tenant,
                        want: Some((out.released, out.out_of_range_rows as u64)),
                        request: Request::Transform {
                            tenant: name,
                            batch,
                        },
                    }
                })
                .collect()
        })
        .collect();

    // The miner clusters what the daemon releases for the most requested
    // tenant; the partition must equal k-means on the normalized inputs.
    let focus = if spec.zipf { zipf.most_popular() } else { 0 };
    let (mut raw, mut rel) = (Vec::new(), Vec::new());
    for op in plans.iter().flatten().filter(|o| o.tenant == focus) {
        if let (Request::Transform { batch, .. }, Some((want, _))) = (&op.request, &op.want) {
            raw.extend_from_slice(batch.matrix().as_slice());
            rel.extend_from_slice(want.matrix().as_slice());
        }
    }
    let rows = raw.len() / spec.cols;
    let raw = Matrix::from_vec(rows, spec.cols, raw).expect("whole rows");
    let mined = Matrix::from_vec(rows, spec.cols, rel).expect("whole rows");
    let mut miner = Miner::new(KMEANS_ITERS);
    match sessions[focus].normalizer().transform(&raw) {
        Ok(normalized) => miner.check(
            report,
            tracer,
            &mined,
            &normalized,
            &mut gen::rng(seed, 500),
        ),
        Err(e) => report.failed("verify", format!("normalizing the miner's sample: {e}")),
    }

    // Set-up: spawn to first Pong. This daemon serves the measured load;
    // more set-up samples, releases and k-means fits are taken between
    // the load segments, while the load is paused.
    let mut setups = Vec::new();
    let daemon = match Daemon::start(Path::new(exe), &keys_dir, spec.capacity) {
        Ok((d, s)) => {
            report.ok("setup", 1);
            setups.push(s);
            d
        }
        Err(e) => {
            report.failed("setup", e);
            return;
        }
    };
    let pid = daemon.pid();
    let traced_from = if tracer.on() { SEGMENTS / 2 } else { SEGMENTS };
    let segment = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let epoch = tracer.epoch();
    let mut between = |k: usize, report: &mut Report, tracer: &mut Tracer| {
        for _ in 0..SETUPS_PER_GAP {
            match Daemon::start(Path::new(exe), &probe_dir, spec.capacity) {
                Ok((_, s)) => {
                    report.ok("setup", 1);
                    setups.push(s);
                }
                Err(e) => report.failed("setup", e),
            }
        }
        for j in 0..spec.releases_per_gap {
            let (train, first) = &owners[(k * spec.releases_per_gap + j) % spec.tenants];
            rerelease(report, &mut times, train, seed, first);
        }
        for _ in 0..FITS_PER_GAP {
            miner.fit(report, tracer, &mined);
        }
    };

    let barrier = Barrier::new(CONNS + 1);
    let corrupt = args.corrupt_reply;
    // (daemon CPU s, own CPU s) where each segment starts and ends.
    let mut starts = Vec::new();
    let mut ends = Vec::new();
    let results: Vec<(Vec<Phase>, [Option<ServerStats>; 2], Tracer)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(c, ops)| {
                    let barrier = &barrier;
                    let addr = daemon.addr;
                    scope.spawn(move || {
                        let mut tr = Tracer::new(false, epoch);
                        let mut conn = Conn {
                            ops,
                            cols: spec.cols,
                            conn: c as u64 + 1,
                            window: spec.window,
                            cursor: 0,
                            seq: 0,
                            wanted: vec![true; ops.len()],
                            picks_left: 256,
                            corrupt_next: corrupt && c == 0,
                            trace_every: spec.trace_every,
                        };
                        let mut warm = Phase::default();
                        let mut client = match connect(addr) {
                            Ok(cl) => Some(cl),
                            Err(e) => {
                                warm.failures.push(("refused", e, false));
                                None
                            }
                        };
                        if let Some(cl) = client.as_mut() {
                            let until = Instant::now() + Duration::from_secs_f64(spec.warmup_s);
                            if !conn.run(cl, until, &mut tr, &mut warm) {
                                client = None;
                            }
                        }
                        let mut phases = vec![warm];
                        let mut stats = [None, None];
                        for k in 0..=SEGMENTS {
                            barrier.wait();
                            if c == 0 && (k == 0 || k == SEGMENTS) {
                                stats[k / SEGMENTS] =
                                    client.as_mut().and_then(|cl| cl.stats().ok());
                            }
                            barrier.wait();
                            if k == SEGMENTS {
                                break;
                            }
                            let mut ph = Phase::default();
                            let mut seg_tr = Tracer::new(k >= traced_from, epoch);
                            if let Some(cl) = client.as_mut() {
                                if !conn.run(cl, Instant::now() + segment, &mut seg_tr, &mut ph) {
                                    client = None;
                                }
                            }
                            tr.absorb(seg_tr);
                            phases.push(ph);
                        }
                        (phases, stats, tr)
                    })
                })
                .collect();
            for k in 0..=SEGMENTS {
                barrier.wait();
                ends.push((measure::cpu_seconds(&pid), measure::cpu_seconds("self")));
                between(k, report, tracer);
                starts.push((measure::cpu_seconds(&pid), measure::cpu_seconds("self")));
                barrier.wait();
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
    times.finish(report);
    miner.finish(report);
    report.set_n("setup_s", median(&setups), "s", setups.len());

    // Per-phase accounting across both connections.
    let mut stats = [None, None];
    let mut by_segment: Vec<Vec<Phase>> = Vec::new();
    for (phases, st, tr) in results {
        tracer.absorb(tr);
        if st[0].is_some() || st[1].is_some() {
            stats = st;
        }
        for (k, ph) in phases.into_iter().enumerate() {
            if by_segment.len() <= k {
                by_segment.push(Vec::new());
            }
            by_segment[k].push(ph);
        }
    }
    let mut merged = by_segment.into_iter().map(merge);
    let warm = merged.next().unwrap_or_default();
    account(report, "warmup", &warm);
    let segments: Vec<(Phase, f64)> = merged
        .map(|p| {
            let w = wall_s(&p);
            (p, w)
        })
        .collect();
    let mut measured = Stretch::default();
    let mut traced = Stretch::default();
    for (k, (ph, wall)) in segments.into_iter().enumerate() {
        let (name, stretch) = if k < traced_from {
            ("measure", &mut measured)
        } else {
            ("measure_traced", &mut traced)
        };
        account(report, name, &ph);
        if let (Some(s), Some(e)) = (starts.get(k), ends.get(k + 1)) {
            stretch.daemon_cpu_s += e.0 - s.0;
            stretch.own_cpu_s += e.1 - s.1;
        }
        stretch.wall_s += wall;
        stretch.add(ph);
    }

    // End-to-end metrics from the untraced segments.
    let n = measured.all.latency_us.len();
    if !tracer.on() {
        measure::check_p99_samples(report, "serve latency", n);
    }
    let lat = &measured.all.latency_us;
    report.set_n("rows_per_s", measured.rows_per_s(), "rows/s", n);
    report.set_n("latency_p50_ms", quantile(lat, 0.5) / 1e3, "ms", n);
    report.set_n("latency_p99_ms", quantile(lat, 0.99) / 1e3, "ms", n);
    report.set("peak_rss_mb", measure::peak_rss_mb(&pid), "MB");
    report.set("server.threads", measure::threads(&pid), "count");
    report.set(
        "cpu_us_per_row",
        measured.daemon_cpu_s * 1e6 / measured.all.rows as f64,
        "us/row",
    );
    report.set(
        "server.cpu_util",
        measured.daemon_cpu_s / measured.wall_s,
        "cores",
    );
    report.set(
        "generator.cpu_util",
        measured.own_cpu_s / measured.wall_s,
        "cores",
    );
    let (send, recv) = (&measured.all.send_us, &measured.all.receive_us);
    report.set_n("client.send_us_p50", quantile(send, 0.5), "us", send.len());
    report.set_n("client.send_us_p99", quantile(send, 0.99), "us", send.len());
    report.set_n(
        "client.receive_wait_us_p50",
        quantile(recv, 0.5),
        "us",
        recv.len(),
    );
    report.set_n(
        "client.receive_wait_us_p99",
        quantile(recv, 0.99),
        "us",
        recv.len(),
    );

    // Cross-check the client's accounting against the daemon's counters.
    match &stats {
        [Some(a), Some(b)] => {
            let served = |s: &ServerStats| s.tenants.iter().map(|t| t.requests).sum::<u64>();
            let transforms = served(b) - served(a);
            let evictions = b.total_evictions - a.total_evictions;
            let load_keys = measured.all.load_keys + traced.all.load_keys;
            let ours = measured.all.transforms + traced.all.transforms;
            // Once the registry is full, each eviction is one operation
            // that found its tenant not resident (a transform miss, or a
            // LoadKey of an evicted tenant).
            report.set("registry.evictions", evictions as f64, "count");
            report.set(
                "registry.hit_ratio",
                1.0 - evictions as f64 / (transforms + load_keys).max(1) as f64,
                "fraction",
            );
            if transforms == ours {
                report.ok("accounting", 1);
            } else {
                report.mismatch(
                    "accounting",
                    format!("daemon served {transforms} transforms, the client verified {ours}"),
                );
            }
            let failures: Vec<&(&str, String, bool)> = measured
                .all
                .failures
                .iter()
                .chain(traced.all.failures.iter())
                .collect();
            let count = |kind: &str| failures.iter().filter(|f| f.0 == kind).count() as u64;
            for (name, delta) in runtime_delta(&a.runtime, &b.runtime) {
                report.set(&format!("server.runtime.{name}"), delta as f64, "count");
                // The client's frames are well formed and never idle or
                // stall; its only disconnects are connections it gave up.
                let seen = match name {
                    "deadlines_shed" => count("deadline"),
                    "refused" => count("refused"),
                    "disconnects" => measured.all.dropped + traced.all.dropped,
                    _ => 0,
                };
                if delta == seen {
                    report.ok("accounting", 1);
                } else {
                    report.mismatch(
                        "accounting",
                        format!("daemon counted {delta} {name}, the client saw {seen}"),
                    );
                }
            }
        }
        _ => report.failed("accounting", "Stats request failed".into()),
    }
    drop(daemon);

    if !tracer.on() {
        return;
    }
    let samples: Vec<Sample> = traced
        .all
        .picked
        .iter()
        .filter_map(|&(i, req, rt, send)| {
            let op = &plans[(req >> 40) as usize - 1][i];
            match (&op.request, &op.want) {
                (Request::Transform { tenant, batch }, Some((want, oor))) => Some(Sample {
                    tenant: tenant.clone(),
                    batch: batch.clone(),
                    want: want.clone(),
                    out_of_range_rows: *oor,
                    req,
                    roundtrip_span: rt,
                    send_span: send,
                }),
                _ => None,
            }
        })
        .collect();
    let capacity = spec.capacity.unwrap_or(DEFAULT_CAPACITY);
    let in_process_us = layers::replay(report, tracer, &samples, &keys, capacity, 1.0);
    let rtt_us = quantile(lat, 0.5);
    report.set("reactor.residual_us", rtt_us - in_process_us, "us");
    let probe: Vec<Dataset> = samples.iter().take(64).map(|s| s.batch.clone()).collect();
    let probe_key = samples
        .first()
        .map(|s| keys[&s.tenant].clone())
        .unwrap_or_default();
    layers::pool_probe(report, tracer, &probe_key, &probe, memcpy, 0.5);
    report.set(
        "trace.overhead_latency_p50_ms",
        (quantile(&traced.all.latency_us, 0.5) - rtt_us) / 1e3,
        "ms",
    );
    report.set(
        "trace.overhead_rows_per_s",
        traced.rows_per_s() - measured.rows_per_s(),
        "rows/s",
    );
}
