//! `http_open`: seeded Poisson arrivals at fixed offered rates against the
//! real `mnn_http` binary, run as its own process with
//! `--zoo squeezenet-v1.1=32 --tuning full` and a private tuning cache.
//!
//! The generator uses one thread and one keep-alive connection per core. Each
//! thread pipelines its requests, sending on schedule whether or not earlier
//! replies have come back, and times every request from when it was due.
//! The server answers a connection's requests one at a time, so at most one
//! request per connection is in the serving queue at once.

use crate::engine::{self, CheckedInputs};
use crate::util::{median, percentile, Rng, Samples, Spans};
use crate::{Ctx, Outcome};
use mnn_http::{InferRequest, InferResponse, StatsResponse, TensorJson, TracesResponse};
use mnn_models::ModelKind;
use mnn_tensor::Shape;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const MODEL: ModelKind = ModelKind::SqueezeNetV1_1;
const MODEL_PATH: &str = "squeezenet-v1.1";
const SIZE: usize = 32;
/// Offered rates, requests per second: `LO` sits near the latency floor,
/// `HI` is high enough that queueing and micro-batching show. On a 2-core
/// x86-64 host the saturation phase completes 300-600 req/s depending on
/// load from other tenants, so `HI` stays at half the lowest of those.
const LO_RPS: f64 = 50.0;
const HI_RPS: f64 = 150.0;
/// Requests each connection keeps in flight in the saturation phase.
const SATURATION_DEPTH: usize = 4;
/// Rates tried above `HI`, lowest first; the first that fails ends the climb.
const LADDER_RPS: [f64; 4] = [250.0, 350.0, 450.0, 550.0];
/// A ladder rung passes when every request succeeds, its p95 latency stays
/// under this limit, and the backlog left when its schedule ends is no more
/// than Little's law allows at this latency (`rate × limit`), so it is not
/// growing.
const RUNG_P95_LIMIT_MS: f64 = 50.0;
/// A `lo` or `hi` phase in which more than a tenth of the sends left later
/// than this (p90 send lag) is invalid, not slow: the generator fell behind.
/// Such a phase is run again, at most `PHASE_ATTEMPTS` times in all, and the
/// run fails if none kept to its schedule. A host hiccup that stalls every
/// thread for a moment raises only the top few lags, which p90 ignores.
const MAX_GEN_LAG_P90_MS: f64 = 5.0;
const PHASE_ATTEMPTS: usize = 3;
const SETUP_PASSES: usize = 9;
/// Request waterfalls fetched from `/v1/traces` in a traced run.
const WATERFALLS: usize = 32;
const POOL: usize = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = ctx
        .server_bin
        .clone()
        .ok_or("http_open needs --server-bin (the mnn_http release binary)")?;
    let mut out = Outcome::default();
    let connections = std::thread::available_parallelism().map_or(2, |n| n.get());

    // --- Set-up: start the server from scratch, each time tuning into a
    // fresh cache, until /readyz answers 200. Keep the last one. -------------
    let mut setup_s = Vec::new();
    let mut server = None;
    for pass in 0..SETUP_PASSES {
        drop(server.take());
        let cache = ctx.work.join(format!("tune-http-{pass}.json"));
        let (started, secs) = Server::start(&bin, &cache, &ctx.work, false)?;
        setup_s.push(secs);
        server = Some(started);
    }
    let mut server = server.ok_or("no server started")?;
    out.end_to_end.insert("setup_s", median(&setup_s));

    let mut rng = Rng::stream(ctx.seed, "http/inputs");
    let graph = mnn_models::build(MODEL, 1, SIZE);
    let checked = engine::reference_pool(MODEL, graph, &Shape::nchw(1, 3, SIZE, SIZE), POOL, &mut rng)?;
    let bodies = request_bodies(&checked)?;
    let load = Load {
        bodies: &bodies,
        checked: &checked,
        seed: ctx.seed,
        connections,
    };

    // A traced run gives half its time to this untraced pass, half to the
    // traced one.
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let plain = load.all_phases(&server, seconds, false)?;
    let (p50, p90, hi_rps) = plain.hi().samples.summary();
    out.end_to_end.insert("latency_p50_ms", p50);
    out.end_to_end.insert("latency_p90_ms", p90);
    out.end_to_end.insert("throughput_rps", hi_rps);
    let (attempted, failed, wrong) = plain.counts();
    out.attempted += attempted;
    out.failed += failed;
    out.wrong += wrong;
    out.end_to_end.insert(
        "success_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
    );
    out.end_to_end.insert("peak_rss_mb", server.peak_rss_kib() as f64 / 1024.0);
    plain.print();

    if ctx.trace {
        // The traced half drives a second server started with the per-op
        // profiler on; the untraced `hi` phase above is its baseline.
        server.stop();
        let cache = ctx.work.join("tune-http-traced.json");
        let (traced_server, _) = Server::start(&bin, &cache, &ctx.work, true)?;
        let traced = load.all_phases(&traced_server, seconds, true)?;
        traced_layers(&mut out, &traced_server, &traced)?;
        out.layer("obs.trace_overhead", traced.hi().samples.summary().0 / p50);
        out.layer("bench.spans", traced.spans.len() as f64);
        out.spans_json = Some(traced.spans.to_chrome_json());
    }
    Ok(out)
}

fn traced_layers(out: &mut Outcome, server: &Server, run: &Phases) -> Result<(), String> {
    let (lo_p50, lo_p90, _) = run.lo.samples.summary();
    out.layer("http.lo.latency_p50_ms", lo_p50);
    out.layer("http.lo.latency_p90_ms", lo_p90);
    out.layer("http.max_rate_rps", run.max_rate());
    out.layer("http.saturation_rps", run.saturation.samples.summary().2);
    let phases = [&run.lo, run.hi()];
    out.layer("bench.sent", phases.iter().map(|p| p.sent).sum::<u64>() as f64);
    out.layer("bench.succeeded", phases.iter().map(|p| p.succeeded).sum::<u64>() as f64);
    out.layer("bench.failed", phases.iter().map(|p| p.failed).sum::<u64>() as f64);
    let lag: Vec<f64> = phases.iter().flat_map(|p| p.lag_ms.iter().copied()).collect();
    out.layer("bench.gen_lag_p99_ms", percentile(&lag, 0.99));
    out.layer("bench.backlog_end", phases.iter().map(|p| p.backlog_end).max().unwrap_or(0) as f64);
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    for p in phases {
        for (code, n) in &p.statuses {
            *statuses.entry(*code).or_default() += n;
        }
    }
    let mut other = 0;
    for (code, n) in statuses {
        match code {
            200 | 429 | 503 => out.layer(&format!("http.status.{code}"), n as f64),
            _ => other += n,
        }
    }
    out.layer("http.status.other", other as f64);

    let stats: StatsResponse = get_json(server, &format!("/v1/models/{MODEL_PATH}/stats"))?;
    let s = stats.stats;
    out.layer("serve.queue_wait_p50_ms", s.queue_wait_p50_ms);
    out.layer("serve.queue_wait_p99_ms", s.queue_wait_p99_ms);
    out.layer("serve.batch_assembly_p99_ms", s.batch_assembly_p99_ms);
    out.layer("serve.mean_batch_size", s.mean_batch_size);
    out.layer("serve.rejected", s.rejected as f64);

    let (status, metrics) = http_request(server.addr, "GET", "/metrics", b"")?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    let metrics = String::from_utf8_lossy(&metrics);
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    out.layer("tune.measured_candidates", counter("mnn_tune_measured_candidates_total"));
    out.layer("tune.cache_hits", counter("mnn_tune_cache_hits_total"));

    let stages = &run.waterfall;
    for stage in ["parse", "decode", "inference", "encode", "write"] {
        if let Some(durations) = stages.get(stage) {
            out.layer(&format!("http.{stage}_ms"), median(durations));
        }
    }

    let profile: mnn_http::codec::ProfileResponse =
        get_json(server, &format!("/v1/models/{MODEL_PATH}/profile"))?;
    let mut graph = mnn_models::build(MODEL, 1, SIZE);
    graph.infer_shapes().map_err(|e| e.to_string())?;
    let work = engine::conv_work(&graph);
    let runs = profile.profile.runs as f64;
    let (flops, bytes) = (runs * work.flops, runs * work.bytes);
    // Each serving worker runs one intra-op thread.
    let peak = engine::fma_peak_gflops(1, 200);
    engine::kernel_layers(out, std::slice::from_ref(&profile.profile), flops, bytes, runs, peak);
    let name = MODEL.name().to_ascii_lowercase();
    let inference = stages.get("inference").cloned().unwrap_or_default();
    out.layer(&format!("core.run_ms.{name}.p50"), median(&inference));
    out.layer(&format!("core.run_ms.{name}.p90"), percentile(&inference, 0.90));
    Ok(())
}

fn get_json<T: serde::Deserialize>(server: &Server, path: &str) -> Result<T, String> {
    let (status, body) = http_request(server.addr, "GET", path, b"")?;
    if status != 200 {
        return Err(format!("GET {path}: HTTP {status}"));
    }
    serde_json::from_slice(&body).map_err(|e| format!("GET {path}: {e}"))
}

/// Stage durations (ms) of the last `WATERFALLS` requests among `ids`,
/// fetched one trace at a time while the flight recorder still holds them:
/// the whole ring is megabytes of JSON, which the server's codec takes
/// minutes to render and parse.
fn waterfalls(server: &Server, ids: &[String]) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut stages: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for id in ids.iter().rev().take(WATERFALLS) {
        let traces: TracesResponse = get_json(server, &format!("/v1/traces?id={id}"))?;
        for trace in traces.traces.iter().filter(|t| t.model == MODEL_PATH && t.status == 200) {
            for stage in &trace.stages {
                stages.entry(stage.name.clone()).or_default().push(stage.dur_us / 1e3);
            }
        }
    }
    Ok(stages)
}

/// A running `mnn_http` process; stopped (and waited for) on drop.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait for `/readyz`; returns it with the seconds
    /// from spawn to ready.
    fn start(bin: &Path, cache: &Path, work: &Path, profiling: bool) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let log = std::fs::File::create(work.join("server.log")).map_err(|e| e.to_string())?;
        let mut command = Command::new(bin);
        command
            .args(["--zoo", &format!("{MODEL_PATH}={SIZE}"), "--tuning", "full", "--port", "0"])
            .arg("--tune-cache")
            .arg(cache)
            .env_remove("MNN_TUNE_CACHE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        if profiling {
            command.arg("--profiling");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout")?;
        let (tx, rx) = std::sync::mpsc::channel();
        // Reads the announced address, then drains stdout until the server exits.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("mnn-http listening on http://") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "server did not announce its address".to_string())?;
        server.addr = addr.parse().map_err(|e| format!("server address '{addr}': {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok((200, _)) = http_request(server.addr, "GET", "/readyz", b"") {
                break;
            }
            if Instant::now() > deadline {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let secs = start.elapsed().as_secs_f64();
        Ok((server, secs))
    }

    fn peak_rss_kib(&self) -> u64 {
        self.child
            .as_ref()
            .map_or(0, |c| crate::util::proc_status_kib(&c.id().to_string(), "VmHWM"))
    }

    /// Ask for a graceful drain; kill the process if it has not exited in 15 s.
    fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let _ = http_request(self.addr, "POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(15);
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request/response exchange on a fresh connection.
fn http_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    stream.write_all(body).map_err(|e| e.to_string())?;
    let mut parser = ResponseParser::default();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(reply) = parser.next_response()? {
            return Ok((reply.status, reply.body));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed before a full response".into()),
            Ok(n) => parser.buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Incremental HTTP/1.1 response reader over a byte buffer.
#[derive(Default)]
struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Pop one complete response off the buffer, if there is one.
    fn next_response(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let (mut length, mut request_id) = (0, String::new());
        for (key, value) in lines.filter_map(|l| l.split_once(':')) {
            if key.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            } else if key.trim().eq_ignore_ascii_case("x-request-id") {
                request_id = value.trim().to_string();
            }
        }
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply {
            status,
            body,
            request_id,
        }))
    }
}

/// One HTTP response.
struct Reply {
    status: u16,
    body: Vec<u8>,
    /// The `X-Request-Id` header; the server sets it to the request's trace id.
    request_id: String,
}

/// Full HTTP requests, one per checked input, ready to write.
fn request_bodies(checked: &CheckedInputs) -> Result<Vec<Vec<u8>>, String> {
    checked
        .inputs
        .iter()
        .map(|input| {
            let mut inputs = BTreeMap::new();
            inputs.insert("data".to_string(), TensorJson::from_tensor(input));
            let body = serde_json::to_vec(&InferRequest { inputs }).map_err(|e| e.to_string())?;
            let mut request = format!(
                "POST /v1/models/{MODEL_PATH}/infer HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(&body);
            Ok(request)
        })
        .collect()
}

/// What one phase measured.
#[derive(Debug, Default)]
struct Phase {
    /// Offered rate, requests per second (0 for the saturation phase).
    rate: f64,
    seconds: f64,
    sent: u64,
    succeeded: u64,
    failed: u64,
    wrong: u64,
    /// Per completed request: completion minus due time (minus send time in
    /// the saturation phase).
    samples: Samples,
    /// Send minus due time, per request sent.
    lag_ms: Vec<f64>,
    /// Requests due but not answered when the schedule ended.
    backlog_end: u64,
    statuses: BTreeMap<u16, u64>,
    /// Trace id of every reply, in arrival order per connection.
    request_ids: Vec<String>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.samples.extend(other.samples);
        self.lag_ms.extend(other.lag_ms);
        self.backlog_end += other.backlog_end;
        self.request_ids.extend(other.request_ids);
        for (code, n) in other.statuses {
            *self.statuses.entry(code).or_default() += n;
        }
    }

    fn p95(&self) -> f64 {
        percentile(&self.samples.ms, 0.95)
    }

    fn passes(&self) -> bool {
        self.failed == 0
            && (self.backlog_end as f64) <= self.rate * RUNG_P95_LIMIT_MS / 1e3
            && self.p95() <= RUNG_P95_LIMIT_MS
    }

    fn describe(&self) -> String {
        let (p50, p90, rps) = self.samples.summary();
        format!(
            "{:.0} req/s offered for {:.2} s: sent {}, ok {}, failed {}, p50 {p50:.3} ms, p90 {p90:.3} ms, p95 {:.3} ms, {rps:.1} done/s, gen lag p99 {:.3} ms, backlog at end {}",
            self.rate,
            self.seconds,
            self.sent,
            self.succeeded,
            self.failed,
            self.p95(),
            percentile(&self.lag_ms, 0.99),
            self.backlog_end
        )
    }
}

/// Every phase of one pass over the server.
struct Phases {
    spans: Spans,
    /// Stage durations (ms) of sampled `hi` requests; traced passes only.
    waterfall: BTreeMap<String, Vec<f64>>,
    lo: Phase,
    /// The `hi` phase, then each rung climbed above it.
    ladder: Vec<Phase>,
    saturation: Phase,
}

impl Phases {
    fn hi(&self) -> &Phase {
        &self.ladder[0]
    }

    /// `(attempted, failed, wrong)` over every measured phase.
    fn counts(&self) -> (u64, u64, u64) {
        let all = || std::iter::once(&self.lo).chain(&self.ladder).chain([&self.saturation]);
        (
            all().map(|p| p.sent).sum(),
            all().map(|p| p.failed).sum(),
            all().map(|p| p.wrong).sum(),
        )
    }

    /// The offered rate at which p95 latency reaches the limit, interpolated
    /// between the last passing rung and the first failing one (`hi` is the
    /// bottom rung). A rung that failed on errors or backlog rather than
    /// latency caps the rate at the rung below it.
    fn max_rate(&self) -> f64 {
        for pair in self.ladder.windows(2) {
            let (below, above) = (&pair[0], &pair[1]);
            if above.passes() {
                continue;
            }
            let (lo, hi) = (below.p95(), above.p95());
            if hi <= RUNG_P95_LIMIT_MS || hi <= lo {
                return below.rate;
            }
            let t = ((RUNG_P95_LIMIT_MS - lo) / (hi - lo)).clamp(0.0, 1.0);
            return below.rate + t * (above.rate - below.rate);
        }
        self.ladder.last().map_or(HI_RPS, |r| r.rate)
    }

    fn print(&self) {
        println!("http_open lo:  {}", self.lo.describe());
        println!("http_open hi:  {}", self.hi().describe());
        for rung in &self.ladder[1..] {
            println!("http_open ladder: {}", rung.describe());
        }
        println!(
            "http_open saturation ({SATURATION_DEPTH} in flight per connection): {}",
            self.saturation.describe()
        );
        println!(
            "http_open: max rate {:.1} req/s at p95 limit {RUNG_P95_LIMIT_MS} ms",
            self.max_rate()
        );
    }
}

struct Load<'a> {
    bodies: &'a [Vec<u8>],
    checked: &'a CheckedInputs,
    seed: u64,
    connections: usize,
}

impl Load<'_> {
    /// Warm-up, `lo`, `hi`, the ladder above `hi`, then saturation, within
    /// `seconds`.
    fn all_phases(&self, server: &Server, seconds: f64, traced: bool) -> Result<Phases, String> {
        let mut spans = Spans::new(traced);
        let mut conns = (0..self.connections)
            .map(|_| {
                let s = TcpStream::connect(server.addr).map_err(|e| e.to_string())?;
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                Ok(s)
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.phase(&mut conns, "warmup", LO_RPS, (seconds * 0.05).min(0.5), None, &mut spans)?;
        let lo = self.valid_phase(&mut conns, "lo", LO_RPS, seconds * 0.10, &mut spans)?;
        let hi = self.valid_phase(&mut conns, "hi", HI_RPS, seconds * 0.55, &mut spans)?;
        let waterfall = if traced {
            waterfalls(server, &hi.request_ids)?
        } else {
            BTreeMap::new()
        };
        let rung_seconds = seconds * 0.10 / LADDER_RPS.len() as f64;
        let mut ladder = vec![hi];
        for rate in LADDER_RPS {
            let rung = self.phase(&mut conns, &format!("rung{rate}"), rate, rung_seconds, None, &mut spans)?;
            let passed = rung.passes();
            ladder.push(rung);
            if !passed {
                break;
            }
        }
        let saturation = self.phase(
            &mut conns,
            "saturation",
            0.0,
            seconds * 0.20,
            Some(SATURATION_DEPTH),
            &mut spans,
        )?;
        Ok(Phases {
            spans,
            waterfall,
            lo,
            ladder,
            saturation,
        })
    }

    /// An open-loop phase whose generator kept to its schedule.
    fn valid_phase(
        &self,
        conns: &mut [TcpStream],
        name: &str,
        rate: f64,
        seconds: f64,
        spans: &mut Spans,
    ) -> Result<Phase, String> {
        let mut lag = 0.0;
        for attempt in 0..PHASE_ATTEMPTS {
            let phase = self.phase(conns, &format!("{name}{attempt}"), rate, seconds, None, spans)?;
            lag = percentile(&phase.lag_ms, 0.90);
            if lag <= MAX_GEN_LAG_P90_MS {
                return Ok(phase);
            }
            eprintln!("http_open: {name} phase invalid (generator send lag p90 {lag:.2} ms); repeating");
        }
        Err(format!(
            "run invalid: the generator fell behind in the {name} phase (send lag p90 {lag:.2} ms > {MAX_GEN_LAG_P90_MS} ms)"
        ))
    }

    /// One phase of `seconds`: Poisson arrivals at `rate`, split evenly over
    /// the connections, or with `depth`, a closed pipeline keeping that many
    /// requests in flight per connection. Ends once every request is answered.
    fn phase(
        &self,
        conns: &mut [TcpStream],
        name: &str,
        rate: f64,
        seconds: f64,
        depth: Option<usize>,
        spans: &mut Spans,
    ) -> Result<Phase, String> {
        let start = Instant::now() + Duration::from_millis(2);
        let tracing = spans.enabled();
        let results: Vec<Result<(Phase, Spans), String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let mut rng = Rng::stream(self.seed, &format!("http/{name}/{c}"));
                    let mut due = Vec::new();
                    match depth {
                        // Send times come from the pipeline; only inputs are drawn.
                        Some(_) => due.extend((0..100_000).map(|_| (0.0, rng.below(self.bodies.len())))),
                        None => {
                            let per_conn = rate / self.connections as f64;
                            let mut t = 0.0;
                            loop {
                                t += -(1.0 - rng.unit()).ln() / per_conn;
                                if t >= seconds {
                                    break;
                                }
                                due.push((t, rng.below(self.bodies.len())));
                            }
                        }
                    }
                    let id = c as u64;
                    scope.spawn(move || self.drive(conn, &due, depth, start, seconds, id, tracing))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|_| Err("generator thread panicked".into())))
                .collect()
        });
        let mut phase = Phase {
            rate,
            seconds,
            ..Phase::default()
        };
        for result in results {
            let (part, part_spans) = result?;
            phase.merge(part);
            spans.absorb(part_spans);
        }
        phase.samples.elapsed_s = seconds;
        Ok(phase)
    }

    /// Send `due` over `conn` while reading replies in order: on schedule,
    /// or with `depth`, whenever fewer than `depth` requests are in flight
    /// and the phase has not ended. The socket is non-blocking and the thread
    /// sleeps in `ppoll`, whose timeout has sub-millisecond precision, until
    /// the next send is due or the socket is ready; a large request is
    /// written in pieces between reads.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        conn: &mut TcpStream,
        due: &[(f64, usize)],
        depth: Option<usize>,
        start: Instant,
        seconds: f64,
        connection: u64,
        tracing: bool,
    ) -> Result<(Phase, Spans), String> {
        conn.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut spans = Spans::new_at(tracing, start);
        let mut phase = Phase::default();
        let mut parser = ResponseParser::default();
        // (due offset, input, send instant, request id) per request in flight.
        let mut in_flight: VecDeque<(f64, usize, Instant, u64)> = VecDeque::new();
        // The request being written: (input, bytes written so far).
        let mut writing: Option<(usize, usize)> = None;
        let mut chunk = vec![0u8; 64 * 1024];
        // Replies are checked after the phase, so decoding them takes no
        // processor time from the server while it is measured.
        let mut replies: Vec<(usize, Reply)> = Vec::new();
        let end = start + Duration::from_secs_f64(seconds);
        let give_up = end + IO_TIMEOUT;
        let due_at = |i: usize| start + Duration::from_secs_f64(due[i].0);
        let mut backlog_counted = false;
        let mut next = 0;
        loop {
            let now = Instant::now();
            let more = next < due.len() && (depth.is_none() || now < end);
            if !more && in_flight.is_empty() {
                break;
            }
            if !backlog_counted && now >= end {
                phase.backlog_end = in_flight.len() as u64;
                backlog_counted = true;
            }
            if now > give_up {
                phase.failed += in_flight.len() as u64;
                break;
            }
            let mut progressed = false;
            let send_now = match depth {
                Some(d) => in_flight.len() < d,
                None => now >= due_at(next.min(due.len().saturating_sub(1))),
            };
            if writing.is_none() && more && send_now {
                let (mut at, input) = due[next];
                if depth.is_some() {
                    at = now.saturating_duration_since(start).as_secs_f64();
                } else {
                    phase.lag_ms.push(now.duration_since(due_at(next)).as_secs_f64() * 1e3);
                }
                phase.sent += 1;
                in_flight.push_back((at, input, now, connection << 32 | next as u64));
                writing = Some((input, 0));
                next += 1;
            }
            if let Some((input, written)) = writing {
                let bytes = &self.bodies[input];
                match conn.write(&bytes[written..]) {
                    Ok(n) => {
                        progressed = n > 0;
                        writing = (written + n < bytes.len()).then_some((input, written + n));
                        if writing.is_none() {
                            if let Some(&(_, _, sent, id)) = in_flight.back() {
                                spans.record("http.write_request", sent, Instant::now(), id);
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            match conn.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    parser.buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            while let Some(reply) = parser.next_response()? {
                let done = Instant::now();
                let (at, input, sent, id) = in_flight
                    .pop_front()
                    .ok_or("a response arrived with no request in flight")?;
                spans.record("http.await_response", sent, done, id);
                phase.request_ids.push(reply.request_id.clone());
                replies.push((input, reply));
                let due_instant = start + Duration::from_secs_f64(at);
                phase.samples.push(
                    done.saturating_duration_since(start).as_secs_f64(),
                    done.saturating_duration_since(due_instant).as_secs_f64() * 1e3,
                );
            }
            if !progressed {
                // A write in progress or a full pipeline waits on the socket.
                let wait = if writing.is_some() || depth.is_some() {
                    Duration::from_millis(5)
                } else if more {
                    due_at(next).saturating_duration_since(Instant::now())
                } else {
                    Duration::from_millis(50)
                };
                wait_io(conn, writing.is_some(), wait).map_err(|e| format!("poll: {e}"))?;
            }
        }
        conn.set_nonblocking(false).map_err(|e| e.to_string())?;
        for (input, reply) in replies {
            *phase.statuses.entry(reply.status).or_default() += 1;
            if reply.status == 200 && self.output_ok(&reply.body, input) {
                phase.succeeded += 1;
            } else {
                phase.failed += 1;
                phase.wrong += u64::from(reply.status == 200);
            }
        }
        Ok((phase, spans))
    }

    fn output_ok(&self, body: &[u8], input: usize) -> bool {
        serde_json::from_slice::<InferResponse>(body).is_ok_and(|r| {
            r.outputs
                .first()
                .is_some_and(|o| engine::output_matches(&o.data, &self.checked.references[input]))
        })
    }
}

/// Sleep until `stream` is readable (or writable, when `write`), or until
/// `timeout` passes, whichever is first.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_io(stream: &TcpStream, write: bool, timeout: Duration) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec and no signal mask; the
    // layouts match the 64-bit Linux ABI this function is compiled for.
    let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if r < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Portable fallback: a short sleep, after which the caller retries.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_io(_stream: &TcpStream, _write: bool, timeout: Duration) -> std::io::Result<()> {
    std::thread::sleep(timeout.min(Duration::from_micros(100)));
    Ok(())
}
