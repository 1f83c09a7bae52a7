//! The `serve-fuzz` workload: weak-mode traffic from the validation
//! fuzzer's program generator against `polyinv serve`, closed loop over a
//! fixed number of connections.
//!
//! Requests draw fresh programs from a seeded stream of distinct sources
//! (many more than the server's 256-entry result cache holds) and repeat a
//! fixed share of recently sent ones, so cache hits, misses and evictions
//! all occur within a run.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polyinv::SolvePlan;
use polyinv_api::{Engine, Json, ReportStatus, SynthesisReport, SynthesisRequest};
use polyinv_server::http_request;
use polyinv_validate::{generate_program, GenConfig};

use crate::layers::{Origin, SolveCounts, Spans};
use crate::measure::{self, Rng};
use crate::solve::{serve_weak, Checks, Class};
use crate::{Args, Measured, Sample, ServerFigures};

/// Worker threads of the server.
const WORKERS: usize = 2;
/// Client connections (capped at the core count).
const CONNECTIONS: usize = 2;
/// Generator seed of the first program of the fresh stream.
const POOL_SEED: u64 = 20_200_615;
/// The seed shuffles the fresh stream within blocks of this many programs.
const SHUFFLE_BLOCK: usize = 32;
/// Requests per second of `--seconds`: about the rate served on two cores
/// when the benchmark was defined (19–23 requests/s). Runs do fixed work,
/// so a faster server finishes sooner.
const NOMINAL_REQUESTS_PER_S: f64 = 20.0;
/// Share of requests that repeat a recent program, in percent.
const REPEAT_PERCENT: usize = 30;
/// A repeat picks one of the `REPEAT_WINDOW` fresh programs sent at least
/// `REPEAT_LAG` requests earlier, so it is cached by the time it is sent.
const REPEAT_WINDOW: usize = 64;
const REPEAT_LAG: usize = 16;
/// Served programs re-run in process per run: compared with `Engine::run`
/// in canonical form, and their certified maps verdict-checked.
const SAMPLED_CHECKS: usize = 12;
/// Server starts per run; `setup_s` is their median. The first
/// `STARTS_BEFORE` come before the load (the last of them serves it), the
/// rest after it, so one slow stretch of a shared machine moves the median
/// little.
const SETUP_REPEATS: usize = 17;
const STARTS_BEFORE: usize = 9;
/// Programs of the fixed stream whose certified map seeded traces refute at
/// the commit that added the benchmark (see `KNOWN_REFUTED_ROWS`). Their
/// wrong verdicts are named and counted in `error_ratio` without failing
/// the run; a refuted map of any other program fails it.
const KNOWN_REFUTED_FUZZ: [usize; 6] = [15, 34, 119, 169, 307, 541];
/// Per-request socket timeout.
const TIMEOUT: Duration = Duration::from_secs(120);

/// A running `polyinv serve` child.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits until `/healthz`
    /// answers 200.
    fn start(polyinv: &Path) -> Result<Server, String> {
        let mut child = Command::new(polyinv)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|error| format!("cannot start {}: {error}", polyinv.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let addr = match read_listen_addr(&mut stderr) {
            Ok(addr) => addr,
            Err(error) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(error);
            }
        };
        // Keep draining stderr so the server's shutdown summary never
        // blocks or fails on a closed pipe.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        let mut server = Server {
            child,
            addr,
            stderr: Some(drain),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http_request(addr, "GET", "/healthz", None, Duration::from_secs(5)) {
                Ok(response) if response.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    server.kill();
                    return Err("server never answered /healthz".to_string());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn metrics(&self) -> Result<Json, String> {
        let response = http_request(self.addr, "GET", "/metrics", None, TIMEOUT)
            .map_err(|error| format!("GET /metrics: {error}"))?;
        Json::parse(&response.body).map_err(|error| format!("/metrics body: {error}"))
    }

    /// Drains the server and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = http_request(self.addr, "POST", "/shutdown", None, TIMEOUT);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(drain) = self.stderr.take() {
                        let _ = drain.join();
                    }
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    self.kill();
                    return Err("server did not drain within 60 s".to_string());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    /// A run that ends early on an error still leaves no server behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Reads the server's `listening on http://ADDR` line.
fn read_listen_addr(stderr: &mut BufReader<ChildStderr>) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        let read = stderr
            .read_line(&mut line)
            .map_err(|error| format!("server stderr: {error}"))?;
        if read == 0 {
            return Err("server exited before listening".to_string());
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            return addr
                .parse()
                .map_err(|error| format!("bad listen address `{addr}`: {error}"));
        }
    }
}

/// The inputs: distinct program sources and the request plan over them.
/// Fresh programs come from one fixed generator stream, so every run
/// serves the same programs whatever its seed (a stream drawn per seed
/// moved the median latency by a fifth between seeds); the seed shuffles
/// the stream within blocks of `SHUFFLE_BLOCK`, places the repeats — a
/// fixed share of every block of ten requests — and picks what they repeat.
fn build_inputs(seed: u64, requests: usize) -> (Vec<String>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let repeats_per_ten = REPEAT_PERCENT / 10;
    let mut repeat_at = Vec::with_capacity(requests);
    while repeat_at.len() < requests {
        let mut block = [false; 10];
        block[..repeats_per_ten].fill(true);
        rng.shuffle(&mut block);
        repeat_at.extend(block);
    }
    // Early repeats fall back to fresh programs until enough have been sent,
    // so up to every request may need one.
    let fresh_needed = requests;

    let config = GenConfig::default();
    let mut sources = Vec::with_capacity(fresh_needed);
    let mut seen = HashSet::new();
    let mut program_seed = POOL_SEED;
    while sources.len() < fresh_needed.next_multiple_of(SHUFFLE_BLOCK) {
        let program = generate_program(program_seed, &config);
        program_seed += 1;
        if seen.insert(program.source.clone()) {
            sources.push(program.source);
        }
    }
    let mut order: Vec<usize> = (0..sources.len()).collect();
    for block in order.chunks_mut(SHUFFLE_BLOCK) {
        rng.shuffle(block);
    }

    let mut plan = Vec::with_capacity(requests);
    // (plan position, program) of every fresh send, in order.
    let mut fresh: Vec<(usize, usize)> = Vec::new();
    for &repeat in &repeat_at[..requests] {
        let eligible = fresh
            .iter()
            .rposition(|&(at, _)| at + REPEAT_LAG <= plan.len())
            .map_or(0, |last| last + 1);
        let program = if repeat && eligible > 0 {
            fresh[eligible - 1 - rng.below(eligible.min(REPEAT_WINDOW))].1
        } else {
            let program = order[fresh.len()];
            fresh.push((plan.len(), program));
            program
        };
        plan.push(program);
    }
    (sources, plan)
}

/// The request a program is sent as (the id is per program, so a cached
/// body equals the body it was cached from).
fn request_for(program: usize, source: &str) -> SynthesisRequest {
    SynthesisRequest::weak(source).with_id(format!("fuzz-{program}"))
}

/// What one client saw for one request.
struct Exchange {
    program: usize,
    start: f64,
    latency: f64,
    parse_replay: Option<f64>,
    response: Result<(u16, bool, String), String>,
}

/// Sends the plan over `connections` closed-loop clients. Returns what the
/// clients saw, the server's CPU over the window and the window's length.
fn drive(
    args: &Args,
    server: &Server,
    connections: usize,
    sources: &[String],
    plan: &[usize],
    pid: &str,
) -> (Vec<Exchange>, f64, f64) {
    let next = AtomicUsize::new(0);
    let server_cpu = || measure::cpu_seconds(pid).unwrap_or(0.0);
    let cpu_start = server_cpu();
    let epoch = Instant::now();
    let exchanges: Vec<Exchange> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&program) = plan.get(index) else {
                            break;
                        };
                        let source = &sources[program];
                        let parse_replay = args.trace.then(|| {
                            let start = Instant::now();
                            let parsed = polyinv_lang::parse_program(source);
                            std::hint::black_box(&parsed);
                            measure::since(start)
                        });
                        let body = request_for(program, source).to_json().to_string();
                        let start = measure::since(epoch);
                        let sent = Instant::now();
                        let response =
                            http_request(server.addr, "POST", "/v1/synth", Some(&body), TIMEOUT)
                                .map(|response| {
                                    let hit = response.header("x-polyinv-cache") == Some("hit");
                                    (response.status, hit, response.body)
                                })
                                .map_err(|error| error.to_string());
                        seen.push(Exchange {
                            program,
                            start,
                            latency: measure::since(sent),
                            parse_replay,
                            response,
                        });
                    }
                    seen
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = measure::since(epoch);
    (exchanges, server_cpu() - cpu_start, window_s)
}

/// Runs `serve-fuzz`.
pub fn run(args: &Args) -> Result<Measured, String> {
    // Fixed work: the request count is `--seconds` at the nominal rate.
    let requests = ((args.seconds * NOMINAL_REQUESTS_PER_S).round() as usize).max(1);
    let (sources, plan) = build_inputs(args.seed, requests);

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let start_server = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let started = Server::start(&args.polyinv)?;
        setup_s.push(measure::since(start));
        Ok::<Server, String>(started)
    };
    for _ in 1..STARTS_BEFORE {
        start_server(&mut setup_s)?.stop()?;
    }
    let server = start_server(&mut setup_s)?;
    let pid = server.pid();
    let before = server.metrics()?;

    let connections = CONNECTIONS.min(args.nproc).max(1);
    let (exchanges, cpu_s, window_s) = drive(args, &server, connections, &sources, &plan, &pid);
    let peak_rss_mb = measure::peak_rss_mb(&pid).unwrap_or(0.0);
    let after = server.metrics()?;
    server.stop()?;
    for _ in STARTS_BEFORE..SETUP_REPEATS {
        start_server(&mut setup_s)?.stop()?;
    }

    // Tally, check bodies, trace.
    let mut samples = Vec::with_capacity(exchanges.len());
    let mut wrong = Vec::new();
    // Programs answered per request, for the known wrong verdicts.
    let mut answered_programs = Vec::with_capacity(exchanges.len());
    let mut miss_bodies: HashMap<usize, Vec<&str>> = HashMap::new();
    let mut hits: Vec<(usize, &str)> = Vec::new();
    let mut reports: HashMap<usize, SynthesisReport> = HashMap::new();
    let mut spans = Spans::default();
    let mut counts = SolveCounts::default();
    let mut cache_hits = 0usize;
    for (id, exchange) in exchanges.iter().enumerate() {
        let label = format!("fuzz-{}", exchange.program);
        let mut sample = Sample {
            label: label.clone(),
            latency: exchange.latency,
            synthesized: false,
            failure: None,
        };
        let root = args.trace.then(|| {
            spans.push(
                "request",
                exchange.start,
                exchange.start + exchange.latency,
                None,
                id as u64,
                Origin::Bench,
            )
        });
        match &exchange.response {
            Err(error) => sample.failure = Some(format!("{label}: dropped: {error}")),
            Ok((status, _, body)) if *status != 200 => {
                sample.failure = Some(format!("{label}: HTTP {status}: {}", body.trim_end()));
            }
            Ok((_, hit, body)) => match parse_canonical(body) {
                Err(reason) => sample.failure = Some(format!("{label}: {reason}")),
                Ok(report) => {
                    answered_programs.push(exchange.program);
                    sample.synthesized = report.status == ReportStatus::Synthesized;
                    if !matches!(
                        report.status,
                        ReportStatus::Synthesized | ReportStatus::Failed
                    ) {
                        wrong.push(format!(
                            "{label}: weak request answered `{}`",
                            report.status
                        ));
                    }
                    if *hit {
                        cache_hits += 1;
                        hits.push((exchange.program, body.as_str()));
                    } else {
                        miss_bodies.entry(exchange.program).or_default().push(body);
                        counts.add(
                            report.system_size,
                            report.num_unknowns,
                            report.solver.as_ref(),
                            report.presolve.as_ref(),
                            report.orchestrator.as_ref(),
                        );
                        if let Some(root) = root {
                            let mut cursor = exchange.start;
                            if let Some(parse) = exchange.parse_replay {
                                let id = id as u64;
                                spans.push(
                                    "lang.parse",
                                    cursor,
                                    cursor + parse,
                                    Some(root),
                                    id,
                                    Origin::Replay,
                                );
                                cursor += parse;
                            }
                            let history = report
                                .orchestrator
                                .as_ref()
                                .map(|record| record.history.clone())
                                .unwrap_or_default();
                            spans.push_reported(root, cursor, &report.timings, &history);
                        }
                        reports.entry(exchange.program).or_insert(report);
                    }
                }
            },
        }
        samples.push(sample);
    }
    for (program, body) in &hits {
        let matches = miss_bodies
            .get(program)
            .is_some_and(|bodies| bodies.iter().any(|miss| miss == body));
        if !matches && miss_bodies.contains_key(program) {
            wrong.push(format!(
                "fuzz-{program}: cache-hit body differs from every miss body"
            ));
        }
    }

    let mut sampled = check_sample(args, &sources, &reports);
    sampled.checks.wrong.extend(wrong);
    let known_wrong_requests = answered_programs
        .iter()
        .filter(|program| sampled.known_wrong.contains(program))
        .count();

    let delta = |name: &str| {
        after.get(name).and_then(Json::as_f64).unwrap_or(0.0)
            - before.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    };
    let answered = samples.iter().filter(|s| s.failure.is_none()).count();
    let figures = ServerFigures {
        service_s: delta("synth_latency_seconds_sum"),
        synth_requests: delta("synth_requests"),
        rejected: delta("rejected"),
        dropped: delta("dropped"),
        evictions: delta("cache_evictions"),
        hit_ratio: crate::layers::ratio(cache_hits as f64, answered as f64),
    };
    let count = |value: usize| Json::Number(value as f64);
    let record = vec![
        ("connections", count(connections)),
        ("server_workers", count(WORKERS)),
        ("repeat_percent", count(REPEAT_PERCENT)),
        ("sampled_in_process", count(sampled.compared)),
        ("maps_checked", count(sampled.checks.checked())),
        ("known_refuted_maps", count(sampled.known_wrong.len())),
        ("cache_hits", count(cache_hits)),
        ("cache_evictions", Json::Number(figures.evictions)),
    ];
    let mut layers = counts.metrics();
    if args.trace {
        layers.extend(crate::probe::ldl_factor_metrics());
    }
    Ok(Measured {
        samples,
        window_s,
        cpu_s,
        setup_s,
        peak_rss_mb,
        checks: sampled.checks,
        known_wrong_requests,
        record,
        layers,
        spans,
        server: Some(figures),
    })
}

/// Outcome of the in-process checks of a sample of served programs.
#[derive(Default)]
struct SampleChecks {
    compared: usize,
    checks: Checks,
    /// Sampled programs whose map is a known wrong verdict.
    known_wrong: Vec<usize>,
}

/// Re-runs a seeded sample of the served programs in process: each report
/// must equal `Engine::run` in canonical form, and each certified map goes
/// through the verdict check.
fn check_sample(
    args: &Args,
    sources: &[String],
    reports: &HashMap<usize, SynthesisReport>,
) -> SampleChecks {
    let engine = Engine::new();
    let mut rng = Rng::new(args.seed ^ 0xc0ff_ee00);
    let mut candidates: Vec<usize> = reports.keys().copied().collect();
    candidates.sort_unstable();
    rng.shuffle(&mut candidates);
    let mut checks = SampleChecks::default();
    for program in candidates.into_iter().take(SAMPLED_CHECKS) {
        let served = &reports[&program];
        let request = request_for(program, &sources[program]);
        match engine.run(&request) {
            Ok(local) => {
                checks.compared += 1;
                if local.canonical().to_json_string() != served.clone().canonical().to_json_string()
                {
                    checks.checks.wrong.push(format!(
                        "fuzz-{program}: served report differs from in-process Engine::run \
                         (canonical form)"
                    ));
                }
            }
            Err(error) => {
                checks.checks.wrong.push(format!(
                    "fuzz-{program}: served a report, Engine::run fails: {error}"
                ));
                continue;
            }
        }
        if served.status != ReportStatus::Synthesized {
            continue;
        }
        // The report does not carry the certified assignment; the same
        // public calls the Engine makes give it back.
        let budget = request.solve_budget_seconds;
        let local = match serve_weak(
            &engine,
            &request,
            |options| SolvePlan::new(options).with_solve_budget(budget),
            None,
        ) {
            Ok(local) => local,
            Err(error) => {
                checks
                    .checks
                    .wrong
                    .push(format!("fuzz-{program}: in-process solve fails: {error}"));
                continue;
            }
        };
        let known = KNOWN_REFUTED_FUZZ.contains(&program);
        let label = format!("fuzz-{program}");
        if checks.checks.check(&label, known, &local, args.seed) == Class::KnownWrong {
            checks.known_wrong.push(program);
        }
    }
    checks
}

/// Parses a 200 body as a report and requires canonical JSON (it must
/// re-serialize byte for byte).
fn parse_canonical(body: &str) -> Result<SynthesisReport, String> {
    let trimmed = body.trim_end_matches('\n');
    let report = SynthesisReport::from_json_str(trimmed)
        .map_err(|error| format!("body is not a report: {error}"))?;
    if report.to_json_string() != trimmed {
        return Err("body is not canonical report JSON".to_string());
    }
    Ok(report)
}
