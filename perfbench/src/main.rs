//! `polyinv-perfbench` — the repository benchmark (BENCHMARK.json).
//!
//! ```text
//! polyinv-perfbench --polyinv PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads, all closed loop:
//!
//! * `table-rung0` — the 17 Table 2/3 rows that certify on the ϒ = 0 rung,
//!   weak mode with the Engine's default plan and a 120 s budget, one
//!   client, whole passes in seed-shuffled order;
//! * `rung2-fixed-work` — recursive-sum and lcm1 at ϒ = 2 through
//!   `Orchestrator::solve` with every wall-clock limit off, so each solve
//!   does identical work;
//! * `serve-fuzz` — fuzzer programs in weak mode against `polyinv serve`
//!   over two connections, with repeats that exercise the result cache.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it records spans and prints the per-layer metrics, each
//! layer's self time, and the tracing overhead against the last untraced
//! run of the workload. Every certified map is re-checked (exact record
//! plus 1000 seeded traces). A wrong verdict fails the run, unless it is a
//! map on the workload's list of maps known to be refuted at the commit
//! that added the benchmark: those are named and counted in `error_ratio`,
//! and the run passes. The last stdout line is the result object.

mod layers;
mod measure;
mod probe;
mod serve;
mod solve;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use layers::{ratio, Spans, ADDITIVE_LAYERS};
use polyinv_api::Json;

/// Output directory for span dumps and untraced-run summaries, relative to
/// the repository root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Metrics the traced run prints as facts without listing them in
/// BENCHMARK.json: they have no better direction (which lane won or set
/// the pace) or describe the trace itself.
const TRACE_FACTS: [(&str, &str); 5] = [
    ("qcqp.lm_win_ratio", "ratio"),
    ("core.lm_critical_ratio", "ratio"),
    ("trace.layer_sum_s", "s"),
    ("trace.spans", "count"),
    ("trace.requests", "count"),
];

/// A metric as BENCHMARK.json lists it.
struct Listed {
    name: String,
    unit: String,
}

/// The metric names and units under `key` (`end_to_end` or `per_layer`)
/// of BENCHMARK.json, which the benchmark runs next to.
fn listed(key: &str) -> Result<Vec<Listed>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|error| format!("cannot read BENCHMARK.json: {error}"))?;
    let json =
        polyinv_api::Json::parse(&text).map_err(|error| format!("BENCHMARK.json: {error}"))?;
    let items = json
        .get(key)
        .and_then(polyinv_api::Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    items
        .iter()
        .map(|item| {
            let field = |name: &str| {
                item.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json `{key}` entry without `{name}`"))
            };
            Ok(Listed {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub polyinv: PathBuf,
    pub nproc: usize,
    pub threads: usize,
}

/// One request as a workload tallies it.
pub struct Sample {
    pub label: String,
    pub latency: f64,
    pub synthesized: bool,
    /// A failed operation: API error, panic, non-2xx or dropped response.
    pub failure: Option<String>,
}

/// Server-side counters of a served run (`/metrics` deltas).
pub struct ServerFigures {
    pub service_s: f64,
    pub synth_requests: f64,
    pub rejected: f64,
    pub dropped: f64,
    pub evictions: f64,
    pub hit_ratio: f64,
}

/// What a workload run measured.
pub struct Measured {
    pub samples: Vec<Sample>,
    /// The measured time: the time spent in requests (in process) or the
    /// length of the served load.
    pub window_s: f64,
    /// User plus system CPU of the synthesizing process over `window_s`.
    pub cpu_s: f64,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// The verdict checks: wrong and unchecked verdicts fail the run; known
    /// wrong verdicts are named and counted in `error_ratio` only.
    pub checks: solve::Checks,
    /// Requests answered with a known wrong verdict.
    pub known_wrong_requests: usize,
    /// Extra run-record entries.
    pub record: Vec<(&'static str, Json)>,
    /// Non-additive per-layer metrics.
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Spans,
    pub server: Option<ServerFigures>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut polyinv = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--polyinv" => polyinv = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pin the solver's thread budget to at most the core count (and export
    // it to the server child) so runs on different machines say what they
    // ran with. On `table-rung0` the penalty lane runs beside the LM lane's
    // restart threads for most of every race, so the budget there leaves it
    // a core: the busy threads never outnumber the cores.
    let default_threads = if workload.as_deref() == Some("table-rung0") {
        nproc.saturating_sub(1).max(1)
    } else {
        nproc
    };
    let threads = std::env::var("POLYINV_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map_or(default_threads, |n| n.min(nproc));
    std::env::set_var("POLYINV_THREADS", threads.to_string());
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        polyinv: polyinv.ok_or("--polyinv is required")?,
        nproc,
        threads,
    })
}

/// The commit the checkout was made from, read from `.git` when present.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|commit| commit.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("unresolved {reference}")),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|name| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON array of strings.
pub fn strings<S: AsRef<str>>(items: &[S]) -> Json {
    Json::Array(
        items
            .iter()
            .map(|item| Json::string(item.as_ref()))
            .collect(),
    )
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_string(),
                    Json::object(vec![
                        ("value", Json::Number(*value)),
                        ("unit", Json::string(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let listed = match listed(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(listed) => listed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload.as_str() {
        "table-rung0" => solve::run(solve::Kind::TableRung0, &args),
        "rung2-fixed-work" => solve::run(solve::Kind::Rung2FixedWork, &args),
        "serve-fuzz" => serve::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (table-rung0, rung2-fixed-work, serve-fuzz)"
        )),
    };
    let measured = match measured {
        Ok(measured) => measured,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    report(&args, &listed, measured)
}

/// Prints the run and its result line; the exit code is non-zero when any
/// operation failed or any verdict was wrong.
fn report(args: &Args, listed: &[Listed], measured: Measured) -> ExitCode {
    let attempted = measured.samples.len();
    let errors: Vec<&String> = measured
        .samples
        .iter()
        .filter_map(|sample| sample.failure.as_ref())
        .collect();
    let checks = &measured.checks;
    let failed = (errors.len() + checks.wrong.len() + checks.unchecked.len()).min(attempted);
    let error_ratio = ratio(
        (failed + measured.known_wrong_requests).min(attempted) as f64,
        attempted as f64,
    );
    let answered: Vec<&Sample> = measured
        .samples
        .iter()
        .filter(|sample| sample.failure.is_none())
        .collect();
    let latencies: Vec<f64> = answered.iter().map(|sample| sample.latency).collect();
    let (tail, tail_percentile, beyond) = measure::tail(&latencies);
    let certified = answered.iter().filter(|sample| sample.synthesized).count();
    let mean_latency = ratio(latencies.iter().sum(), latencies.len() as f64);
    let programs_per_s = ratio(latencies.len() as f64, measured.window_s);
    let cpu_per_program = ratio(measured.cpu_s, latencies.len() as f64);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} · seed {} · {:.2} s measured · {} request(s) · {} failed · trace {}",
        args.workload,
        args.seed,
        measured.window_s,
        attempted,
        failed,
        u8::from(args.trace)
    );
    for problem in errors
        .iter()
        .map(|e| format!("failed operation: {e}"))
        .chain(checks.wrong.iter().map(|w| format!("wrong verdict: {w}")))
        .chain(
            checks
                .unchecked
                .iter()
                .map(|u| format!("unchecked map: {u}")),
        )
        .chain(
            checks
                .known_wrong
                .iter()
                .map(|k| format!("known wrong verdict (does not fail the run): {k}")),
        )
    {
        let _ = writeln!(out, "  {problem}");
    }

    let computed: Vec<(&str, f64)> = if args.trace {
        let layers = per_layer(&measured, attempted);
        print_layers(&mut out, args, listed, &layers, mean_latency);
        write_spans(args, &measured.spans);
        layers
    } else {
        let end_to_end = vec![
            ("latency_p50_s", measure::median(&latencies)),
            ("latency_tail_s", tail),
            ("programs_per_s", programs_per_s),
            ("certified_ratio", ratio(certified as f64, attempted as f64)),
            ("cpu_s_per_program", cpu_per_program),
            ("peak_rss_mb", measured.peak_rss_mb),
            ("setup_s", measure::median(&measured.setup_s)),
            ("error_ratio", error_ratio),
        ];
        for (name, value) in &end_to_end {
            let unit = listed
                .iter()
                .find(|metric| metric.name == *name)
                .map_or("ratio", |metric| metric.unit.as_str());
            let _ = writeln!(out, "  {name:<20} {value:>14.6} {unit}");
        }
        let _ = writeln!(
            out,
            "  latency_tail_s is p{tail_percentile:.1} of {} sample(s) ({beyond} beyond it)",
            latencies.len()
        );
        remember_untraced(args, mean_latency);
        end_to_end
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for metric in listed {
        let Some((_, value)) = computed.iter().find(|(name, _)| *name == metric.name) else {
            eprintln!(
                "perfbench: BENCHMARK.json lists `{}`, which this run does not compute",
                metric.name
            );
            return ExitCode::from(2);
        };
        metrics.push((metric.name.as_str(), *value, metric.unit.as_str()));
    }
    let correct = failed == 0 && attempted > 0;
    let record = run_record(args, &measured, tail_percentile, beyond, latencies.len());
    print!("{out}");
    println!("{}", Json::object(vec![("run_record", record)]));
    let result = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(attempted as f64)),
        ("failed", Json::Number(failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Machine and run facts printed next to the metrics, so runs from
/// different machines are never compared silently.
fn run_record(
    args: &Args,
    measured: &Measured,
    tail_percentile: f64,
    beyond: usize,
    samples: usize,
) -> Json {
    let mut fields = vec![
        ("workload", Json::string(args.workload.as_str())),
        ("seed", Json::string(args.seed.to_string())),
        ("seconds", Json::Number(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Number(args.nproc as f64)),
        ("polyinv_threads", Json::Number(args.threads as f64)),
        ("cpu_model", Json::string(cpu_model())),
        ("git_commit", Json::string(git_commit())),
        (
            "build_profile",
            Json::string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "latency_tail",
            Json::object(vec![
                ("percentile", Json::Number(tail_percentile)),
                ("samples", Json::Number(samples as f64)),
                ("beyond", Json::Number(beyond as f64)),
            ]),
        ),
        (
            "setup_runs_s",
            Json::Array(measured.setup_s.iter().copied().map(Json::Number).collect()),
        ),
        ("window_s", Json::Number(measured.window_s)),
        ("cpu_s", Json::Number(measured.cpu_s)),
    ];
    fields.extend(
        measured
            .record
            .iter()
            .map(|(name, json)| (*name, json.clone())),
    );
    Json::object(fields)
}

/// Every per-layer metric of a traced run, per request.
fn per_layer(measured: &Measured, attempted: usize) -> Vec<(&'static str, f64)> {
    let requests = attempted as f64;
    let mut self_times = measured.spans.self_times();
    let traced_total = measured.spans.root_seconds();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    if let Some(server) = &measured.server {
        // Client latency minus the server's own service time is time the
        // request waited (queue, connection, transfer); it comes out of the
        // request span's unattributed remainder.
        let wait = traced_total - server.service_s;
        for (name, value) in &mut self_times {
            match *name {
                "server.wait_s" => *value += wait,
                "core.unattributed_s" => *value -= wait,
                _ => {}
            }
        }
        layers.push((
            "server.service_s",
            ratio(server.service_s, server.synth_requests),
        ));
        layers.push(("server.rejected", server.rejected));
        layers.push(("server.dropped", server.dropped));
        layers.push(("api.cache_evictions", server.evictions));
        layers.push(("api.cache_hit_ratio", server.hit_ratio));
    } else {
        for name in [
            "server.service_s",
            "server.rejected",
            "server.dropped",
            "api.cache_evictions",
            "api.cache_hit_ratio",
        ] {
            layers.push((name, 0.0));
        }
    }
    let layer_sum: f64 = self_times.iter().map(|(_, value)| value).sum();
    for (name, total) in self_times {
        layers.push((name, ratio(total, requests)));
    }
    layers.push(("trace.request_s", ratio(traced_total, requests)));
    layers.push(("trace.layer_sum_s", ratio(layer_sum, requests)));
    layers.push(("trace.spans", measured.spans.spans.len() as f64));
    layers.push(("trace.requests", requests));
    layers.extend(measured.layers.iter().copied());
    layers
}

fn print_layers(
    out: &mut String,
    args: &Args,
    listed: &[Listed],
    layers: &[(&'static str, f64)],
    mean: f64,
) {
    let value = |name: &str| {
        layers
            .iter()
            .find(|(layer, _)| *layer == name)
            .map_or(0.0, |(_, value)| *value)
    };
    let _ = writeln!(out, "  self time per request, by layer:");
    for name in ADDITIVE_LAYERS {
        let _ = writeln!(out, "    {name:<28} {:>12.6} s", value(name));
    }
    let _ = writeln!(
        out,
        "    {:<28} {:>12.6} s (traced end-to-end {:.6} s per request)",
        "sum",
        value("trace.layer_sum_s"),
        value("trace.request_s")
    );
    let rest = listed
        .iter()
        .filter(|metric| !ADDITIVE_LAYERS.contains(&metric.name.as_str()))
        .map(|metric| (metric.name.as_str(), metric.unit.as_str()))
        .chain(TRACE_FACTS);
    for (name, unit) in rest {
        let _ = writeln!(out, "  {name:<40} {:>14.6} {unit}", value(name));
    }
    match read_untraced(&args.workload) {
        Some((seed, untraced)) if untraced > 0.0 => {
            let _ = writeln!(
                out,
                "  tracing overhead: {:+.2}% mean latency ({mean:.6} s traced, seed {}; \
                 {untraced:.6} s untraced, seed {seed})",
                100.0 * (mean / untraced - 1.0),
                args.seed
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "  tracing overhead: no untraced run of this workload recorded in {OUT_DIR}"
            );
        }
    }
}

/// Remembers an untraced run's mean latency for the traced run's overhead
/// line.
fn remember_untraced(args: &Args, mean_latency: f64) {
    let path = format!("{OUT_DIR}/untraced-{}.txt", args.workload);
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = std::fs::write(path, format!("{} {mean_latency}\n", args.seed));
    }
}

fn read_untraced(workload: &str) -> Option<(u64, f64)> {
    let text = std::fs::read_to_string(format!("{OUT_DIR}/untraced-{workload}.txt")).ok()?;
    let mut fields = text.split_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Writes the run's spans as JSON lines.
fn write_spans(args: &Args, spans: &Spans) {
    let path = format!("{OUT_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        if let Err(error) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: cannot write {path}: {error}");
        }
    }
}
