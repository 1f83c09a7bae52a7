//! The in-process workloads: `table-rung0` and `rung2-fixed-work`.
//!
//! A request makes the public calls an `Engine::run` weak request makes —
//! `Engine::parse_program`, `resolve_weak_targets`, `escalate_degree`, a
//! `SolvePlan` and `Orchestrator::solve` — and keeps the orchestrator's
//! outcome, because the verdict check needs the certified assignment,
//! which the serialized report does not carry.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use polyinv::{Orchestrator, OrchestratorOutcome, SolvePlan};
use polyinv_api::engine::{escalate_degree, resolve_weak_targets};
use polyinv_api::{
    ApiError, Engine, Json, OrchestratorRecord, PresolveRecord, SolverRecord, SynthesisRequest,
};
use polyinv_arith::Rational;
use polyinv_benchmarks::Benchmark;
use polyinv_constraints::exact::{exact_assignment_with, snap_ladder};
use polyinv_lang::{Precondition, Program};
use polyinv_validate::{exact_assignment, falsify_traces, instantiate_exact, TraceCheckConfig};

use crate::layers::{Origin, SolveCounts, Spans};
use crate::measure::{self, Rng};
use crate::{strings, Args, Measured, Sample};

/// The 17 Table 2/3 rows that certify on the ϒ = 0 rung.
pub const RUNG0_ROWS: [&str; 17] = [
    "cohendiv",
    "divbin",
    "hard",
    "mannadiv",
    "wensely",
    "sqrt",
    "dijkstra",
    "z3sqrt",
    "freire1",
    "freire2",
    "euclidex1",
    "euclidex2",
    "euclidex3",
    "cohencu",
    "petter",
    "oscillator",
    "pw2",
];

/// The ϒ = 2 rows of `rung2-fixed-work`.
pub const RUNG2_ROWS: [&str; 2] = ["recursive-sum", "lcm1"];

/// Whole-solve budget of a `table-rung0` request (the `reproduce` default).
const TABLE_BUDGET_SECONDS: f64 = 120.0;

/// Iteration caps of lcm1 in `rung2-fixed-work`, lowered so one solve fits
/// a run: LM iterations per restart and polish sub-solve iterations.
const LCM1_LM_ITERATIONS: usize = 6;
const LCM1_POLISH_ITERATIONS: usize = 5;

/// Rows whose certified map seeded traces refute at the commit that added
/// the benchmark: the certificate accepts polynomial-identity residuals up
/// to 1/100 (ROADMAP, "Stop certifying invariants that are not inductive").
/// Their wrong verdicts are named and counted in `error_ratio` on every run
/// without failing it; a refuted map of any other row fails the run.
pub const KNOWN_REFUTED_ROWS: [&str; 11] = [
    "hard",
    "mannadiv",
    "sqrt",
    "dijkstra",
    "euclidex1",
    "euclidex3",
    "cohencu",
    "oscillator",
    "pw2",
    "recursive-sum",
    "lcm1",
];

/// Set-ups per run, at least; `setup_s` is their median. They are spread
/// over the run, a group before every request and one after the last, so
/// one slow stretch of a shared machine moves the median little.
const SETUP_REPEATS: usize = 101;

/// Valid traces each certified map must survive, and the size of the
/// cheap first pass.
const TRACE_RUNS: usize = 1000;
const QUICK_TRACE_RUNS: usize = 25;

/// Which in-process workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TableRung0,
    Rung2FixedWork,
}

impl Kind {
    /// Measured seconds of one pass over the rows on two cores when the
    /// benchmark was defined (4.9–5.2 s with a one-thread solver budget, and
    /// 28–32 s); `--seconds` divided by it, rounded, gives the passes per
    /// run (7 for `table-rung0` and 1 for `rung2-fixed-work` at the 33 s of
    /// BENCHMARK.json). With 7 passes `latency_tail_s` of `table-rung0` is
    /// the median of euclidex2's seven latencies, not an extreme of them.
    fn nominal_pass_seconds(self) -> f64 {
        match self {
            Kind::TableRung0 => 5.0,
            Kind::Rung2FixedWork => 30.0,
        }
    }

    fn rows(self) -> &'static [&'static str] {
        match self {
            Kind::TableRung0 => &RUNG0_ROWS,
            Kind::Rung2FixedWork => &RUNG2_ROWS,
        }
    }
}

/// A prepared row: its weak request and the plan policy.
struct Row {
    name: &'static str,
    request: SynthesisRequest,
}

/// The plan of a request: the Engine's weak-mode plan for `table-rung0`;
/// for `rung2-fixed-work` the same default plan with every wall-clock
/// limit off, so each lane stops on its iteration and stall limits and
/// every run does identical work.
pub fn plan_for(
    kind: Kind,
    row: &str,
    options: polyinv_constraints::SynthesisOptions,
) -> SolvePlan {
    match kind {
        Kind::TableRung0 => SolvePlan::new(options).with_solve_budget(TABLE_BUDGET_SECONDS),
        Kind::Rung2FixedWork => {
            let mut plan = SolvePlan::new(options).with_solve_budget(0.0);
            plan.lm.max_seconds = 0.0;
            plan.polish_lm.max_seconds = 0.0;
            if let Some(penalty) = plan.penalty.as_mut() {
                penalty.max_seconds = 0.0;
            }
            if row == "lcm1" {
                plan.lm.max_iterations = LCM1_LM_ITERATIONS;
                plan.polish_lm.max_iterations = LCM1_POLISH_ITERATIONS;
            }
            plan
        }
    }
}

/// The lane limits of a plan, for the run record.
pub fn plan_limits(plan: &SolvePlan) -> Json {
    let count = |value: usize| Json::Number(value as f64);
    let penalty = plan.penalty.as_ref().map_or(Json::Null, |alm| {
        Json::object(vec![
            ("outer_iterations", count(alm.outer_iterations)),
            ("inner_iterations", count(alm.inner_iterations)),
            ("restarts", count(alm.restarts)),
            ("max_seconds", Json::Number(alm.max_seconds)),
        ])
    });
    Json::object(vec![
        (
            "solve_budget_seconds",
            Json::Number(plan.solve_budget_seconds),
        ),
        (
            "lm",
            Json::object(vec![
                ("max_iterations", count(plan.lm.max_iterations)),
                ("restarts", count(plan.lm.restarts)),
                ("stall_iterations", count(plan.lm.stall_iterations)),
                ("max_seconds", Json::Number(plan.lm.max_seconds)),
            ]),
        ),
        ("penalty", penalty),
        (
            "polish",
            Json::object(vec![
                ("rounds", count(plan.polish_rounds)),
                ("max_iterations", count(plan.polish_lm.max_iterations)),
                ("restarts", count(plan.polish_lm.restarts)),
                ("max_seconds", Json::Number(plan.polish_lm.max_seconds)),
            ]),
        ),
    ])
}

/// What a served weak request leaves for the verdict check.
pub struct Served {
    pub program: Arc<Program>,
    pub pre: Precondition,
    pub plan: SolvePlan,
    pub outcome: OrchestratorOutcome,
}

/// Serves one weak request through the Engine's public weak-mode calls.
/// With `spans`, records `lang.parse` and `core.solve` under `request_span`
/// and the program-reported children of the solve.
pub fn serve_weak(
    engine: &Engine,
    request: &SynthesisRequest,
    make_plan: impl FnOnce(polyinv_constraints::SynthesisOptions) -> SolvePlan,
    trace: Option<(&mut Spans, usize, Instant)>,
) -> Result<Served, ApiError> {
    let parse_start = Instant::now();
    let program = engine.parse_program(&request.source)?;
    let parse_end = Instant::now();
    let pre = Precondition::from_program(&program);
    let targets = resolve_weak_targets(&program, request)?;
    let (options, _escalation) = escalate_degree(&request.options, &targets);
    let plan = make_plan(options);
    let solve_start = Instant::now();
    let outcome = Orchestrator::new(plan.clone()).solve(&program, &pre, &targets)?;
    let solve_end = Instant::now();
    if let Some((spans, parent, epoch)) = trace {
        let at = |instant: Instant| instant.duration_since(epoch).as_secs_f64();
        let id = spans.spans[parent].request;
        spans.push(
            "lang.parse",
            at(parse_start),
            at(parse_end),
            Some(parent),
            id,
            Origin::Bench,
        );
        let solve = spans.push(
            "core.solve",
            at(solve_start),
            at(solve_end),
            Some(parent),
            id,
            Origin::Bench,
        );
        let record = OrchestratorRecord::from(&outcome.stats);
        let timings: Vec<(String, f64)> = outcome
            .timings
            .iter()
            .map(|(stage, duration)| (stage.to_string(), duration.as_secs_f64()))
            .collect();
        spans.push_reported(solve, at(solve_start), &timings, &record.history);
    }
    Ok(Served {
        program,
        pre,
        plan,
        outcome,
    })
}

/// Adds a served outcome's solve records to the layer counts.
pub fn count(counts: &mut SolveCounts, outcome: &OrchestratorOutcome) {
    counts.add(
        outcome.system_size,
        outcome.num_unknowns,
        Some(&SolverRecord::from(&outcome.solver)),
        outcome.presolve.as_ref().map(PresolveRecord::from).as_ref(),
        Some(&OrchestratorRecord::from(&outcome.stats)),
    );
}

/// The result of checking one certified map.
enum Verdict {
    Sound,
    /// A wrong verdict: the exact record passes but seeded traces refute
    /// the map. It fails the run unless the map is on the workload's list
    /// of maps known to be refuted (`KNOWN_REFUTED_ROWS`, `KNOWN_REFUTED_FUZZ`).
    Refuted(String),
    /// Any other wrong verdict (no or failing exact record); fails the run.
    Wrong(String),
    /// The trace check could not reach its coverage; fails the run.
    Unchecked(String),
}

/// What a verdict check makes of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Sound,
    /// A wrong verdict on the known-refuted list: named and counted in
    /// `error_ratio`, but the run passes.
    KnownWrong,
    /// A wrong or unchecked verdict that fails the run.
    Failing,
}

/// Checks a certified map: its exact record must pass, and the map —
/// instantiated at the snapped point the certificate passed on — must
/// survive `TRACE_RUNS` valid seeded traces.
fn check_certified(served: &Served, seed: u64) -> Verdict {
    let outcome = &served.outcome;
    match &outcome.exact {
        Some(exact) if exact.passed() => {}
        Some(exact) => {
            return Verdict::Wrong(format!(
                "exact record fails (worst violation {:.3e})",
                exact.worst_violation.to_f64()
            ))
        }
        None => return Verdict::Wrong("certified without an exact record".to_string()),
    }
    let values = certified_values(served);
    let (invariant, post) = instantiate_exact(&served.program, &outcome.generated, &values);
    // A short pass first: a refutable map is usually refuted within a few
    // traces, and each violating trace is minimized, which is costly.
    for runs in [QUICK_TRACE_RUNS, TRACE_RUNS] {
        let config = TraceCheckConfig {
            runs,
            seed,
            max_attempts: 200_000,
            ..TraceCheckConfig::default()
        };
        let report = falsify_traces(&served.program, &served.pre, &invariant, &post, &config);
        if let Some(violation) = report.violations.first() {
            let inputs: Vec<String> = violation.inputs.iter().map(ToString::to_string).collect();
            let state: Vec<String> = violation
                .valuation
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            return Verdict::Refuted(format!(
                "trace refutes `{}` at {} (run seed {}, inputs [{}], state {})",
                violation.atom,
                violation.label,
                violation.run_seed,
                inputs.join(", "),
                state.join(" ")
            ));
        }
        if !report.covered() {
            return Verdict::Unchecked(format!(
                "only {}/{} valid traces",
                report.valid_runs, report.requested_runs
            ));
        }
    }
    Verdict::Sound
}

/// The exact values the certificate passed on: the assignment rounded by
/// the snap-ladder policy the exact record names.
fn certified_values(served: &Served) -> Vec<Rational> {
    let outcome = &served.outcome;
    let config = &served.plan.certificate;
    let rounding = outcome.exact.as_ref().map(|exact| exact.rounding.as_str());
    match snap_ladder(config)
        .into_iter()
        .find(|policy| Some(policy.describe().as_str()) == rounding)
    {
        Some(policy) => exact_assignment_with(
            &outcome.generated.system,
            &outcome.assignment,
            config,
            policy,
        ),
        None => exact_assignment(&outcome.generated.system, &outcome.assignment, config),
    }
}

/// A fingerprint of a certified map's snapped values: identical maps are
/// checked once per run.
fn map_key(name: &str, served: &Served) -> String {
    let values = certified_values(served);
    let mut key = name.to_string();
    for value in values {
        key.push(' ');
        key.push_str(&value.to_string());
    }
    key
}

/// Verdict checks of one run: each distinct certified map, known by its
/// snapped values, is checked once, and every request with that map gets
/// its class.
#[derive(Default)]
pub struct Checks {
    classes: HashMap<String, Class>,
    /// Wrong verdicts that fail the run, named.
    pub wrong: Vec<String>,
    /// Wrong verdicts on the known-refuted list, named.
    pub known_wrong: Vec<String>,
    /// Certified maps the trace check could not cover, named.
    pub unchecked: Vec<String>,
}

impl Checks {
    /// Checks a certified map, unless an identical one was checked, and
    /// returns its class; `known` tells whether a refutation of `name` is
    /// on the known-refuted list.
    pub fn check(&mut self, name: &str, known: bool, served: &Served, seed: u64) -> Class {
        let key = map_key(name, served);
        if let Some(class) = self.classes.get(&key) {
            return *class;
        }
        let class = match check_certified(served, seed) {
            Verdict::Sound => Class::Sound,
            Verdict::Refuted(reason) if known => {
                self.known_wrong.push(format!("{name}: {reason}"));
                Class::KnownWrong
            }
            Verdict::Refuted(reason) | Verdict::Wrong(reason) => {
                self.wrong.push(format!("{name}: {reason}"));
                Class::Failing
            }
            Verdict::Unchecked(reason) => {
                self.unchecked.push(format!("{name}: {reason}"));
                Class::Failing
            }
        };
        self.classes.insert(key, class);
        class
    }

    /// Distinct maps checked.
    pub fn checked(&self) -> usize {
        self.classes.len()
    }
}

/// Builds the rows and the Engine (the set-up a caller pays before its
/// first request): the Engine, every row's program parsed into its cache,
/// every request built.
fn set_up(kind: Kind) -> Result<(Engine, Vec<Row>), String> {
    let engine = Engine::new();
    let mut rows = Vec::new();
    for name in kind.rows() {
        let benchmark: Benchmark = polyinv_benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark row `{name}`"))?;
        engine
            .parse_program(benchmark.source)
            .map_err(|error| format!("{name}: {error}"))?;
        let mut request = polyinv_bench::solve_request(&benchmark);
        if kind == Kind::TableRung0 {
            request = request.with_solve_budget(TABLE_BUDGET_SECONDS);
        }
        rows.push(Row { name, request });
    }
    Ok((engine, rows))
}

/// Runs `table-rung0` or `rung2-fixed-work`: closed loop, one client,
/// whole passes over the rows, order shuffled per pass by the seed.
pub fn run(kind: Kind, args: &Args) -> Result<Measured, String> {
    // Runs do fixed work: whole passes, as many as fit `--seconds` at the
    // nominal pass time, so a faster program finishes sooner.
    let passes = ((args.seconds / kind.nominal_pass_seconds()).round() as usize).max(1);
    let requests = passes * kind.rows().len();
    let per_group = SETUP_REPEATS.div_ceil(requests + 1);
    let mut setup_s = Vec::with_capacity(per_group * (requests + 1));
    let set_up_group = |setup_s: &mut Vec<f64>| -> Result<(Engine, Vec<Row>), String> {
        let mut built = None;
        for _ in 0..per_group {
            let start = Instant::now();
            let prepared = set_up(kind)?;
            setup_s.push(measure::since(start));
            built = Some(prepared);
        }
        Ok(built.expect("at least one set-up per group"))
    };
    let (engine, rows) = set_up_group(&mut setup_s)?;

    let mut rng = Rng::new(args.seed);
    let mut spans = Spans::default();
    let mut counts = SolveCounts::default();
    let mut checks = Checks::default();
    let mut known_wrong_requests = 0;
    let mut samples = Vec::new();
    let mut winners: Vec<String> = Vec::new();
    let mut busy_s = 0.0;
    let mut cpu_s = 0.0;
    let epoch = Instant::now();
    let mut request_id = 0u64;
    // The measured time is the time spent in requests: the set-ups and the
    // verdict check between two requests (identical maps are checked once)
    // run on the paused clock, and each outcome is dropped once checked.
    // The peak memory of the checks is kept out of `peak_rss_mb`: the peak
    // is read before each check and reset after it.
    let mut peak_rss_mb: f64 = 0.0;
    measure::reset_peak_rss();
    for pass_index in 0..passes {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        rng.shuffle(&mut order);
        for (position, index) in order.into_iter().enumerate() {
            if pass_index + position > 0 {
                set_up_group(&mut setup_s)?;
            }
            let row = &rows[index];
            request_id += 1;
            let cpu_start = measure::cpu_seconds("self").unwrap_or(0.0);
            let start = Instant::now();
            let root = args.trace.then(|| {
                let at = start.duration_since(epoch).as_secs_f64();
                spans.push("request", at, at, None, request_id, Origin::Bench)
            });
            let trace = root.map(|root| (&mut spans, root, epoch));
            let result = catch_unwind(AssertUnwindSafe(|| {
                serve_weak(
                    &engine,
                    &row.request,
                    |options| plan_for(kind, row.name, options),
                    trace,
                )
            }));
            let latency = measure::since(start);
            cpu_s += measure::cpu_seconds("self").unwrap_or(0.0) - cpu_start;
            busy_s += latency;
            if let Some(root) = root {
                spans.spans[root].end = start.duration_since(epoch).as_secs_f64() + latency;
            }
            let (synthesized, failure) = match result {
                Ok(Ok(served)) => {
                    count(&mut counts, &served.outcome);
                    winners.push(format!(
                        "{}:{}",
                        row.name, served.outcome.stats.winning_backend
                    ));
                    let certified = served.outcome.certified;
                    if certified {
                        peak_rss_mb = peak_rss_mb.max(measure::peak_rss_mb("self").unwrap_or(0.0));
                        let known = KNOWN_REFUTED_ROWS.contains(&row.name);
                        if checks.check(row.name, known, &served, args.seed) == Class::KnownWrong {
                            known_wrong_requests += 1;
                        }
                        drop(served);
                        measure::reset_peak_rss();
                    }
                    (certified, None)
                }
                Ok(Err(error)) => (false, Some(format!("{}: API error: {error}", row.name))),
                Err(payload) => (
                    false,
                    Some(format!(
                        "{}: panic: {}",
                        row.name,
                        measure::panic_text(&*payload)
                    )),
                ),
            };
            samples.push(Sample {
                label: row.name.to_string(),
                latency,
                synthesized,
                failure,
            });
        }
    }
    let window_s = busy_s;
    peak_rss_mb = peak_rss_mb.max(measure::peak_rss_mb("self").unwrap_or(0.0));
    set_up_group(&mut setup_s)?;

    let known_rows: Vec<&str> = checks
        .known_wrong
        .iter()
        .map(|line| line.split(':').next().unwrap_or_default())
        .collect();
    let latencies: Vec<String> = samples
        .iter()
        .map(|sample| format!("{}:{:.4}", sample.label, sample.latency))
        .collect();
    let mut record = vec![
        ("rows", strings(kind.rows())),
        ("maps_checked", Json::Number(checks.checked() as f64)),
        ("known_refuted_maps", strings(&known_rows)),
        ("trace_runs_per_map", Json::Number(TRACE_RUNS as f64)),
        ("winning_lanes", strings(&winners)),
        ("latencies_s", strings(&latencies)),
    ];
    if kind == Kind::Rung2FixedWork {
        let limits = rows
            .iter()
            .map(|row| {
                let plan = plan_for(kind, row.name, row.request.options.clone());
                (row.name.to_string(), plan_limits(&plan))
            })
            .collect();
        record.push(("lane_limits", Json::Object(limits)));
    }
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
        checks,
        known_wrong_requests,
        record,
        layers,
        spans,
        server: None,
    })
}
