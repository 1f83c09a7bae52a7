//! Spans and per-layer attribution of the traced run.
//!
//! The benchmark records a span around every public call it makes into a
//! layer (`Origin::Bench`), and adds child spans rebuilt from what the
//! program reports about its own work — stage timings and the
//! orchestrator's attempt history (`Origin::Program`). Spans are kept in
//! memory and written out as JSON lines when the run ends.
//!
//! Self time of a span is its duration minus the part of its interval its
//! (non-concurrent) children cover. The two portfolio lanes of a rung run
//! at the same time; the slower one blocks the rung, so it is the child of
//! the race on the critical path and the faster lane is kept as a
//! `concurrent` span that takes no share of the attribution. Summing the
//! self times of every span therefore gives the summed request time
//! exactly, and what no layer claims lands in `core.unattributed_s`.

use std::fmt::Write as _;

use polyinv_api::{AttemptRecord, OrchestratorRecord, PresolveRecord, SolverRecord};

/// Who measured a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Timed by the benchmark around a public call.
    Bench,
    /// Rebuilt from durations the program reported about itself.
    Program,
    /// Timed by the benchmark on an in-process replay of a call the server
    /// makes (the parse of a served request).
    Replay,
}

impl Origin {
    fn as_str(self) -> &'static str {
        match self {
            Origin::Bench => "bench",
            Origin::Program => "program",
            Origin::Replay => "replay",
        }
    }
}

/// One recorded interval, in seconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    pub request: u64,
    pub origin: Origin,
    /// Ran alongside a sibling that blocked the parent for longer.
    pub concurrent: bool,
}

/// The spans of one run.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: u64,
        origin: Origin,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
            origin,
            concurrent: false,
        });
        self.spans.len() - 1
    }

    /// Lays out the program-reported children of an orchestrated solve
    /// inside `parent`, from `start` on: the Step 1–3 and presolve
    /// stage totals, then one `core.rung` span per ϒ rung of the attempt
    /// history (race of the lanes, polish, certificate). The program
    /// reports durations, not start times, so the children are placed back
    /// to back; self times do not depend on that placement.
    pub fn push_reported(
        &mut self,
        parent: usize,
        start: f64,
        timings: &[(String, f64)],
        history: &[AttemptRecord],
    ) {
        let (mut cursor, request) = (start, self.spans[parent].request);
        let child = |spans: &mut Spans, name, start: f64, seconds: f64, parent| {
            spans.push(
                name,
                start,
                start + seconds,
                Some(parent),
                request,
                Origin::Program,
            )
        };
        for (stage, seconds) in timings {
            let name = match stage.as_str() {
                "templates" => "constraints.templates",
                "pairs" => "constraints.pairs",
                "reduction" => "constraints.putinar",
                "presolve" => "constraints.presolve",
                // The solve stage is broken down by the attempt history.
                _ => continue,
            };
            child(self, name, cursor, *seconds, parent);
            cursor += seconds;
        }
        for rung in history.chunk_by(|a, b| a.upsilon == b.upsilon) {
            let rung_index = child(self, "core.rung", cursor, 0.0, parent);
            let lanes: Vec<&AttemptRecord> = rung
                .iter()
                .filter(|attempt| lane_name(&attempt.backend).is_some())
                .collect();
            let race_seconds = lanes.iter().map(|lane| lane.seconds).fold(0.0, f64::max);
            if !lanes.is_empty() {
                let race = child(self, "core.race", cursor, race_seconds, rung_index);
                let slowest = critical_lane(&lanes);
                for (index, lane) in lanes.iter().enumerate() {
                    let name = lane_name(&lane.backend).expect("filtered to lanes");
                    let span = child(self, name, cursor, lane.seconds, race);
                    self.spans[span].concurrent = index != slowest;
                }
                cursor += race_seconds;
            }
            for attempt in rung {
                let name = match attempt.backend.as_str() {
                    "polish" => "core.polish",
                    "certificate" => "core.certificate",
                    _ => continue,
                };
                child(self, name, cursor, attempt.seconds, rung_index);
                cursor += attempt.seconds;
            }
            self.spans[rung_index].end = cursor;
        }
    }

    /// Self time of every span, summed per layer metric name.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let (Some(parent), false) = (span.parent, span.concurrent) {
                children[parent].push(index);
            }
        }
        let mut totals: Vec<(&'static str, f64)> =
            ADDITIVE_LAYERS.iter().map(|layer| (*layer, 0.0)).collect();
        for (index, span) in self.spans.iter().enumerate() {
            if span.concurrent {
                continue;
            }
            let mut covered: Vec<(f64, f64)> = children[index]
                .iter()
                .map(|&child| {
                    let child = &self.spans[child];
                    (child.start.max(span.start), child.end.min(span.end))
                })
                .filter(|(start, end)| end > start)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                }
                reach = reach.max(end);
            }
            let layer = layer_of(span.name);
            let slot = totals
                .iter_mut()
                .find(|(name, _)| *name == layer)
                .expect("every span maps to an additive layer");
            slot.1 += (span.end - span.start - union).max(0.0);
        }
        totals
    }

    /// Total duration of the root spans (the summed traced request time).
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.parent.is_none())
            .map(|span| span.end - span.start)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\
                 \"request\":{},\"origin\":\"{}\",\"concurrent\":{}}}",
                span.name,
                span.start,
                span.end,
                span.request,
                span.origin.as_str(),
                span.concurrent
            );
        }
        out
    }
}

/// The per-layer self-time metrics that add up to the traced request time
/// (before `server.wait_s` is split off on served traffic).
pub const ADDITIVE_LAYERS: [&str; 11] = [
    "lang.parse_s",
    "constraints.templates_s",
    "constraints.pairs_s",
    "constraints.putinar_s",
    "constraints.presolve_s",
    "qcqp.lm_s",
    "qcqp.penalty_s",
    "core.polish_s",
    "core.certificate_s",
    "server.wait_s",
    "core.unattributed_s",
];

fn layer_of(span: &str) -> &'static str {
    match span {
        "lang.parse" => "lang.parse_s",
        "constraints.templates" => "constraints.templates_s",
        "constraints.pairs" => "constraints.pairs_s",
        "constraints.putinar" => "constraints.putinar_s",
        "constraints.presolve" => "constraints.presolve_s",
        "qcqp.lm" => "qcqp.lm_s",
        "qcqp.penalty" => "qcqp.penalty_s",
        "core.polish" => "core.polish_s",
        "core.certificate" => "core.certificate_s",
        // request, core.solve, core.rung, core.race: time between the
        // reported children.
        _ => "core.unattributed_s",
    }
}

fn lane_name(backend: &str) -> Option<&'static str> {
    match backend {
        "lm" => Some("qcqp.lm"),
        "penalty" => Some("qcqp.penalty"),
        _ => None,
    }
}

/// Index of the lane that blocked the race (the slowest; the first on a
/// tie).
fn critical_lane(lanes: &[&AttemptRecord]) -> usize {
    let mut slowest = 0;
    for (index, lane) in lanes.iter().enumerate() {
        if lane.seconds > lanes[slowest].seconds {
            slowest = index;
        }
    }
    slowest
}

/// Counts and non-additive times of the solve layers, accumulated over the
/// requests that ran a solve.
#[derive(Debug, Default, Clone)]
pub struct SolveCounts {
    pub solves: usize,
    pub size: f64,
    pub unknowns: f64,
    pub presolve_runs: usize,
    pub presolve_kept: f64,
    pub lm_iterations: f64,
    pub factorizations: f64,
    pub eval_s: f64,
    pub factor_s: f64,
    pub trisolve_s: f64,
    pub nnz_factor: f64,
    pub lm_wins: usize,
    pub penalty_wins: usize,
    pub rungs: usize,
    pub useful_rungs: usize,
    pub raced_rungs: usize,
    pub lm_critical_rungs: usize,
    pub race_wait_s: f64,
}

impl SolveCounts {
    /// Adds one solve's records. The solver record is the winning lane's
    /// (on the accepted rung); the winner is tallied next to it.
    pub fn add(
        &mut self,
        system_size: usize,
        num_unknowns: usize,
        solver: Option<&SolverRecord>,
        presolve: Option<&PresolveRecord>,
        orchestrator: Option<&OrchestratorRecord>,
    ) {
        self.solves += 1;
        self.size += system_size as f64;
        self.unknowns += num_unknowns as f64;
        if let Some(presolve) = presolve {
            if presolve.size_before > 0 {
                self.presolve_runs += 1;
                self.presolve_kept += presolve.size_after as f64 / presolve.size_before as f64;
            }
        }
        if let Some(solver) = solver {
            self.lm_iterations += solver.iterations as f64;
            self.factorizations += solver.factorizations as f64;
            self.eval_s += solver.eval_seconds;
            self.factor_s += solver.factor_seconds;
            self.trisolve_s += solver.solve_seconds;
            self.nnz_factor += solver.nnz_factor as f64;
        }
        if let Some(record) = orchestrator {
            match record.winning_backend.as_str() {
                "lm" => self.lm_wins += 1,
                "penalty" => self.penalty_wins += 1,
                _ => {}
            }
            self.rungs += record.rungs_tried;
            self.useful_rungs += usize::from(record.certified);
            for rung in record.history.chunk_by(|a, b| a.upsilon == b.upsilon) {
                let lane = |name: &str| {
                    rung.iter()
                        .find(|attempt| attempt.backend == name)
                        .map(|attempt| attempt.seconds)
                };
                if let (Some(lm), Some(penalty)) = (lane("lm"), lane("penalty")) {
                    self.raced_rungs += 1;
                    self.lm_critical_rungs += usize::from(lm > penalty);
                    self.race_wait_s += (lm - penalty).abs();
                }
            }
        }
    }

    /// The per-layer metrics these counts give, per solved request.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |total: f64| ratio(total, self.solves as f64);
        let factor_ms_each = 1e3 * ratio(self.factor_s, self.factorizations);
        vec![
            ("constraints.size", per(self.size)),
            ("constraints.unknowns", per(self.unknowns)),
            (
                "constraints.presolve_kept_ratio",
                ratio(self.presolve_kept, self.presolve_runs as f64),
            ),
            ("qcqp.lm_iterations", per(self.lm_iterations)),
            ("qcqp.factorizations", per(self.factorizations)),
            ("qcqp.eval_s", per(self.eval_s)),
            ("qcqp.factor_s", per(self.factor_s)),
            ("qcqp.trisolve_s", per(self.trisolve_s)),
            ("qcqp.factor_ms_each", factor_ms_each),
            ("qcqp.nnz_factor", per(self.nnz_factor)),
            ("qcqp.lm_win_ratio", per(self.lm_wins as f64)),
            ("core.race_wait_s", per(self.race_wait_s)),
            (
                "core.lm_critical_ratio",
                ratio(self.lm_critical_rungs as f64, self.raced_rungs as f64),
            ),
            ("core.rungs_tried", per(self.rungs as f64)),
            (
                "core.rung_useful_ratio",
                ratio(self.useful_rungs as f64, self.rungs as f64),
            ),
        ]
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}
