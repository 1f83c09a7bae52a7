//! `arith.ldl_factor_*`: direct LDLᵀ factorizations of each
//! `rung2-fixed-work` row's presolved ϒ = 2 system, at one thread and at
//! the pinned thread budget. Timed independently of which portfolio lane
//! wins a solve, so the factor kernel has a measure of its own.

use std::time::Instant;

use polyinv_qcqp::{LmEvaluator, LmWorkspace};

use crate::measure::median;
use crate::solve::RUNG2_ROWS;

/// Timed factorizations per row and thread count; the median is reported.
const REPEATS: usize = 5;

/// Damping of the probe's normal matrix (an LM iterate's typical λ).
const LAMBDA: f64 = 1e-3;

/// Metric name of a row at one thread (`1t`) or the budget (`nt`).
fn metric(row: &str, parallel: bool) -> &'static str {
    match (row, parallel) {
        ("recursive-sum", false) => "arith.ldl_factor_ms.recursive-sum.1t",
        ("recursive-sum", true) => "arith.ldl_factor_ms.recursive-sum.nt",
        ("lcm1", false) => "arith.ldl_factor_ms.lcm1.1t",
        ("lcm1", true) => "arith.ldl_factor_ms.lcm1.nt",
        _ => unreachable!("probe rows are the rung2 rows"),
    }
}

/// Milliseconds per numeric factorization, per row and thread count, plus
/// each row's factor size.
pub fn ldl_factor_metrics() -> Vec<(&'static str, f64)> {
    let threads = polyinv_qcqp::configured_threads();
    let mut metrics = Vec::new();
    for row in RUNG2_ROWS {
        let problem = polyinv_bench::probe::presolved_table_problem(row);
        let workspace = LmWorkspace::build(&problem, 0.0);
        let mut numeric = workspace.symbolic().numeric();
        // A fixed, non-trivial point: the normal matrix has the pattern and
        // conditioning of a mid-solve iterate.
        let x: Vec<f64> = (0..problem.num_vars)
            .map(|i| 0.25 + 0.5 * ((i * 7919) % 101) as f64 / 101.0)
            .collect();
        let mut evaluator = LmEvaluator::new(&problem, &workspace, 0.0, threads);
        evaluator.residuals_and_normal(&x);
        let values = evaluator.jtj_values();
        let diag = workspace.pattern().diag_positions();
        let diag_add: Vec<f64> = (0..problem.num_vars)
            .map(|i| LAMBDA * (1.0 + values[diag[i]]))
            .collect();
        for (parallel, workers) in [(false, 1), (true, threads)] {
            let mut times = Vec::with_capacity(REPEATS);
            for _ in 0..REPEATS {
                let start = Instant::now();
                let ok =
                    workspace
                        .symbolic()
                        .factor_parallel(values, &diag_add, &mut numeric, workers);
                times.push(start.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(ok);
            }
            metrics.push((metric(row, parallel), median(&times)));
        }
    }
    metrics
}
