//! The LDLᵀ kernel choice on the real Step-4 systems: `SymbolicLdl::analyze`
//! must send the dense ϒ = 2 normal equations to the supernodal kernel and
//! keep every rung-0 system on the scalar one, and the two kernels must
//! solve the same system to rounding.

use polyinv_arith::LdlKernel;
use polyinv_bench::probe::{presolved_rung_problem, presolved_table_problem, NormalSystem};
use polyinv_qcqp::LmWorkspace;

/// The Table 2/3 rows that certify at rung 0 (ϒ = 0).
const RUNG0_ROWS: [&str; 17] = [
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

#[test]
fn dense_rung2_systems_pick_the_supernodal_kernel_and_rung0_systems_the_scalar_one() {
    for row in ["recursive-sum", "lcm1"] {
        let workspace = LmWorkspace::build(&presolved_table_problem(row), 0.0);
        let symbolic = workspace.symbolic();
        assert_eq!(
            symbolic.kernel(),
            LdlKernel::Supernodal,
            "{row}: {} flops per factor entry",
            symbolic.flops_per_entry()
        );
    }
    for row in RUNG0_ROWS {
        let workspace = LmWorkspace::build(&presolved_rung_problem(row, 0), 0.0);
        let symbolic = workspace.symbolic();
        assert_eq!(
            symbolic.kernel(),
            LdlKernel::Scalar,
            "{row}: {} flops per factor entry",
            symbolic.flops_per_entry()
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn supernodal_and_scalar_factor_solves_agree_on_recursive_sum() {
    let system = NormalSystem::new(&presolved_table_problem("recursive-sum"), 1e-3);
    let mut solutions = Vec::new();
    for kernel in [LdlKernel::Scalar, LdlKernel::Supernodal] {
        let symbolic = system.symbolic_with(kernel);
        let mut numeric = symbolic.numeric();
        assert!(symbolic.factor(&system.values, &system.diag_add, &mut numeric));
        let mut x = system.rhs.clone();
        symbolic.solve(&mut numeric, &mut x);
        solutions.push(x);
    }
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let difference: Vec<f64> = solutions[0]
        .iter()
        .zip(&solutions[1])
        .map(|(a, b)| a - b)
        .collect();
    let relative = norm(&difference) / norm(&solutions[0]);
    assert!(relative <= 1e-10, "kernels disagree: relative {relative:e}");
}
