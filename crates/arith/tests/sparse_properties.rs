//! Property tests pinning the sparse substrate against the dense oracle:
//! CSR mat-vec, JᵀJ accumulation from sparse rows, and the minimum-degree
//! LDLᵀ factor-solve must agree with the corresponding dense
//! [`Matrix`](polyinv_arith::Matrix) computations on random sparse systems.

use polyinv_arith::sparse::{CsrMatrix, JtjPattern, JtjScratch, LdlKernel, SymbolicLdl};
use polyinv_arith::{Matrix, Vector};
use proptest::prelude::*;

/// A random sparse system derived from raw proptest material: `rows × cols`
/// shape plus one short `(col, value)` list per row with strictly
/// increasing columns.
#[derive(Debug, Clone)]
struct SparseSystem {
    rows: usize,
    cols: usize,
    entries: Vec<Vec<(usize, f64)>>,
}

/// Raw material for one system: the vendored proptest stand-in has no
/// `prop_flat_map`, so shapes and entries are drawn independently and the
/// entry columns are folded into range (sorted, deduplicated) here.
fn build_system(rows: usize, cols: usize, raw: Vec<Vec<(usize, f64)>>) -> SparseSystem {
    let entries = raw
        .into_iter()
        .take(rows)
        .chain(std::iter::repeat(Vec::new()))
        .take(rows)
        .map(|row| {
            let mut folded: Vec<(usize, f64)> = Vec::new();
            for (c, v) in row {
                let col = c % cols;
                match folded.binary_search_by_key(&col, |&(c, _)| c) {
                    Ok(at) => folded[at].1 += v,
                    Err(at) => folded.insert(at, (col, v)),
                }
            }
            folded
        })
        .collect();
    SparseSystem {
        rows,
        cols,
        entries,
    }
}

fn raw_entries() -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..64, -4.0f64..4.0), 0..5),
        8,
    )
}

fn dense_of(system: &SparseSystem) -> Matrix {
    let mut m = Matrix::zeros(system.rows, system.cols);
    for (r, row) in system.entries.iter().enumerate() {
        for &(c, v) in row {
            m.add_to(r, c, v);
        }
    }
    m
}

fn patterns_of(system: &SparseSystem) -> Vec<Vec<usize>> {
    system
        .entries
        .iter()
        .map(|row| row.iter().map(|&(c, _)| c).collect())
        .collect()
}

/// The `JᵀJ` pattern of a system and its accumulated values.
fn normal_matrix(system: &SparseSystem) -> (JtjPattern, Vec<f64>) {
    let pattern = JtjPattern::new(system.cols, patterns_of(system));
    let mut values = pattern.values_buffer();
    let mut scratch = JtjScratch::default();
    for (r, row) in system.entries.iter().enumerate() {
        pattern.accumulate_row(r, row, &mut values, &mut scratch);
    }
    (pattern, values)
}

/// The dense oracle: solves `(JᵀJ + damping·I) x = b`.
fn dense_solve(pattern: &JtjPattern, values: &[f64], damping: f64, b: &[f64]) -> Vector {
    let mut dense = pattern.to_dense(values);
    for i in 0..b.len() {
        dense.add_to(i, i, damping);
    }
    dense.solve(&Vector::from_slice(b)).expect("PD system")
}

/// The pivots of a factorization keyed by original variable: the two
/// kernels eliminate the variables in different orders.
fn pivots_by_variable(symbolic: &SymbolicLdl, pivots: &[f64]) -> Vec<f64> {
    let mut by_variable = vec![0.0; pivots.len()];
    for (&variable, &pivot) in symbolic.permutation().iter().zip(pivots) {
        by_variable[variable] = pivot;
    }
    by_variable
}

/// An arrowhead Jacobian, the shape of the ϒ = 2 normal equations:
/// `blocks` local blocks of three variables, each row coupling a local
/// variable and its neighbour to two of the `coupling` trailing variables,
/// plus three rows spanning most of the coupling block. The dense coupling
/// block lifts the flops per factor entry above the supernodal threshold.
/// `picks` supplies the coupling choices and values, cyclically.
fn arrowhead_system(coupling: usize, blocks: usize, picks: &[(usize, f64)]) -> SparseSystem {
    let local = 3 * blocks;
    let mut draws = picks.iter().copied().cycle();
    let mut raw: Vec<Vec<(usize, f64)>> = Vec::new();
    for b in 0..blocks {
        for v in 0..3 {
            let mut row = vec![
                (3 * b + v, draws.next().unwrap().1),
                (3 * b + (v + 1) % 3, draws.next().unwrap().1),
            ];
            for _ in 0..2 {
                let (c, value) = draws.next().unwrap();
                row.push((local + c % coupling, value));
            }
            raw.push(row);
        }
    }
    for r in 0..3 {
        raw.push(
            (0..coupling)
                .filter(|c| (c + r) % 7 != 0)
                .map(|c| (local + c, draws.next().unwrap().1))
                .collect(),
        );
    }
    build_system(raw.len(), local + coupling, raw)
}

proptest! {
    #[test]
    fn csr_mat_vec_matches_dense(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        x in proptest::collection::vec(-3.0f64..3.0, 8),
    ) {
        let system = build_system(rows, cols, raw);
        let triplets: Vec<(usize, usize, f64)> = system
            .entries
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |&(c, v)| (r, c, v)))
            .collect();
        let csr = CsrMatrix::from_triplets(system.rows, system.cols, triplets);
        let dense = dense_of(&system);
        let x = &x[..system.cols];
        let sparse_result = csr.mul_vec(x);
        let dense_result = dense.mul_vec(&Vector::from_slice(x));
        for r in 0..system.rows {
            prop_assert!((sparse_result[r] - dense_result[r]).abs() < 1e-9);
        }
    }

    #[test]
    fn jtj_accumulation_matches_dense_normal_matrix(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
    ) {
        let system = build_system(rows, cols, raw);
        let pattern = JtjPattern::new(system.cols, patterns_of(&system));
        let mut values = pattern.values_buffer();
        let mut scratch = JtjScratch::default();
        for (r, row) in system.entries.iter().enumerate() {
            pattern.accumulate_row(r, row, &mut values, &mut scratch);
        }
        let dense = dense_of(&system);
        let jtj = &dense.transpose() * &dense;
        let sparse_jtj = pattern.to_dense(&values);
        for i in 0..system.cols {
            for j in 0..system.cols {
                prop_assert!(
                    (sparse_jtj.get(i, j) - jtj.get(i, j)).abs() < 1e-9,
                    "JtJ mismatch at ({}, {}): {} vs {}",
                    i, j, sparse_jtj.get(i, j), jtj.get(i, j)
                );
            }
        }
    }

    #[test]
    fn sparse_ldlt_factor_solve_matches_dense_solve(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        b in proptest::collection::vec(-3.0f64..3.0, 8),
        damping in 0.01f64..2.0,
    ) {
        let system = build_system(rows, cols, raw);
        let n = system.cols;
        let pattern = JtjPattern::new(n, patterns_of(&system));
        let mut values = pattern.values_buffer();
        let mut scratch = JtjScratch::default();
        for (r, row) in system.entries.iter().enumerate() {
            pattern.accumulate_row(r, row, &mut values, &mut scratch);
        }
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        // JᵀJ + damping·I is positive definite for any J, so the
        // factorization must succeed.
        let diag_add = vec![damping; n];
        prop_assert!(symbolic.factor(&values, &diag_add, &mut numeric));
        let mut x: Vec<f64> = b[..n].to_vec();
        symbolic.solve(&mut numeric, &mut x);

        let mut dense = pattern.to_dense(&values);
        for i in 0..n {
            dense.add_to(i, i, damping);
        }
        let oracle = dense.solve(&Vector::from_slice(&b[..n])).expect("PD system");
        for i in 0..n {
            prop_assert!(
                (x[i] - oracle[i]).abs() < 1e-6 * (1.0 + oracle[i].abs()),
                "solve mismatch at {}: {} vs {}", i, x[i], oracle[i]
            );
        }
    }

    #[test]
    fn symbolic_analysis_is_sane_for_arbitrary_patterns(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
    ) {
        let system = build_system(rows, cols, raw);
        let n = system.cols;
        let pattern = JtjPattern::new(n, patterns_of(&system));
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        prop_assert!(symbolic.nnz_factor() >= n);
        prop_assert!(symbolic.nnz_factor() <= n * (n + 1) / 2);
        let mut perm = symbolic.permutation().to_vec();
        perm.sort_unstable();
        prop_assert_eq!(perm, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_jtj_merge_matches_dense_and_is_chunk_order_invariant(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        chunks in 1usize..5,
    ) {
        let system = build_system(rows, cols, raw);
        let pattern = JtjPattern::new(system.cols, patterns_of(&system));
        let mut scratch = JtjScratch::default();
        // Fixed chunk boundaries over the row range (never a function of the
        // worker count).
        let chunk_size = system.rows.div_ceil(chunks);
        let ranges: Vec<std::ops::Range<usize>> = (0..chunks)
            .map(|c| (c * chunk_size).min(system.rows)..((c + 1) * chunk_size).min(system.rows))
            .collect();
        let fill = |range: &std::ops::Range<usize>| {
            let mut partial = pattern.values_buffer();
            let mut scratch = JtjScratch::default();
            for r in range.clone() {
                pattern.accumulate_row(r, &system.entries[r], &mut partial, &mut scratch);
            }
            partial
        };
        // "Thread schedule A": fill chunks first-to-last; "schedule B":
        // last-to-first. The merge itself always runs in chunk-index order.
        let partials_fwd: Vec<Vec<f64>> = ranges.iter().map(&fill).collect();
        let mut partials_rev: Vec<Vec<f64>> = ranges.iter().rev().map(&fill).collect();
        partials_rev.reverse();
        let mut merged_fwd = pattern.values_buffer();
        let mut merged_rev = pattern.values_buffer();
        for c in 0..chunks {
            pattern.merge_partial(&mut merged_fwd, &partials_fwd[c]);
            pattern.merge_partial(&mut merged_rev, &partials_rev[c]);
        }
        // Bitwise invariance across fill orders: the worker count never
        // shows in the output.
        prop_assert_eq!(
            merged_fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            merged_rev.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // And the merged accumulation is still the normal matrix.
        let mut serial = pattern.values_buffer();
        for (r, row) in system.entries.iter().enumerate() {
            pattern.accumulate_row(r, row, &mut serial, &mut scratch);
        }
        for (m, s) in merged_fwd.iter().zip(&serial) {
            prop_assert!((m - s).abs() < 1e-9);
        }
    }

    #[test]
    fn supernodal_factor_solve_matches_dense_on_arrowhead_patterns(
        coupling in 96usize..128,
        blocks in 2usize..20,
        picks in proptest::collection::vec((0usize..1000, -4.0f64..4.0), 64),
        damping in 0.01f64..2.0,
    ) {
        let system = arrowhead_system(coupling, blocks, &picks);
        let n = system.cols;
        let (pattern, values) = normal_matrix(&system);
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        prop_assert!(
            symbolic.flops_per_entry() >= 50.0,
            "arrowhead ratio {} below the threshold", symbolic.flops_per_entry()
        );
        prop_assert_eq!(symbolic.kernel(), LdlKernel::Supernodal);
        let diag_add = vec![damping; n];
        let mut numeric = symbolic.numeric();
        prop_assert!(symbolic.factor(&values, &diag_add, &mut numeric));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = b.clone();
        symbolic.solve(&mut numeric, &mut x);
        let oracle = dense_solve(&pattern, &values, damping, &b);
        for i in 0..n {
            prop_assert!(
                (x[i] - oracle[i]).abs() < 1e-6 * (1.0 + oracle[i].abs()),
                "solve mismatch at {}: {} vs {}", i, x[i], oracle[i]
            );
        }
        // Other kernel, same factor up to the order of its columns: the
        // pivots of every variable agree to rounding.
        let scalar = SymbolicLdl::analyze_with_kernel(n, row_ptr, col_idx, LdlKernel::Scalar);
        prop_assert_eq!(scalar.nnz_factor(), symbolic.nnz_factor());
        let mut scalar_numeric = scalar.numeric();
        prop_assert!(scalar.factor(&values, &diag_add, &mut scalar_numeric));
        let (s, p) = (
            pivots_by_variable(&scalar, scalar_numeric.pivots()),
            pivots_by_variable(&symbolic, numeric.pivots()),
        );
        for (s, p) in s.iter().zip(&p) {
            prop_assert!((s - p).abs() <= 1e-9 * s.abs(), "pivot {} vs {}", s, p);
        }
    }

    #[test]
    fn supernodal_kernel_matches_dense_on_random_sparse_patterns(
        raw in proptest::collection::vec(
            proptest::collection::vec((0usize..96, -4.0f64..4.0), 0..5),
            48,
        ),
        damping in 0.01f64..2.0,
    ) {
        // Sparse random patterns make many one-column supernodes and
        // descendants that reach several ancestors: the kernel's corner
        // cases, forced here because `analyze` would pick the scalar one.
        let n = 96;
        let system = build_system(48, n, raw);
        let (pattern, values) = normal_matrix(&system);
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze_with_kernel(n, row_ptr, col_idx, LdlKernel::Supernodal);
        let mut numeric = symbolic.numeric();
        prop_assert!(symbolic.factor(&values, &vec![damping; n], &mut numeric));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut x = b.clone();
        symbolic.solve(&mut numeric, &mut x);
        let oracle = dense_solve(&pattern, &values, damping, &b);
        for i in 0..n {
            prop_assert!(
                (x[i] - oracle[i]).abs() < 1e-6 * (1.0 + oracle[i].abs()),
                "solve mismatch at {}: {} vs {}", i, x[i], oracle[i]
            );
        }
    }

    #[test]
    fn supernodal_factorization_is_bitwise_repeatable_at_any_thread_count(
        coupling in 96usize..112,
        blocks in 2usize..12,
        picks in proptest::collection::vec((0usize..1000, -4.0f64..4.0), 64),
        damping in 0.01f64..2.0,
        threads in 2usize..9,
    ) {
        let system = arrowhead_system(coupling, blocks, &picks);
        let n = system.cols;
        let (pattern, values) = normal_matrix(&system);
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        let diag_add = vec![damping; n];
        let mut fresh = symbolic.numeric();
        prop_assert!(symbolic.factor(&values, &diag_add, &mut fresh));
        // A reused buffer, last used at another damping and then for a
        // rejected factorization, must not leak state into the next one.
        let mut reused = symbolic.numeric();
        prop_assert!(symbolic.factor(&values, &vec![10.0 * damping; n], &mut reused));
        let mut poisoned = values.clone();
        poisoned[0] = f64::NAN;
        prop_assert!(!symbolic.factor(&poisoned, &diag_add, &mut reused));
        prop_assert!(symbolic.factor_parallel(&values, &diag_add, &mut reused, threads));
        prop_assert_eq!(
            fresh.pivots().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reused.pivots().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (mut x1, mut x2) = (b.clone(), b);
        symbolic.solve(&mut fresh, &mut x1);
        symbolic.solve(&mut reused, &mut x2);
        prop_assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dense_into_buffer_variants_match_the_allocating_forms(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        x in proptest::collection::vec(-3.0f64..3.0, 8),
    ) {
        let system = build_system(rows, cols, raw);
        let dense = dense_of(&system);
        let mut transposed = Matrix::zeros(system.cols, system.rows);
        dense.transpose_into(&mut transposed);
        assert_eq!(transposed, dense.transpose());
        let mut product = Matrix::zeros(system.cols, system.cols);
        transposed.mul_into(&dense, &mut product);
        assert_eq!(product, &transposed * &dense);
        let v = Vector::from_slice(&x[..system.cols]);
        let mut out = Vector::zeros(system.rows);
        dense.mul_vec_into(&v, &mut out);
        assert_eq!(out, dense.mul_vec(&v));
    }
}
