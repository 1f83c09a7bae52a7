//! Exact rational arithmetic and dense linear algebra.
//!
//! This crate provides the numeric substrate used throughout the `polyinv`
//! workspace:
//!
//! * [`Rational`] — arbitrary-precision-free, `i128`-backed normalized
//!   rationals with checked arithmetic, used for all *symbolic* computation
//!   (polynomial coefficients, constraint generation) where exactness
//!   matters.
//! * [`Matrix`] and [`Vector`] — dense, row-major `f64` linear algebra with
//!   LU solves, Cholesky and LDLᵀ factorizations, the Jacobi eigenvalue
//!   algorithm for symmetric matrices, and projection onto the positive
//!   semidefinite cone. These are the building blocks of the sum-of-squares
//!   (Gram matrix) machinery in `polyinv-qcqp`, and the oracle the sparse
//!   routines are property-tested against.
//! * [`sparse`] — the sparse substrate of the Step-4 solve path:
//!   [`CsrMatrix`], the symbolic normal matrix [`JtjPattern`] (JᵀJ
//!   accumulated directly from sparse Jacobian rows) and the sparse LDLᵀ
//!   factorization [`SymbolicLdl`] with a fill-reducing minimum-degree
//!   ordering whose symbolic analysis is computed once and reused across
//!   solver iterations.
//!
//! # Example
//!
//! ```
//! use polyinv_arith::{Rational, Matrix};
//!
//! let half = Rational::new(1, 2);
//! assert_eq!(half + half, Rational::one());
//!
//! let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
//! let chol = m.cholesky().expect("positive definite");
//! let rebuilt = &chol * &chol.transpose();
//! assert!((rebuilt.get(0, 0) - 2.0).abs() < 1e-12);
//! ```

pub mod linalg;
pub mod rational;
pub mod sparse;

pub use linalg::{Matrix, Vector};
pub use rational::{ParseRationalError, Rational, RationalError};
pub use sparse::{CsrMatrix, JtjPattern, JtjScratch, LdlKernel, LdlNumeric, SymbolicLdl};
