//! The statistics the `distributed-random-walks` experiments and tests
//! call:
//!
//! - [`special`] — log-gamma and the regularized incomplete gamma function,
//!   the building blocks for chi-square p-values;
//! - [`chi2`] — Pearson chi-square goodness-of-fit tests (used to validate
//!   that sampled walk endpoints match the exact `l`-step distribution, that
//!   short-walk lengths are uniform on `[lambda, 2*lambda - 1]`, and that
//!   random spanning trees are uniform);
//! - [`regression`] — least-squares fits on log-log data, used to estimate
//!   empirical scaling exponents (e.g. rounds ~ l^alpha).
//!
//! # Example
//!
//! ```
//! use drw_stats::chi2::chi_square_uniform;
//!
//! // 6000 die rolls, roughly uniform.
//! let observed = [1005u64, 998, 1013, 987, 995, 1002];
//! let test = chi_square_uniform(&observed);
//! assert!(test.p_value > 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi2;
pub mod regression;
pub mod special;

pub use chi2::{chi_square_test, chi_square_uniform, ChiSquare};
pub use regression::{linear_fit, log_log_slope, LinearFit};
