//! The paper's evaluation: queries, workloads and the one bench harness.
//!
//! Every table and figure of the paper has a regenerating binary in
//! `src/bin/` (see `DESIGN.md` §5 for the index); the six `*_sweep`
//! binaries measure the engine around them. All of them parse arguments,
//! time, report and gate through [`harness`]; [`queries`] builds the
//! paper's TPC-H evaluation plans (shared with the workspace integration
//! tests) and [`workloads`] the data sets more than one sweep runs.

pub mod harness;
pub mod queries;
pub mod workloads;
