//! Query execution.
//!
//! A hash-based executor over logical plans: a morsel of a scan is carried
//! through the filters, projections and join probes stacked on it into one
//! sink, and only join build sides, sorts, DISTINCT, unions and aggregate
//! outputs materialize. It keeps the *cost asymmetries* the optimizations
//! exploit directly visible: an unused augmentation join still builds its
//! hash table, a limit that isn't pushed below a join pays for the whole
//! join, and so on — exactly the effects Tables 1–4 and Fig. 14 measure.
//!
//! There is one engine ([`execute_with`]): operators work morsel-at-a-time
//! on columnar [`kernels`]. [`ParallelConfig::threads`] only sets how many
//! workers share a wave of morsels; `threads: 1` runs them in a plain loop on
//! the calling thread and is the serial mode, and every wider wave is
//! broadcast on a [`pool`] — the one a caller installed, else the process
//! pool — whose roles claim morsels one at a time from one shared cursor.
//! [`ExecOptions`] carries the two things a caller chooses — snapshot and
//! thread count/morsel size — and [`Execution`] returns the batch with its
//! per-node [`QueryProfile`] and the worker count used.
//! View maintenance ([`delta`], `vdm-cache`), EXPLAIN ANALYZE and the
//! benches all go through it.
//!
//! The profile is the executor's only runtime accounting; [`Metrics`] rolls
//! it up by operator class so tests and benches can assert *work*, not
//! just wall time.

pub mod delta;
mod executor;
pub mod kernels;
mod ops;
pub mod pool;

#[cfg(test)]
mod ops_tests;

pub use delta::{eval_signed_delta, KeptSides, SignedBatch};
pub use executor::{execute, execute_with, ExecOptions, Execution, ParallelConfig};
pub use pool::{with_worker_pool, WorkerPool};
pub use vdm_obs::{Metrics, NodeIndex, NodeStats, QueryProfile};
