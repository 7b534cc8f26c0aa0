//! Shared measurement and reporting tooling.

use std::time::{Duration, Instant};
use vdm_catalog::Catalog;
use vdm_exec::ExecOptions;
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{plan_stats, PlanRef};
use vdm_storage::StorageEngine;

/// Builds a loaded TPC-H environment at the given scale factor.
pub fn setup_tpch(sf: f64, with_foreign_keys: bool) -> (Catalog, StorageEngine) {
    let gen = vdm_data::tpch::Tpch { sf, seed: 42, with_foreign_keys };
    let mut catalog = Catalog::new();
    let engine = StorageEngine::new();
    gen.build(&mut catalog, &engine).expect("TPC-H generation");
    (catalog, engine)
}

/// Median wall time of `iters` executions of an (already optimized) plan
/// under `opts` — thread count, morsel size, and whether the per-operator
/// profile is recorded (the EXPLAIN ANALYZE path; its spread against the
/// unprofiled median is the observability overhead).
pub fn time_plan(
    engine: &StorageEngine,
    plan: &PlanRef,
    opts: &ExecOptions,
    iters: usize,
) -> Duration {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let x = vdm_exec::execute_with(plan, engine, opts).expect("plan executes");
        std::hint::black_box((x.batch.num_rows(), x.profile.map_or(0, |p| p.nodes.len())));
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Cores the host offers this process (what thread ladders are capped at):
/// the engine's default thread count.
pub fn host_cores() -> usize {
    vdm_exec::ParallelConfig::default().threads
}

/// `"host_cores": N, "commit": "…"` — what a `BENCH_*.json` must state
/// beside its data scale before its numbers can be compared with another
/// run's. The commit is `git describe --always --dirty` of the working
/// directory (`unknown` outside a checkout).
pub fn host_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("\"host_cores\": {}, \"commit\": \"{commit}\"", host_cores())
}

/// Optimizes under `profile` and reports whether the plan became join-free
/// (the success criterion of Tables 1, 3, 4: "optimized into a single
/// projection").
pub fn join_free_under(profile: &Profile, plan: &PlanRef) -> bool {
    let optimizer = Optimizer::new(profile.clone());
    let optimized = optimizer.optimize(plan).expect("optimization succeeds");
    plan_stats(&optimized).joins == 0
}

/// Renders a paper-style Y/− status matrix.
pub fn render_matrix(
    title: &str,
    row_names: &[String],
    systems: &[Profile],
    cells: &[Vec<bool>],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let name_width = row_names.iter().map(|r| r.len()).max().unwrap_or(8).max(8);
    out.push_str(&format!("{:name_width$}", ""));
    for s in systems {
        out.push_str(&format!(" | {:>8}", s.name()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(name_width + systems.len() * 11));
    out.push('\n');
    for (row, cell_row) in row_names.iter().zip(cells) {
        out.push_str(&format!("{row:name_width$}"));
        for &y in cell_row {
            out.push_str(&format!(" | {:>8}", if y { "Y" } else { "-" }));
        }
        out.push('\n');
    }
    out
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_millis() >= 10 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0} µs", d.as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_rendering() {
        let systems = vec![Profile::hana(), Profile::postgres()];
        let text = render_matrix(
            "Table T",
            &["Q1".to_string(), "Q2".to_string()],
            &systems,
            &[vec![true, false], vec![true, true]],
        );
        assert!(text.contains("hana"));
        assert!(text.contains('Y'));
        assert!(text.contains('-'));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn tpch_setup_and_timing() {
        let (catalog, engine) = setup_tpch(0.01, false);
        let q = crate::queries::uaj1(&catalog).unwrap();
        let d = time_plan(&engine, &q, &ExecOptions::default(), 3);
        assert!(d.as_nanos() > 0);
        assert!(join_free_under(&Profile::hana(), &q));
        assert!(!join_free_under(&Profile::system_x(), &q));
    }
}
