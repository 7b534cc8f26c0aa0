//! `e2e_sweep`: the repo's benchmark. Four ERP workloads through one
//! `vdm_serve::Server`, gated end-to-end metrics, and an outside-in
//! per-layer trace. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repo.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_sweep/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
//!     [--journal-rows N] [--smoke] [--aa N] [--bless]
//! ```
//!
//! With `--workload` the process runs that workload and prints its result
//! as the last line of standard output (the driver's contract). Without
//! it, every workload runs in a child process of its own — so `setup_s`
//! and `peak_rss_mb` are its own — and a table of every metric follows.

mod aa;
mod data;
mod golden;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod system;
mod workloads;

use golden::{Golden, DEFAULT_SEED};
use metrics::{end_to_end_units, Metric, PER_LAYER};
use spans::Recorder;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use system::{Config, Twin};
use vdm_core::PlanCacheStats;
use vdm_obs::util::{json_string as quote, Json};
use vdm_obs::{names, MetricsRegistry, QueryStore};
use vdm_storage::zonemap::ZONE_BLOCK_ROWS;
use vdm_types::Result;
use workloads::{Scale, Workload};

/// `run_seconds` of `BENCHMARK.json`: the window a run without
/// `--seconds` sizes its op count for.
pub const DEFAULT_SECONDS: usize = 15;
/// How often a contract run sets the system up; `setup_s` is the median.
const SETUPS: usize = 3;
/// Where span files and the A/A report go, relative to the working
/// directory (the root `.gitignore` names `/target`).
pub const OUT_DIR: &str = "target/e2e_sweep";

#[derive(Debug, Clone, Default)]
pub struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<usize>,
    trace: bool,
    journal_rows: Option<usize>,
    smoke: bool,
    aa: Option<usize>,
    bless: bool,
}

fn parse_args(raw: &[String]) -> std::result::Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> std::result::Result<String, String> {
        *i += 1;
        raw.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> std::result::Result<u64, String> {
        text.parse().map_err(|_| format!("{flag} takes a whole number, got {text:?}"))
    };
    while i < raw.len() {
        let flag = raw[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = Some(number(value(&mut i, flag)?, flag)?),
            "--seconds" => {
                let n = number(value(&mut i, flag)?, flag)? as usize;
                if !(1..=60).contains(&n) {
                    return Err("--seconds takes 1 to 60".into());
                }
                args.seconds = Some(n);
            }
            // `--trace` alone, or the driver's `--trace 0|1`.
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--journal-rows" => {
                args.journal_rows = Some(number(value(&mut i, flag)?, flag)?.max(100) as usize)
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = Some(number(value(&mut i, flag)?, flag)?.max(2) as usize),
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> usize {
        self.seconds.unwrap_or(DEFAULT_SECONDS)
    }

    fn config(&self, workload: Workload) -> Config {
        let scale = if self.smoke {
            Scale::smoke()
        } else {
            Scale::contract(workload, self.seconds(), self.journal_rows)
        };
        Config { workload, seed: self.seed.unwrap_or(DEFAULT_SEED), scale }
    }
}

/// The result of one run: what the last line of standard output says.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line. Values keep every digit measured.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The untraced pass: set-up, warm-up, the timed window, verification —
/// then `SETUPS - 1` more set-ups, so that `setup_s` is a median. The
/// extra set-ups come last and peak memory is read before them: the
/// high-water mark is then one system's, whatever the allocator does with
/// memory freed between set-ups.
pub fn run_untraced(cfg: &Config, setups: usize, golden: &Golden) -> Result<(Outcome, String)> {
    QueryStore::global().clear();
    let (mut sys, took) = run::set_up_warm(cfg)?;
    let mut setup_s = vec![took.as_secs_f64()];
    let mut window = run::Window::default();
    run::verify_view_goldens(cfg, &sys, golden, &mut window)?;
    let reopt_before = MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL);
    run::timed_window(cfg, &mut sys, None, &mut Recorder::new(false), &mut window);
    let reopts = MetricsRegistry::global().counter(names::REOPTIMIZATIONS_TOTAL) - reopt_before;
    run::verify(cfg, &sys, golden, &mut window)?;
    let peak_rss_mb = run::peak_rss_mb()?;
    drop(sys);
    for _ in 1..setups {
        setup_s.push(run::set_up_warm(cfg)?.1.as_secs_f64());
    }
    for failure in &window.failures {
        eprintln!("FAILED {failure}");
    }
    let kept = window.kept_primary_ms();
    let values = [
        ("p50_ms", stats::percentile(&kept, 0.5)),
        ("p90_ms", stats::percentile(&kept, 0.9)),
        ("ops_per_s", window.ops_per_s()),
        ("setup_s", stats::median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let outcome = Outcome {
        attempted: window.attempted,
        failed: window.failed,
        metrics: metrics::assemble(&end_to_end_units(), &values),
    };
    let envelope = envelope(
        cfg,
        &[
            ("percentile_samples", kept.len() as f64),
            ("samples_beyond_p90", (kept.len() / 10) as f64),
            ("window_s", window.busy().as_secs_f64()),
            ("setups", setups as f64),
            ("reoptimizations_in_window", reopts as f64),
            ("golden_checked", if golden.covers(cfg) { 1.0 } else { 0.0 }),
        ],
    );
    Ok((outcome, envelope))
}

/// The traced pass: a quarter of the op sequence, first with the
/// recorder off (the overhead baseline), then with it on; every operation
/// followed by its staged replay on the twin.
pub fn run_traced(cfg: &Config) -> Result<(Outcome, String, Recorder)> {
    QueryStore::global().clear();
    let cfg = Config { scale: cfg.scale.quarter(), ..*cfg };
    let mut sys = system::System::set_up(&cfg)?;
    let twin = Twin::set_up(&cfg, &sys)?;
    sys.warm_up(Some(&twin))?;

    let mut untraced = run::Window::default();
    run::timed_window(&cfg, &mut sys, Some(&twin), &mut Recorder::new(false), &mut untraced);
    let mut rec = Recorder::new(true);
    let mut window = run::Window::default();
    let before = run::ServerCounters::read(&sys)?;
    run::timed_window(&cfg, &mut sys, Some(&twin), &mut rec, &mut window);
    let after = run::ServerCounters::read(&sys)?;
    for failure in untraced.failures.iter().chain(&window.failures) {
        eprintln!("FAILED {failure}");
    }
    let main_rows = sys.server.engine().fragment_sizes("acdoca")?.0;
    let blocks_offered = window.reads * main_rows.div_ceil(ZONE_BLOCK_ROWS);
    let lookups = PlanCacheStats {
        hits: after.plan_cache.hits - before.plan_cache.hits,
        misses: after.plan_cache.misses - before.plan_cache.misses,
        evictions: 0,
    };
    let counters = layers::Counters {
        plan_cache_hit_rate: lookups.hit_rate(),
        reoptimizations: after.reoptimizations - before.reoptimizations,
        blocks_skipped_frac: (after.blocks_skipped - before.blocks_skipped) as f64
            / blocks_offered.max(1) as f64,
        scan_ms: twin.scan_ms()?,
        delta_rows: twin.db.engine().fragment_sizes("acdoca")?.1,
        group_recomputes: after.group_recomputes - before.group_recomputes,
        minmax_full_refreshes: after.minmax_full_refreshes - before.minmax_full_refreshes,
        untraced_p50_ms: untraced.p50_ms(),
        traced_p50_ms: window.p50_ms(),
    };
    let outcome = Outcome {
        attempted: untraced.attempted + window.attempted,
        failed: untraced.failed + window.failed,
        metrics: layers::per_layer(&rec, &counters),
    };
    let envelope = envelope(
        &cfg,
        &[("spans", rec.spans().len() as f64), ("window_s", window.busy().as_secs_f64())],
    );
    Ok((outcome, envelope, rec))
}

/// The reproducibility envelope: what a number needs beside it to be
/// compared with another — host width, commit, toolchain, seed, scale.
fn envelope(cfg: &Config, extra: &[(&str, f64)]) -> String {
    let tool = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\"envelope\": {{\"workload\": {}, \"seed\": {}, \"journal_rows\": {}, \
         \"rounds\": {}, \"round_ops\": {}, \"available_parallelism\": {cores}, \"pool_threads\": {}, \
         \"client_threads\": 1, \"commit\": {}, \"rustc\": {}",
        quote(cfg.workload.name()),
        cfg.seed,
        cfg.scale.journal_rows,
        cfg.scale.rounds,
        cfg.scale.round_ops,
        vdm_exec::ParallelConfig::default().threads,
        quote(&tool("git", &["rev-parse", "--short", "HEAD"])),
        quote(&tool("rustc", &["-V"])),
    );
    for (key, value) in extra {
        let _ = write!(out, ", {}: {value}", quote(key));
    }
    out.push_str("}}");
    out
}

/// Runs one workload in this process and prints the contract's lines.
fn run_one(args: &Args, workload: Workload) -> Result<bool> {
    let cfg = args.config(workload);
    let setups = if args.smoke { 1 } else { SETUPS };
    let (outcome, envelope) = if args.trace {
        let (outcome, envelope, rec) = run_traced(&cfg)?;
        let path = format!("{OUT_DIR}/{}.spans.jsonl", workload.name());
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, rec.to_jsonl()));
        match written {
            Ok(()) => eprintln!("wrote {path} ({} spans)", rec.spans().len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        for (name, pct) in layers::share_table(&rec) {
            eprintln!("share of call time  {name:<22} {pct:>6.2} %");
        }
        (outcome, envelope)
    } else {
        run_untraced(&cfg, setups, &Golden::committed())?
    };
    println!("{envelope}");
    println!("{}", outcome.to_json());
    Ok(outcome.correct())
}

/// Runs `workload` in a child process with `args`' settings and parses
/// the result line it prints last.
pub fn run_child(
    workload: Workload,
    seed: u64,
    args: &Args,
    trace: bool,
) -> std::result::Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &args.seconds().to_string(), "--trace", if trace { "1" } else { "0" }]);
    if let Some(rows) = args.journal_rows {
        cmd.args(["--journal-rows", &rows.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{}: no output", workload.name()))?;
    parse_outcome(last).map_err(|e| format!("{}: {e} in {last:?}", workload.name()))
}

/// The members of a JSON object; none for anything else.
pub fn members(value: Option<&Json>) -> &[(String, Json)] {
    match value {
        Some(Json::Obj(members)) => members,
        _ => &[],
    }
}

/// Parses a result line back into an [`Outcome`].
pub fn parse_outcome(line: &str) -> std::result::Result<Outcome, String> {
    let doc = Json::parse(line)?;
    let count = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or(format!("no {key}"));
    let mut metrics = Vec::new();
    for (name, body) in members(doc.get("metrics")) {
        let table = end_to_end_units();
        let &(name, unit) = table
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| n == name)
            .ok_or(format!("unknown metric {name}"))?;
        let value = body.get("value").and_then(Json::as_f64).ok_or(format!("{name}: no value"))?;
        metrics.push(Metric { name, unit, value });
    }
    Ok(Outcome {
        attempted: count("attempted")? as usize,
        failed: count("failed")? as usize,
        metrics,
    })
}

/// Every workload, each in its own child process; prints every metric by
/// name with its unit.
fn run_all(args: &Args) -> bool {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut ok = true;
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for &trace in passes {
        println!("== {} pass, seed {seed} ==", if trace { "traced" } else { "untraced" });
        for workload in workloads::ALL {
            match run_child(workload, seed, args, trace) {
                Ok(outcome) => {
                    ok &= outcome.correct();
                    println!(
                        "{}: attempted {} failed {} (failed_frac {})",
                        workload.name(),
                        outcome.attempted,
                        outcome.failed,
                        outcome.failed as f64 / outcome.attempted.max(1) as f64
                    );
                    for m in &outcome.metrics {
                        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("{e}");
                }
            }
        }
    }
    ok
}

/// `--bless`: regenerates `golden_digests.json` from the default seed.
fn bless(args: &Args) -> Result<()> {
    let mut golden = Golden { seed: DEFAULT_SEED, ..Golden::default() };
    for workload in workloads::ALL {
        let mut cfg =
            Args { seed: Some(DEFAULT_SEED), smoke: false, ..args.clone() }.config(workload);
        if workload != Workload::HtapMixed {
            // Once through the whole grid, whatever `--seconds` says.
            let grid_len = workloads::read_grid(workload, cfg.seed, &|_, _| 1).len();
            cfg.scale = Scale { rounds: 1, round_ops: grid_len, ..cfg.scale };
        }
        let (mut sys, _) = run::set_up_warm(&cfg)?;
        let mut digests = std::collections::BTreeMap::new();
        let mut record_views = |sys: &system::System| -> Result<()> {
            if workload == Workload::HtapMixed {
                for (name, digest) in run::view_digests(sys)? {
                    digests.insert(format!("{name}@{}", sys.posting.next_batch), digest);
                }
            }
            Ok(())
        };
        record_views(&sys)?;
        let mut window = run::Window::default();
        run::timed_window(&cfg, &mut sys, None, &mut Recorder::new(false), &mut window);
        assert_eq!(window.failed, 0, "bless run failed: {:?}", window.failures);
        sys.server.refresh_cached_views()?;
        record_views(&sys)?;
        digests.extend(window.digests);
        println!("{}: {} digests", workload.name(), digests.len());
        golden.workloads.insert(workload.name().to_string(), (cfg.scale.journal_rows, digests));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden_digests.json");
    std::fs::write(path, golden.to_json()).map_err(|e| vdm_types::VdmError::Exec(e.to_string()))?;
    println!("wrote {path}; rebuild to embed it");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.bless {
        bless(&args).map(|()| true)
    } else if let Some(runs) = args.aa {
        Ok(aa::run(&args, runs))
    } else if let Some(workload) = args.workload {
        run_one(&args, workload)
    } else {
        Ok(run_all(&args))
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e_sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
