//! The one bench harness behind every binary in `src/bin/`: argument
//! parsing ([`Args`]), the timing statistic ([`paired`], [`ladder`],
//! [`percentile`]), the `BENCH_*.json` envelope ([`Report`]), gating
//! ([`Gates`]) and the Tables 1/3/4 recipe ([`status_table`]). It is the
//! only file in `vdm-bench` that reads `std::env::args`, sorts timing
//! samples, formats a duration, writes a file or calls `process::exit`
//! (`scripts/ci.sh` greps for the three calls).
//!
//! **Method.** Every A/B number a binary prints or writes is
//! *paired-interleaved medians, alternating first slot*: one warm-up of
//! each side, then N pairs in which the sides take turns going first, so
//! neither host drift nor the warm caches the first run leaves behind land
//! on one side. A ratio is the quotient of the two medians of those
//! interleaved samples; an overhead is the median of the per-pair deltas
//! over the baseline median. Every `BENCH_*.json` states its host, commit,
//! data scale, pair count and the same statistic's A/A noise floor.

use std::str::FromStr;
use std::time::{Duration, Instant};
use vdm_catalog::Catalog;
use vdm_exec::ExecOptions;
use vdm_obs::util::{json_string, Json};
use vdm_optimizer::{Optimizer, Profile};
use vdm_plan::{plan_stats, PlanRef};
use vdm_storage::StorageEngine;

// ---------------------------------------------------------------- arguments

/// The flags of one bench binary: `--flag=value` or `--flag value`,
/// nothing positional. A flag the binary did not declare is an error that
/// names the declared ones.
pub struct Args {
    accepted: &'static [&'static str],
    values: Vec<(String, String)>,
}

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

impl Args {
    /// Parses the process arguments against the `accepted` flag names
    /// (without the `--`); prints the error and exits 2 on a bad one.
    pub fn parse(accepted: &'static [&'static str]) -> Args {
        Args::from_args(accepted, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`parse`](Args::parse) over an explicit argument list.
    fn from_args(
        accepted: &'static [&'static str],
        raw: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut raw = raw.into_iter();
        let mut values = Vec::new();
        while let Some(arg) = raw.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let name =
                flag.strip_prefix("--").filter(|n| accepted.contains(n)).ok_or_else(|| {
                    let accepted: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
                    format!("unknown argument {flag:?}; accepted flags: {}", accepted.join(" "))
                })?;
            let value = inline.or_else(|| raw.next()).ok_or(format!("--{name} needs a value"))?;
            values.push((name.to_string(), value));
        }
        Ok(Args { accepted, values })
    }

    /// The comma-separated values of `flag` (last occurrence), `None` when
    /// it was not passed.
    fn values<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        assert!(self.accepted.contains(&flag), "--{flag} is read but not declared");
        let Some((_, text)) = self.values.iter().rev().find(|(f, _)| f == flag) else {
            return Ok(None);
        };
        text.split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("--{flag}: cannot parse {s:?}")))
            .collect::<Result<Vec<T>, String>>()
            .map(Some)
    }

    /// A comma list, or `default` when the flag is absent.
    pub fn list<T: FromStr + Clone>(&self, flag: &str, default: &[T]) -> Vec<T> {
        self.values(flag).unwrap_or_else(|e| usage_exit(&e)).unwrap_or_else(|| default.to_vec())
    }

    /// A scalar that has no default (the `--gate-*` bounds).
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        let mut values = self.values(flag).unwrap_or_else(|e| usage_exit(&e))?;
        if values.len() != 1 {
            usage_exit(&format!("--{flag} takes one value"));
        }
        values.pop()
    }

    /// A scalar, or `default` when the flag is absent.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }
}

// --------------------------------------------------------------- statistics

/// The `p`-quantile of `samples` (sorted in place); `p = 0.5` is the median.
pub fn percentile<T: Copy + PartialOrd>(samples: &mut [T], p: f64) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    samples[((samples.len() as f64 * p) as usize).min(samples.len() - 1)]
}

/// What [`paired`] measured: the two medians and the median of the
/// per-pair `b − a` differences in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    pub a: Duration,
    pub b: Duration,
    pub delta_secs: f64,
}

impl Paired {
    /// How many times faster `b` ran than `a`.
    pub fn speedup(&self) -> f64 {
        self.a.as_secs_f64() / self.b.as_secs_f64().max(f64::EPSILON)
    }

    /// What `b` costs on top of `a`, in percent of `a`.
    pub fn overhead_pct(&self) -> f64 {
        self.delta_secs / self.a.as_secs_f64().max(f64::EPSILON) * 100.0
    }
}

/// The one A/B statistic. Each closure runs its side once and returns the
/// time it took. One warm-up of each side (`a` then `b`), then `iters`
/// pairs: even pairs run `a` first, odd pairs `b` first. Each side is
/// therefore called exactly once per pair, warm-up included, which sides
/// that consume input (a fresh delta, the next parameter draw) rely on.
pub fn paired(
    iters: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> Paired {
    a();
    b();
    let (mut sa, mut sb, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..iters {
        let (ta, tb) = if i % 2 == 0 {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        sa.push(ta);
        sb.push(tb);
        deltas.push(tb.as_secs_f64() - ta.as_secs_f64());
    }
    Paired {
        a: percentile(&mut sa, 0.5),
        b: percentile(&mut sb, 0.5),
        delta_secs: percentile(&mut deltas, 0.5),
    }
}

/// The noise floor every envelope carries: [`paired`] with the same side
/// in both slots, as |overhead| in percent.
pub fn noise_floor_pct(iters: usize, side: impl Fn() -> Duration) -> f64 {
    paired(iters, &side, &side).overhead_pct().abs()
}

/// [`paired`] for more than two sides (a thread ladder, the five
/// profiles): one warm-up per step, then `iters` round-robin rounds whose
/// first slot rotates, and the median per step.
pub fn ladder<S>(steps: &[S], iters: usize, mut f: impl FnMut(&S) -> Duration) -> Vec<Duration> {
    for step in steps {
        f(step);
    }
    let mut samples = vec![Vec::with_capacity(iters); steps.len()];
    for round in 0..iters {
        for k in 0..steps.len() {
            let i = (round + k) % steps.len();
            samples[i].push(f(&steps[i]));
        }
    }
    samples.iter_mut().map(|s| percentile(s, 0.5)).collect()
}

/// Wall time of one execution of an (already optimized) plan under `opts`
/// (snapshot, thread count, morsel size).
pub fn time_plan(engine: &StorageEngine, plan: &PlanRef, opts: &ExecOptions) -> Duration {
    let start = Instant::now();
    let x = vdm_exec::execute_with(plan, engine, opts).expect("plan executes");
    std::hint::black_box((x.batch.num_rows(), x.profile.nodes.len()));
    start.elapsed()
}

/// [`paired`] over two plans at the default options: the payoff of a
/// rewrite (`a` = without it, `b` = with it).
pub fn time_pair(engine: &StorageEngine, a: &PlanRef, b: &PlanRef, iters: usize) -> Paired {
    let opts = ExecOptions::default();
    paired(iters, || time_plan(engine, a, &opts), || time_plan(engine, b, &opts))
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

// ----------------------------------------------------------------- envelope

/// Cores the host offers this process (what thread ladders are capped at):
/// the engine's default thread count.
pub fn host_cores() -> usize {
    vdm_exec::ParallelConfig::default().threads
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON number at three decimals (microseconds, when the unit is ms).
pub fn num(v: f64) -> Json {
    Json::Num((v * 1e3).round() / 1e3)
}

/// A JSON count.
pub fn int(v: impl TryInto<u64>) -> Json {
    Json::Num(v.try_into().ok().expect("a non-negative count") as f64)
}

/// A duration as JSON milliseconds.
pub fn millis(d: Duration) -> Json {
    num(d.as_secs_f64() * 1e3)
}

/// One member per line while a container still holds containers (three
/// levels deep at most), compact below: a result row of scalars stays on
/// one line of the committed file.
fn render(json: &Json, depth: usize, out: &mut String) {
    let (open, close, members): (char, char, Vec<(String, &Json)>) = match json {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(&b.to_string()),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
            return out.push_str(&(*n as i64).to_string())
        }
        Json::Num(n) => return out.push_str(&n.to_string()),
        Json::Str(s) => return out.push_str(&json_string(s)),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (String::new(), v)).collect()),
        Json::Obj(members) => {
            let keyed = members.iter().map(|(k, v)| (format!("{}: ", json_string(k)), v));
            ('{', '}', keyed.collect())
        }
    };
    let multiline =
        depth < 3 && members.iter().any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    out.push(open);
    for (i, (prefix, child)) in members.iter().enumerate() {
        out.push_str(match (multiline, i) {
            (true, 0) => "\n",
            (true, _) => ",\n",
            (false, 0) => "",
            (false, _) => ", ",
        });
        if multiline {
            out.push_str(&"  ".repeat(depth + 1));
        }
        out.push_str(prefix);
        render(child, depth + 1, out);
    }
    if multiline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// The one `BENCH_*.json` envelope: where the run happened (`host_cores`,
/// `commit`), at what data `scale`, over how many pairs (`iters`), how
/// noisy the host was (`noise_floor_pct`, see [`noise_floor_pct`]), and the
/// bench's own `results`.
pub struct Report {
    pub bench: &'static str,
    pub scale: Json,
    pub iters: usize,
    pub noise_floor_pct: f64,
    pub results: Json,
}

impl Report {
    /// The envelope as text. The commit is `git describe --always --dirty`
    /// of the working directory (`unknown` outside a checkout).
    pub fn to_json(self) -> String {
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let envelope = obj([
            ("bench", Json::Str(self.bench.into())),
            ("host_cores", int(host_cores())),
            ("commit", Json::Str(commit)),
            ("scale", self.scale),
            ("iters", int(self.iters)),
            ("noise_floor_pct", num(self.noise_floor_pct)),
            ("results", self.results),
        ]);
        let mut text = String::new();
        render(&envelope, 0, &mut text);
        text.push('\n');
        text
    }

    /// Writes the envelope to `file` in the working directory, reads it
    /// back and re-parses it, and prints it.
    pub fn write(self, file: &str) {
        std::fs::write(file, self.to_json()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {file}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
        println!("\nwrote {file}:\n{text}");
    }
}

// -------------------------------------------------------------------- gates

/// The side of a gate's bound the observed value must stay on.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

/// The pass/fail checks of one run. Every check prints one `gate: …` line
/// (`ok`, `FAIL` or `unresolved`); [`finish`](Gates::finish) exits
/// non-zero once, at the end, if any failed.
#[derive(Default)]
pub struct Gates {
    lines: Vec<String>,
    failed: bool,
}

impl Gates {
    fn push(&mut self, line: String) {
        println!("{line}");
        self.lines.push(line);
    }

    /// Checks `observed` against `bound`; returns whether it held.
    pub fn check(&mut self, name: &str, observed: f64, bound: Bound) -> bool {
        let (held, sign, limit) = match bound {
            Bound::AtLeast(limit) => (observed >= limit, '≥', limit),
            Bound::AtMost(limit) => (observed <= limit, '≤', limit),
        };
        self.failed |= !held;
        let verdict = if held { "ok" } else { "FAIL" };
        self.push(format!("gate: {name} = {observed:.3} (bound {sign} {limit:.3}) {verdict}"));
        held
    }

    /// Records a gate that this host cannot decide (one core for a scaling
    /// gate); it does not fail the run.
    pub fn unresolved(&mut self, name: &str, reason: &str) {
        self.push(format!("gate: {name} unresolved ({reason})"));
    }

    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The `gate: …` lines printed so far.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Exits with status 1 if any check failed.
    pub fn finish(self) {
        if self.failed {
            std::process::exit(1);
        }
    }
}

// ------------------------------------------------------- paper status tables

/// Builds a loaded TPC-H environment at the given scale factor.
pub fn setup_tpch(sf: f64, with_foreign_keys: bool) -> (Catalog, StorageEngine) {
    let gen = vdm_data::tpch::Tpch { sf, seed: 42, with_foreign_keys };
    let mut catalog = Catalog::new();
    let engine = StorageEngine::new();
    gen.build(&mut catalog, &engine).expect("TPC-H generation");
    (catalog, engine)
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

/// The recipe of Tables 1, 3 and 4: the join-free status of `queries`
/// under the five paper systems, its agreement with the paper's cells,
/// and the execution-time payoff of the HANA rewrite per query
/// ([`time_pair`], 5 pairs).
pub fn status_table(
    title: &str,
    engine: &StorageEngine,
    queries: &[(&'static str, PlanRef)],
    paper: &[[bool; 5]],
) {
    let systems = Profile::paper_systems();
    let rows: Vec<String> = queries.iter().map(|(name, _)| name.to_string()).collect();
    let cells: Vec<Vec<bool>> = queries
        .iter()
        .map(|(_, plan)| systems.iter().map(|p| join_free_under(p, plan)).collect())
        .collect();
    println!("{}", render_matrix(title, &rows, &systems, &cells));
    let exact = cells.iter().map(Vec::as_slice).eq(paper.iter().map(|row| row.as_slice()));
    if exact {
        println!("Paper agreement: EXACT (all {} cells)", cells.len() * systems.len());
    } else {
        println!("Paper agreement: DIVERGES — investigate!");
    }

    println!("\nExecution time (paired medians of 5):");
    println!("{:12} | {:>12} | {:>12} | {:>8}", "query", "unoptimized", "optimized", "speedup");
    println!("{}", "-".repeat(54));
    let hana = Optimizer::hana();
    for (name, plan) in queries {
        let optimized = hana.optimize(plan).expect("optimize");
        let t = time_pair(engine, plan, &optimized, 5);
        println!(
            "{name:12} | {:>12} | {:>12} | {:>7.1}x",
            fmt_duration(t.a),
            fmt_duration(t.b),
            t.speedup()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_accept_both_spellings_and_lists() {
        const FLAGS: &[&str] = &["rows", "threads", "gate"];
        let args = Args::from_args(FLAGS, strings(&["--rows=800", "--threads", "1, 4"])).unwrap();
        assert_eq!(args.get("rows", 5usize), 800);
        assert_eq!(args.list("threads", &[1usize, 2, 4, 8]), vec![1, 4]);
        assert_eq!(args.opt::<f64>("gate"), None);
        let defaults = Args::from_args(FLAGS, strings(&[])).unwrap();
        assert_eq!(defaults.get("rows", 5usize), 5);
        assert_eq!(defaults.list("threads", &[1usize, 2]), vec![1, 2]);
        assert!(args.values::<usize>("gate").unwrap().is_none());
        let bad = Args::from_args(FLAGS, strings(&["--rows=many"])).unwrap();
        assert!(bad.values::<usize>("rows").unwrap_err().contains("--rows"));
    }

    #[test]
    fn args_reject_unknown_flags_naming_the_accepted_set() {
        const FLAGS: &[&str] = &["rows", "gate"];
        for bad in [&["--iters=3"][..], &["150000"], &["--rows"]] {
            let err = Args::from_args(FLAGS, strings(bad)).err().expect("rejected");
            if bad[0] != "--rows" {
                assert!(err.contains("--rows") && err.contains("--gate"), "{err}");
                assert!(err.contains(bad[0].split('=').next().unwrap()), "{err}");
            } else {
                assert!(err.contains("needs a value"), "{err}");
            }
        }
    }

    #[test]
    fn paired_alternates_the_first_slot_and_takes_the_median_pair_delta() {
        // Scripted timings under host drift, pairs (a, b) in ms:
        // (10, 15), (30, 31), (20, 40); index 0 is the warm-up.
        let log = RefCell::new(String::new());
        let (ta, tb) = ([99u64, 10, 30, 20], [99u64, 15, 31, 40]);
        let (mut ia, mut ib) = (0, 0);
        let p = paired(
            3,
            || {
                log.borrow_mut().push('a');
                ia += 1;
                Duration::from_millis(ta[ia - 1])
            },
            || {
                log.borrow_mut().push('b');
                ib += 1;
                Duration::from_millis(tb[ib - 1])
            },
        );
        // Warm-up a b, then a-first, b-first, a-first.
        assert_eq!(*log.borrow(), "ab".to_owned() + "ab" + "ba" + "ab");
        assert_eq!((p.a, p.b), (Duration::from_millis(20), Duration::from_millis(31)));
        // Per-pair deltas are 5, 1, 20 ms: the median is 5 ms, where the
        // delta of the two independent medians would say 31 − 20 = 11 ms.
        assert!((p.delta_secs - 0.005).abs() < 1e-9, "{p:?}");
        assert!((p.overhead_pct() - 25.0).abs() < 1e-6, "{p:?}");
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&mut [7u64], 0.99), 7);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        let mut hundred: Vec<u32> = (0..100).rev().collect();
        assert_eq!(percentile(&mut hundred, 0.99), 99);
        assert_eq!(percentile(&mut hundred, 0.0), 0);
    }

    #[test]
    fn ladder_rotates_and_returns_one_median_per_step() {
        let log = RefCell::new(Vec::new());
        let medians = ladder(&[1u64, 2, 3], 2, |&s| {
            log.borrow_mut().push(s);
            Duration::from_millis(s)
        });
        assert_eq!(*log.borrow(), vec![1, 2, 3, 1, 2, 3, 2, 3, 1]);
        assert_eq!(medians, [1, 2, 3].map(Duration::from_millis));
    }

    #[test]
    fn report_round_trips_with_every_envelope_key() {
        let report = Report {
            bench: "unit",
            scale: obj([("rows", int(1_000_000)), ("label", Json::Str("a \"b\"".into()))]),
            iters: 5,
            noise_floor_pct: 0.4567,
            results: Json::Arr(vec![obj([("millis", millis(Duration::from_micros(1500)))])]),
        };
        let text = report.to_json();
        let parsed = Json::parse(&text).expect("envelope parses");
        for key in ["bench", "host_cores", "commit", "scale", "iters", "noise_floor_pct", "results"]
        {
            assert!(parsed.get(key).is_some(), "missing {key} in {text}");
        }
        assert_eq!(
            parsed.get("scale").and_then(|s| s.get("rows")).and_then(Json::as_u64),
            Some(1_000_000)
        );
        assert_eq!(parsed.get("noise_floor_pct").and_then(Json::as_f64), Some(0.457));
        assert_eq!(
            parsed.get("results").unwrap().as_array().unwrap()[0].get("millis").unwrap().as_f64(),
            Some(1.5)
        );
        // One envelope key and one result row per line.
        assert!(text.contains("\n  \"iters\": 5,\n"), "{text}");
        assert!(text.contains("\n    {\"millis\": 1.5}\n"), "{text}");
    }

    #[test]
    fn gates_fail_as_a_value_and_mark_unresolved_distinctly() {
        let mut gates = Gates::default();
        assert!(gates.check("speedup", 2.3, Bound::AtLeast(2.0)));
        gates.unresolved("scaling efficiency", "1 core");
        assert!(!gates.failed());
        assert!(!gates.check("p99 ms", 151.0, Bound::AtMost(150.0)));
        assert!(gates.failed(), "a failed check is a value until finish()");
        let lines = gates.lines();
        assert!(lines.iter().all(|l| l.starts_with("gate: ")));
        assert!(lines[0].ends_with(" ok") && lines[2].ends_with(" FAIL"), "{lines:?}");
        assert!(lines[1].contains("unresolved (1 core)") && !lines[1].contains("ok"));
    }

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
        let d = time_plan(&engine, &q, &ExecOptions::default());
        assert!(d.as_nanos() > 0);
        assert!(join_free_under(&Profile::hana(), &q));
        assert!(!join_free_under(&Profile::system_x(), &q));
    }
}
