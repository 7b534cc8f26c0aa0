//! `--aa N`: the benchmark measured against itself. Two sides of N runs
//! per workload, each run with another seed, sides alternating which goes
//! first — the driver's acceptance procedure, and the noise floor every
//! later comparison needs beside it.

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::ALL;
use crate::{run_child, Args, DEFAULT_SEED, OUT_DIR};
use std::fmt::Write as _;
use vdm_obs::util::json_string as quote;

/// Runs the A/A comparison, prints it, writes `aa_report.json`. True when
/// every run was correct and every metric stayed within its bound.
pub fn run(args: &Args, runs: usize) -> bool {
    let base = args.seed.unwrap_or(DEFAULT_SEED);
    let mut ok = true;
    let mut report = String::from("{\"runs_per_side\": ");
    let _ = write!(report, "{runs}, \"seconds\": {}, \"workloads\": {{", args.seconds());
    for (wi, workload) in ALL.into_iter().enumerate() {
        // samples[side][metric] = one value per run.
        let mut samples = [vec![Vec::new(); END_TO_END.len()], vec![Vec::new(); END_TO_END.len()]];
        for i in 0..runs {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                match run_child(workload, base + 1 + i as u64, args, false) {
                    Ok(outcome) => {
                        ok &= outcome.correct();
                        for (mi, gate) in END_TO_END.iter().enumerate() {
                            let m = outcome.metrics.iter().find(|m| m.name == gate.name);
                            samples[side][mi].push(m.expect("every gated metric is printed").value);
                        }
                    }
                    Err(e) => {
                        ok = false;
                        eprintln!("{e}");
                    }
                }
            }
        }
        println!("== {} ==", workload.name());
        println!(
            "{:<12} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6}  verdict",
            "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound"
        );
        let sep = if wi == 0 { "" } else { ", " };
        let _ = write!(report, "{sep}{}: {{", quote(workload.name()));
        for (mi, gate) in END_TO_END.iter().enumerate() {
            let (name, bound) = (gate.name, gate.bound);
            let (a, b) = (&samples[0][mi], &samples[1][mi]);
            if a.len() < 2 || b.len() < 2 {
                ok = false;
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let (sa, sb) = (relative_spread(a), relative_spread(b));
            let worse = if gate.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            // `setup_s` is gated on its medians only.
            let spread = if name == "setup_s" { 0.0 } else { sa.max(sb) };
            let verdict = if worse.abs() > 0.10 {
                "DEMOTE: medians differ by more than a tenth"
            } else if spread > bound || worse.abs() > bound {
                "FAIL: outside its bound"
            } else if bound < 2.0 * spread {
                "widen: bound under twice the spread"
            } else {
                "ok"
            };
            ok &= !verdict.starts_with("DEMOTE") && !verdict.starts_with("FAIL");
            println!(
                "{name:<12} {ma:>11.4} {mb:>11.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound * 100.0
            );
            let (qa, qb) = (quartiles(a), quartiles(b));
            let sep = if mi == 0 { "" } else { ", " };
            let _ = write!(
                report,
                "{sep}{}: {{\"median_a\": {ma}, \"median_b\": {mb}, \"quartiles_a\": [{}, {}], \
                 \"quartiles_b\": [{}, {}], \"spread_a\": {sa}, \"spread_b\": {sb}, \
                 \"b_worse_by\": {worse}, \"bound\": {bound}, \"verdict\": {}}}",
                quote(name),
                qa.0,
                qa.1,
                qb.0,
                qb.1,
                quote(verdict)
            );
        }
        report.push('}');
    }
    report.push_str("}}\n");
    let path = format!("{OUT_DIR}/aa_report.json");
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, report)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    ok
}
