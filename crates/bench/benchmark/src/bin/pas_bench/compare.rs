//! `pas_bench compare A.json B.json`: per workload, one row per end-to-end
//! metric with both medians, their quartiles and a verdict, and a
//! `failed_frac` row. A is the parent, B the change, and the runs of each
//! file are paired in order; the rules are in [`verdict`] and
//! [`workload_rows`].

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::record::{ResultFile, RunRecord};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound (or too few runs to
    /// tell), and no side won every comparison; or a gain that does not
    /// count because B failed more operations than A.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs of runs a gain can rest on.
const MIN_PAIRS: usize = 10;

/// The verdict on change runs `b` against parent runs `a` of one metric.
///
/// - Fewer than two runs on a side, or a relative IQR (of either side)
///   wider than `bound`: `better` only if every run of `b` beats every run
///   of `a` over at least ten pairs, `worse` if every run of `b` loses to
///   every run of `a`, else `unresolved`.
/// - Otherwise `worse` when `b`'s median is worse than `a`'s by more than
///   `bound` (as a share of `a`'s median); `better` when `b` wins at least
///   nine tenths of at least ten pairs and the medians differ by more
///   than `a`'s IQR; else `unchanged`.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    let spread = match (stats::relative_iqr(a), stats::relative_iqr(b)) {
        (Some(sa), Some(sb)) => Some(sa.max(sb)),
        _ => None,
    };
    let (Some(ma), Some(mb), Some((q1a, q3a))) =
        (stats::median(a), stats::median(b), stats::quartiles(a))
    else {
        return Verdict::Unresolved;
    };
    if spread.is_none_or(|s| s > bound) {
        return if all_better && pairs >= MIN_PAIRS {
            Verdict::Better
        } else if all_worse && !a.is_empty() && !b.is_empty() {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if higher_is_better { ma - mb } else { mb - ma };
    if worse_by > bound * ma.abs() {
        return Verdict::Worse;
    }
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    if beats(mb, ma) && (mb - ma).abs() > q3a - q1a && pairs >= MIN_PAIRS && wins * 10 >= pairs * 9
    {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The failures of one side's runs of a workload.
struct Failures {
    failed: u64,
    attempted: u64,
    /// Runs that failed a correctness gate.
    incorrect: usize,
}

impl Failures {
    fn of(runs: &[&RunRecord]) -> Self {
        Self {
            failed: runs.iter().map(|r| r.failed).sum(),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            incorrect: runs.iter().filter(|r| !r.correct).count(),
        }
    }

    fn frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// More runs failed a gate, or a larger share of operations failed,
    /// than in `other`: the bound on failures is +0.
    fn more_than(&self, other: &Self) -> bool {
        self.incorrect > other.incorrect || self.frac() > other.frac()
    }

    fn text(&self) -> String {
        format!(
            "{:.6} ({}/{}, {} incorrect)",
            self.frac(),
            self.failed,
            self.attempted,
            self.incorrect
        )
    }
}

fn spread_text(values: &[f64]) -> String {
    match (stats::median(values), stats::quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
        (Some(m), None) => format!("{m:.6}"),
        _ => "-".to_string(),
    }
}

/// One line of the comparison table.
pub struct Row {
    pub metric: &'static str,
    /// Runs behind the A and B columns.
    pub runs: (usize, usize),
    pub a: String,
    pub b: String,
    pub verdict: Verdict,
}

/// The rows of one workload, none if neither file ran it: one per
/// end-to-end metric, then `failed_frac`, which is `worse` whenever B
/// fails more than A. When it does, no metric of the workload may read
/// `better`: such a gain is reported as `unresolved`. Both sides must have
/// run for the same number of seconds.
pub fn workload_rows(a: &ResultFile, b: &ResultFile, workload: &str) -> Result<Vec<Row>, String> {
    fn untraced<'a>(f: &'a ResultFile, workload: &str) -> Vec<&'a RunRecord> {
        f.runs
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .collect()
    }
    let (ra, rb) = (untraced(a, workload), untraced(b, workload));
    let mut lengths: Vec<u64> = ra.iter().chain(&rb).map(|r| r.seconds).collect();
    lengths.sort_unstable();
    lengths.dedup();
    if lengths.len() > 1 {
        return Err(format!(
            "{workload}: runs of {lengths:?} seconds; both sides must run equally long"
        ));
    }
    if lengths.is_empty() {
        return Ok(Vec::new());
    }
    let (fa, fb) = (Failures::of(&ra), Failures::of(&rb));
    let b_fails_more = fb.more_than(&fa);
    let mut rows = Vec::new();
    for m in &END_TO_END {
        let values = |runs: &[&RunRecord]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metric(m.name).map(|x| x.value))
                .collect()
        };
        let (va, vb) = (values(&ra), values(&rb));
        let verdict = match verdict(&va, &vb, m.higher_is_better, m.bound) {
            Verdict::Better if b_fails_more => Verdict::Unresolved,
            v => v,
        };
        rows.push(Row {
            metric: m.name,
            runs: (va.len(), vb.len()),
            a: spread_text(&va),
            b: spread_text(&vb),
            verdict,
        });
    }
    rows.push(Row {
        metric: "failed_frac",
        runs: (ra.len(), rb.len()),
        a: fa.text(),
        b: fb.text(),
        verdict: if b_fails_more {
            Verdict::Worse
        } else if fa.more_than(&fb) {
            Verdict::Better
        } else {
            Verdict::Unchanged
        },
    });
    Ok(rows)
}

/// Prints the comparison table. Returns whether no row was `worse`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: pas_bench compare A.json B.json".into());
    };
    let (a, b) = (ResultFile::read(a_path)?, ResultFile::read(b_path)?);
    println!("A: {a_path} ({} CPUs, {})", a.nproc, a.cpu_model);
    println!("B: {b_path} ({} CPUs, {})", b.nproc, b.cpu_model);
    println!(
        "{:<14} {:<12} {:>5} {:>42} {:>42}  verdict",
        "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]"
    );
    let mut no_regression = true;
    for workload in WORKLOADS {
        for row in workload_rows(&a, &b, workload)? {
            no_regression &= row.verdict != Verdict::Worse;
            println!(
                "{workload:<14} {:<12} {:>5} {:>42} {:>42}  {}",
                row.metric,
                format!("{}/{}", row.runs.0, row.runs.1),
                row.a,
                row.b,
                row.verdict.label()
            );
        }
    }
    Ok(no_regression)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metric;

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0)))
            .collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = around(100.0, 10);
        assert_eq!(verdict(&a, &a, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&a, &a, false, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_needs_ten_winning_pairs() {
        let a = around(100.0, 10);
        let b = around(120.0, 10);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Better);
        // Lower is better: the same numbers are a regression beyond 10%.
        assert_eq!(verdict(&a, &b, false, 0.1), Verdict::Worse);
        // Nine pairs cannot carry a gain.
        assert_eq!(verdict(&a[..9], &b[..9], true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_unchanged() {
        let a = vec![
            97.0, 98.0, 99.0, 100.0, 101.0, 102.0, 103.0, 98.5, 101.5, 100.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn small_slowdown_within_the_bound_is_unchanged() {
        let a = around(100.0, 10);
        let b = around(95.0, 10);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_wins_every_comparison() {
        let a = vec![
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Unresolved);
        let far: Vec<f64> = a.iter().map(|x| x + 1000.0).collect();
        assert_eq!(verdict(&a, &far, true, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &far, false, 0.1), Verdict::Worse);
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(verdict(&[1.0], &[1.0], true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[], &[1.0, 2.0], true, 0.1), Verdict::Unresolved);
    }

    /// Ten runs of `mc-fig5` at `ops_per_s` around `rate`, with `failed`
    /// of 1000 ops failed in the first run.
    fn runs(rate: f64, failed: u64, seconds: u64) -> ResultFile {
        let runs = around(rate, 10)
            .into_iter()
            .enumerate()
            .map(|(i, r)| RunRecord {
                workload: "mc-fig5".to_string(),
                seed: i as u64,
                seconds,
                traced: false,
                correct: true,
                attempted: 1000,
                failed: if i == 0 { failed } else { 0 },
                failures: Vec::new(),
                metrics: vec![
                    Metric::value("setup_s", 0.01),
                    Metric::value("ops_per_s", r),
                    Metric::value("op_p50_ms", 1e3 / r),
                    Metric::value("peak_rss_mb", 5.0),
                ],
            })
            .collect();
        ResultFile {
            nproc: 2,
            cpu_model: "test".to_string(),
            runs,
        }
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect(metric)
            .verdict
    }

    #[test]
    fn each_workload_gets_a_failed_frac_row() {
        let rows = workload_rows(&runs(100.0, 0, 12), &runs(120.0, 0, 12), "mc-fig5")
            .expect("same lengths");
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Better);
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Better);
        assert_eq!(verdict_of(&rows, "failed_frac"), Verdict::Unchanged);
        // Fewer failures are better.
        let rows = workload_rows(&runs(100.0, 3, 12), &runs(100.0, 0, 12), "mc-fig5")
            .expect("same lengths");
        assert_eq!(verdict_of(&rows, "failed_frac"), Verdict::Better);
        // A workload neither file ran has no rows.
        let none = workload_rows(&runs(100.0, 0, 12), &runs(100.0, 0, 12), "serve-mix");
        assert!(none.expect("no runs").is_empty());
    }

    #[test]
    fn one_more_failure_is_worse_and_voids_every_gain() {
        let rows = workload_rows(&runs(100.0, 0, 12), &runs(120.0, 1, 12), "mc-fig5")
            .expect("same lengths");
        assert_eq!(verdict_of(&rows, "failed_frac"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Unresolved);
        // A regression stays a regression.
        let rows = workload_rows(&runs(100.0, 0, 12), &runs(70.0, 1, 12), "mc-fig5")
            .expect("same lengths");
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Worse);
    }

    #[test]
    fn a_run_that_failed_a_gate_is_worse() {
        let a = runs(100.0, 0, 12);
        let mut b = runs(100.0, 0, 12);
        b.runs[3].correct = false;
        b.runs[3].metrics.clear();
        let rows = workload_rows(&a, &b, "mc-fig5").expect("same lengths");
        assert_eq!(verdict_of(&rows, "failed_frac"), Verdict::Worse);
    }

    #[test]
    fn runs_of_different_lengths_are_refused() {
        assert!(workload_rows(&runs(100.0, 0, 12), &runs(100.0, 0, 6), "mc-fig5").is_err());
    }
}
