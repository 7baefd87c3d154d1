//! `compare A_DIR B_DIR`: per workload and end-to-end metric, the base
//! median, the new median, their ratio and a verdict under the bounds fixed
//! in [`crate::metrics::END_TO_END`]. A directory holds `BENCH_<workload>.json`
//! files; each accumulates one entry per run written into it, so running the
//! suite several times with the same `--out` gives the medians a spread.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::SPECS;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule of the choosing-metrics guide: a median worse than the base's
/// by more than the bound is a regression; where either side's run-to-run
/// spread (interquartile range over median) is wider than the bound the
/// pair is unresolved, unless every new run reads better than every base
/// run. Single runs have no spread and are judged on the medians alone.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (base_median, new_median) = (median(base)?, median(new)?);
    if base_median == 0.0 {
        return None;
    }
    // Positive = worse, as a share of the base.
    let change = match better {
        Better::Lower => (new_median - base_median) / base_median,
        Better::Higher => (base_median - new_median) / base_median,
    };
    let all_better = match better {
        Better::Lower => max(new) < min(base),
        Better::Higher => min(new) > max(base),
    };
    let widest = spread(base).unwrap_or(0.0).max(spread(new).unwrap_or(0.0));
    Some(if all_better && base.len() > 1 && new.len() > 1 {
        Verdict::Better
    } else if widest > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound.max(widest) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    })
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Every run's value of `metric` in one `BENCH_<workload>.json`.
fn metric_runs(file: &Json, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = dir.join(format!("BENCH_{workload}.json"));
    let text =
        std::fs::read_to_string(&path).map_err(|error| format!("{}: {error}", path.display()))?;
    Json::parse(&text).map_err(|error| format!("{}: {error}", path.display()))
}

/// Prints the table; returns whether every pair is better or within bound.
pub fn compare(base_dir: &Path, new_dir: &Path) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<15} {:<17} {:>14} {:>14} {:>7} {:>6}  verdict (runs base/new)",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for spec in &SPECS {
        let (base_file, new_file) = (load(base_dir, spec.name)?, load(new_dir, spec.name)?);
        let fnv = |file: &Json| {
            file.get("runs")
                .and_then(Json::as_arr)
                .and_then(|runs| runs.first())
                .and_then(|run| run.get("corpus_fnv64"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if fnv(&base_file) != fnv(&new_file) {
            println!(
                "{:<15} note: the two sides analysed different bytes (corpus_fnv64 differs)",
                spec.name
            );
        }
        for &(metric, unit, better, bound) in &END_TO_END {
            let (base, new) = (
                metric_runs(&base_file, metric),
                metric_runs(&new_file, metric),
            );
            let row = match (
                median(&base),
                median(&new),
                verdict(&base, &new, better, bound),
            ) {
                (Some(b), Some(n), Some(verdict)) => {
                    clean &= matches!(verdict, Verdict::Better | Verdict::WithinBound);
                    format!(
                        "{b:>14.4} {n:>14.4} {:>7.3} {:>5.0}%  {} ({}/{})",
                        n / b,
                        bound * 100.0,
                        verdict.as_str(),
                        base.len(),
                        new.len()
                    )
                }
                _ => {
                    clean = false;
                    "missing on one side".to_string()
                }
            };
            println!(
                "{:<15} {:<17} {row}",
                spec.name,
                format!("{metric} [{unit}]")
            );
        }
        let failed = |file: &Json| -> f64 {
            file.get("runs")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|run| run.get("failed_ops")?.as_f64())
                .sum()
        };
        let (base_failed, new_failed) = (failed(&base_file), failed(&new_file));
        if base_failed + new_failed > 0.0 {
            clean = false;
        }
        println!(
            "{:<15} {:<17} {base_failed:>14} {new_failed:>14}",
            spec.name, "failed_ops"
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up_20 = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [100.0, 140.0, 70.0, 125.0, 90.0];
        assert_eq!(
            verdict(&steady, &steady, Better::Lower, 0.10),
            Some(Verdict::WithinBound)
        );
        assert_eq!(
            verdict(&steady, &up_20, Better::Lower, 0.10),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(&up_20, &steady, Better::Lower, 0.10),
            Some(Verdict::Better)
        );
        assert_eq!(
            verdict(&steady, &up_20, Better::Higher, 0.10),
            Some(Verdict::Better)
        );
        assert_eq!(
            verdict(&up_20, &steady, Better::Higher, 0.10),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.10),
            Some(Verdict::Unresolved)
        );
        // Noisy, yet every new run beats every base run.
        let far_below = [50.0, 60.0, 40.0, 65.0, 45.0];
        assert_eq!(
            verdict(&noisy, &far_below, Better::Lower, 0.10),
            Some(Verdict::Better)
        );
        // Single runs: medians alone.
        assert_eq!(
            verdict(&[100.0], &[105.0], Better::Lower, 0.10),
            Some(Verdict::WithinBound)
        );
        assert_eq!(
            verdict(&[100.0], &[115.0], Better::Lower, 0.10),
            Some(Verdict::Worse)
        );
        assert_eq!(verdict(&[], &[1.0], Better::Lower, 0.10), None);
    }
}
