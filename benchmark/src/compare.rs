//! `pubsub-benchmark compare A.jsonl B.jsonl`: two sets of runs judged the
//! way the pipeline judges them, by the benchmark's own bounds.
//!
//! Each file holds one result line per run (what `run.sh --repeat N --set
//! NAME` appends). Per workload × end-to-end metric the verdict is `worse`
//! (B's median is past the bound), `unresolved` (either set's interquartile
//! spread is wider than the bound, so the runs cannot tell) or `same`.

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::stats::Better;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// Median and interquartile spread (as a share of the median) of one set,
/// with quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method).
pub fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let quantile = |k: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let delta = pos - pos.floor();
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    let median = quantile(2);
    (median, (quantile(3) - quantile(1)) / median)
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (median_a, spread_a) = median_and_spread(a);
    let (median_b, spread_b) = median_and_spread(b);
    let worse_by = match better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// workload → metric → values, from the result lines of one file.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sets = Sets::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a line has no `workload`"))?;
        let metrics = doc.get("metrics").map(Json::members).unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                sets.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(sets)
}

/// Prints the comparison; returns false if any metric is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<24} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    for (workload, metrics_a) in &a {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics_a.get(m.name),
                b.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                continue;
            };
            let (median_a, spread_a) = median_and_spread(va);
            let (median_b, spread_b) = median_and_spread(vb);
            let verdict = judge(va, vb, m.better, m.bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<14} {:<24} {:>12.3} {:>6.1}% {:>12.3} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                median_a,
                spread_a * 100.0,
                median_b,
                spread_b * 100.0,
                (median_b - median_a) / median_a * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (median, spread) = median_and_spread(&v);
        assert_eq!(median, 5.5);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [130.0, 131.0, 129.0, 130.5, 129.5];
        let noisy = [70.0, 100.0, 140.0, 95.0, 130.0];
        assert_eq!(judge(&a, &a, Better::Lower, 0.2), Verdict::Same);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.2), Verdict::Worse);
        // For a rate, higher is better: the same numbers are an improvement.
        assert_eq!(judge(&a, &slower, Better::Higher, 0.2), Verdict::Same);
        assert_eq!(judge(&slower, &a, Better::Higher, 0.2), Verdict::Worse);
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.2), Verdict::Unresolved);
    }
}
