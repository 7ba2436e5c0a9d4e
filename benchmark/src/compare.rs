//! `--compare a.jsonl b.jsonl`: per workload × end-to-end metric, both
//! medians, the relative change, and whether it is inside the bound that
//! `BENCHMARK.json` fixes.
//!
//! Each file holds one result line per run, as `result.jsonl` is written;
//! concatenate the files of several runs of one commit into one side. When
//! side `a` has several runs of a workload their spread is known, and a
//! metric whose spread is wider than its bound is reported as
//! **unresolved**, never as unchanged.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::stats::median;

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn end_to_end_metrics(benchmark_json: &str) -> Result<Vec<Metric>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str);
            match (
                text("name"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Metric {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// `workload → metric → values`, untraced runs only.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(text: &str, origin: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{origin}:{}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{origin}:{}: no workload", n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{origin}:{}: no metrics", n + 1))?;
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Run-to-run spread as a share of the median: the distance between the
/// first and third quartile (Python's `statistics.quantiles(v, n=4)`) for
/// four or more values, the whole range for two or three, unknown for one.
fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let width = match v.len() {
        0 | 1 => return None,
        2 | 3 => v[v.len() - 1] - v[0],
        n => {
            let quartile = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            quartile(3) - quartile(1)
        }
    };
    Some(width / median(&v).abs())
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Unresolved,
    Regressed,
    Improved,
    Within,
}

/// `worse` is the change of `b` against `a` in the bad direction, as a
/// share of `a`.
fn verdict(worse: f64, bound: f64, spread: Option<f64>) -> Verdict {
    match spread {
        Some(s) if s > bound => Verdict::Unresolved,
        _ if worse > bound => Verdict::Regressed,
        _ if worse < -bound => Verdict::Improved,
        _ => Verdict::Within,
    }
}

pub fn run(a: &Path, b: &Path) -> Result<(), String> {
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let metrics = end_to_end_metrics(&read(Path::new("BENCHMARK.json"))?)?;
    let runs_a = read_runs(&read(a)?, &a.display().to_string())?;
    let runs_b = read_runs(&read(b)?, &b.display().to_string())?;
    println!(
        "{:<18} {:<15} {:>12} {:>3} {:>12} {:>3} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "a", "n", "b", "n", "change", "bound", "spread"
    );
    for (workload, of_a) in &runs_a {
        let Some(of_b) = runs_b.get(workload) else {
            println!("{workload:<18} only in {}", a.display());
            continue;
        };
        for metric in &metrics {
            let (Some(va), Some(vb)) = (of_a.get(&metric.name), of_b.get(&metric.name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let change = (mb - ma) / ma;
            let worse = if metric.lower_is_better {
                change
            } else {
                -change
            };
            let spread = spread(va);
            let verdict = match verdict(worse, metric.bound, spread) {
                Verdict::Unresolved => "unresolved: spread wider than the bound",
                Verdict::Regressed => "REGRESSED",
                Verdict::Improved => "improved",
                Verdict::Within if spread.is_none() => "within bound (spread unknown: one run)",
                Verdict::Within => "within bound",
            };
            println!(
                "{workload:<18} {:<15} {ma:>12.4} {:>3} {mb:>12.4} {:>3} {:>+7.1}% {:>5.0}% {:>8}  {verdict}",
                metric.name,
                va.len(),
                vb.len(),
                change * 100.0,
                metric.bound * 100.0,
                spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
        assert!((spread(&[20.0, 10.0, 13.0, 11.0]).unwrap() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(spread(&[10.0, 12.0]), Some(2.0 / 11.0));
        assert_eq!(spread(&[10.0]), None);
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        assert_eq!(verdict(0.12, 0.10, Some(0.02)), Verdict::Regressed);
        assert_eq!(verdict(0.08, 0.10, Some(0.02)), Verdict::Within);
        assert_eq!(verdict(-0.30, 0.10, Some(0.02)), Verdict::Improved);
        // A spread wider than the bound hides any verdict.
        assert_eq!(verdict(0.50, 0.10, Some(0.15)), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.10, Some(0.15)), Verdict::Unresolved);
        assert_eq!(verdict(0.12, 0.10, None), Verdict::Regressed);
    }

    #[test]
    fn reads_metrics_and_skips_traced_runs() {
        let text = concat!(
            "{\"workload\":\"w\",\"trace\":0,\"metrics\":{\"query_p50_ms\":{\"value\":2.5,\"unit\":\"ms\"}}}\n",
            "\n",
            "{\"workload\":\"w\",\"trace\":1,\"metrics\":{\"cache.hit_us\":{\"value\":9,\"unit\":\"us\"}}}\n",
            "{\"workload\":\"w\",\"trace\":0,\"metrics\":{\"query_p50_ms\":{\"value\":3.5,\"unit\":\"ms\"}}}\n",
        );
        let runs = read_runs(text, "t").unwrap();
        assert_eq!(runs["w"]["query_p50_ms"], vec![2.5, 3.5]);
        assert!(!runs["w"].contains_key("cache.hit_us"));
        assert!(read_runs("{oops\n", "t").unwrap_err().starts_with("t:1:"));
    }

    #[test]
    fn reads_bounds_and_directions_from_benchmark_json() {
        let doc = r#"{"end_to_end": [
            {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.15}]}"#;
        let metrics = end_to_end_metrics(doc).unwrap();
        assert_eq!(metrics.len(), 2);
        assert!(metrics[0].lower_is_better && !metrics[1].lower_is_better);
        assert_eq!(metrics[1].bound, 0.15);
        assert!(end_to_end_metrics(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }
}
