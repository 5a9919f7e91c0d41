//! `compare`: two recorded result sets, one verdict per (workload,
//! end-to-end metric), by the bounds `BENCHMARK.json` fixes.

use crate::json::{self, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// A declared end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics `BENCHMARK.json` declares, in file order.
pub fn declared_metrics(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no 'end_to_end' list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry lacks '{k}'"))
            };
            let lower_is_better = match text("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("'better' is '{other}', not lower/higher")),
            };
            Ok(Declared {
                name: text("name")?.to_owned(),
                lower_is_better,
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry lacks 'bound'")?,
            })
        })
        .collect()
}

/// One workload's recorded untraced runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recorded {
    /// Metric name → one value per run.
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: f64,
    pub failed: f64,
    /// The runs' `sim_digest`s, keyed by seed.
    pub digests: BTreeMap<u64, String>,
}

impl Recorded {
    fn failed_share(&self) -> f64 {
        self.failed / self.attempted
    }
}

/// Parses a result set: one JSON record per line, as `--out` appends them.
/// Traced runs carry per-layer metrics and are skipped.
pub fn parse_set(text: &str) -> Result<BTreeMap<String, Recorded>, String> {
    let mut set: BTreeMap<String, Recorded> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("line {}: no '{k}'", n + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("'workload' is not a string")?;
        let result = field("result")?;
        let into = set.entry(workload.to_owned()).or_default();
        let number = |k: &str| {
            result
                .get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: result lacks '{k}'", n + 1))
        };
        into.attempted += number("attempted")?;
        into.failed += number("failed")?;
        let metrics = result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64);
            let value = value.ok_or(format!("line {}: metric '{name}' has no value", n + 1))?;
            into.values.entry(name.clone()).or_default().push(value);
        }
        if let (Some(seed), Some(digest)) = (field("seed")?.as_f64(), field("sim_digest")?.as_str())
        {
            into.digests.insert(seed as u64, digest.to_owned());
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the change's runs `b` against the parent's runs `a`.
///
/// - *unresolved* when either side's interquartile distance exceeds the
///   bound (as a share of the parent's median) — unless every run of the
///   change reads better than every run of the parent, which is *improved*;
/// - *regressed* when the change's median is worse than the parent's by
///   more than the bound;
/// - *improved* when it is better by more than the larger of the two
///   interquartile distances (two sets of one commit differ by less);
/// - *within bound* otherwise.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    // Oriented so that positive means worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b2 - a2);
    let limit = bound * a2.abs();
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let widest = (a3 - a1).max(b3 - b1);
    if widest > limit {
        if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > limit {
        Verdict::Regressed
    } else if -worse_by > widest {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Compares set `b` (the change) against set `a` (the parent); prints one row
/// per (workload, metric) and returns whether anything regressed.
pub fn compare(a_text: &str, b_text: &str, benchmark_json: &str) -> Result<bool, String> {
    let declared = declared_metrics(benchmark_json)?;
    let (a, b) = (parse_set(a_text)?, parse_set(b_text)?);
    let mut regressed = false;
    println!(
        "{:<14} {:<18} {:>12} {:>24} {:>12} {:>24} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "change",
        "bound"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            println!("{workload:<14} missing from the second set: REGRESSED");
            regressed = true;
            continue;
        };
        for m in &declared {
            let (Some(va), Some(vb)) = (ra.values.get(&m.name), rb.values.get(&m.name)) else {
                println!(
                    "{workload:<14} {:<18} not recorded in both sets: REGRESSED",
                    m.name
                );
                regressed = true;
                continue;
            };
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(va), quartiles(vb));
            let v = verdict(va, vb, m.lower_is_better, m.bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<14} {:<18} {a2:>12.5} {:>24} {b2:>12.5} {:>24} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                format!("[{a1:.5}, {a3:.5}]"),
                format!("[{b1:.5}, {b3:.5}]"),
                100.0 * (b2 - a2) / a2,
                100.0 * m.bound,
                v.label()
            );
        }
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        let worse = fb > fa;
        regressed |= worse;
        println!(
            "{workload:<14} {:<18} {fa:>12.5} {:>24} {fb:>12.5} {:>24} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "",
            "",
            "any",
            if worse { "REGRESSED" } else { "within bound" }
        );
        // Same seed, same simulated work — or the change moved the model.
        for (seed, da) in &ra.digests {
            if let Some(db) = rb.digests.get(seed).filter(|db| *db != da) {
                println!("{workload:<14} sim_digest differs at seed {seed:#x}: {da} vs {db}");
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `center`, interquartile distance 2 × `step`.
    fn runs(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + (i as f64 - 4.5) * step * 4.0 / 11.0)
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = runs(100.0, 0.5);
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&parent, &runs(100.4, 0.5), true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&parent, &runs(108.0, 0.5), true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&parent, &runs(112.0, 0.5), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &runs(90.0, 0.5), true, 0.10),
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&parent, &runs(112.0, 0.5), false, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &runs(88.0, 0.5), false, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = runs(100.0, 8.0);
        assert_eq!(
            verdict(&noisy, &runs(101.0, 8.0), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &runs(130.0, 8.0), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &runs(40.0, 8.0), true, 0.10),
            Verdict::Improved
        );
        // A steady parent does not excuse a noisy change.
        assert_eq!(
            verdict(&runs(100.0, 0.5), &noisy, true, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn single_runs_compare_by_their_values() {
        assert_eq!(verdict(&[10.0], &[10.5], true, 0.10), Verdict::WithinBound);
        assert_eq!(verdict(&[10.0], &[11.5], true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[10.0], &[9.0], true, 0.10), Verdict::Improved);
    }

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;

    fn record(workload: &str, trace: u8, wall: f64, failed: u32) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 7, \"trace\": {trace}, \"sim_digest\": \"0xabc\", \
             \"result\": {{\"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
             {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \"rate\": {{\"value\": 5.0, \"unit\": \"1/s\"}}}}}}}}\n"
        )
    }

    #[test]
    fn sets_parse_and_skip_traced_runs() {
        let text = record("w", 0, 1.0, 0) + &record("w", 0, 1.2, 1) + &record("w", 1, 9.0, 0);
        let set = parse_set(&text).expect("set parses");
        let w = &set["w"];
        assert_eq!(w.values["wall_s"], vec![1.0, 1.2]);
        assert_eq!((w.attempted, w.failed), (20.0, 1.0));
        assert_eq!(w.digests[&7], "0xabc");
        assert!(parse_set("{\"workload\": 3}").is_err());
    }

    #[test]
    fn declared_metrics_come_from_benchmark_json() {
        let d = declared_metrics(BENCH).expect("declarations parse");
        assert_eq!(d.len(), 2);
        assert!(d[0].lower_is_better && !d[1].lower_is_better);
        assert_eq!(d[1].bound, 0.2);
        assert!(declared_metrics("{}").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_failure_increases() {
        let parent = record("w", 0, 1.0, 0);
        assert_eq!(compare(&parent, &record("w", 0, 1.05, 0), BENCH), Ok(false));
        assert_eq!(compare(&parent, &record("w", 0, 1.5, 0), BENCH), Ok(true));
        assert_eq!(compare(&parent, &record("w", 0, 1.0, 1), BENCH), Ok(true));
        assert_eq!(
            compare(&parent, &record("other", 0, 1.0, 0), BENCH),
            Ok(true)
        );
    }
}
