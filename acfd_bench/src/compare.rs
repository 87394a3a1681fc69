//! `acfd_bench compare A.json B.json`: is B worse than A?
//!
//! Per workload × end-to-end metric: both values, the relative
//! difference in the "worse" direction, and the metric's bound. A
//! difference beyond its bound is a regression unless the two files'
//! own min–max ranges overlap by more than the bound — then the runs
//! cannot resolve it and the row says `unresolved`. Any increase of a
//! workload's fail ratio (untraced and traced runs together) is a
//! regression regardless. Documents of different seeds or run lengths
//! measured different programs and are refused.

use crate::metrics::END_TO_END;
use serde::json::{self, Value};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("bench").and_then(Value::as_str) != Some("acfd_bench") {
        return Err(format!("{path}: not an acfd_bench document"));
    }
    if doc.get("quick") != Some(&Value::Bool(false)) {
        return Err(format!("{path}: a --quick run measures nothing comparable"));
    }
    Ok(doc)
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    value: f64,
    min: f64,
    max: f64,
}

fn sample(workload: &Value, metric: &str) -> Option<Sample> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let field = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(value);
    Some(Sample {
        value,
        min: field("min"),
        max: field("max"),
    })
}

/// Failed ÷ attempted operations over the workload's untraced run and,
/// in an `--all` document, its traced run.
fn fail_ratio(workload: &Value) -> f64 {
    let count = |k: &str| workload.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let attempted = count("attempted") + count("traced_attempted");
    if attempted == 0.0 {
        return 1.0; // a workload that attempted nothing measured nothing
    }
    (count("failed") + count("traced_failed")) / attempted
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), and what that means against `bound`.
fn judge(a: Sample, b: Sample, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse = if higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if worse <= bound {
        return (worse, Verdict::Ok);
    }
    let overlap = a.max.min(b.max) - a.min.max(b.min);
    if overlap > bound * a.value {
        (worse, Verdict::Unresolved)
    } else {
        (worse, Verdict::Regression)
    }
}

/// Compare two documents; returns the report and whether B regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    compare_docs(&load(path_a)?, &load(path_b)?)
}

fn compare_docs(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for key in ["seed", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two documents differ in `{key}`"));
        }
    }
    let mut out = String::new();
    if a.get("host") != b.get("host") {
        out.push_str("warning: the two documents carry different host fingerprints\n");
    }
    let mut regressed = false;
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name") == wa.get("name"))
        else {
            out.push_str(&format!("{name}: missing from the second document\n"));
            regressed = true;
            continue;
        };
        let oversubscribed = [wa, wb]
            .iter()
            .any(|w| w.get("oversubscribed") == Some(&Value::Bool(true)));
        if oversubscribed {
            out.push_str(&format!(
                "{name}: oversubscribed host, wall-clock metrics not compared\n"
            ));
        }
        for &(metric, unit, better, bound) in END_TO_END {
            if oversubscribed && metric != "peak_rss_mb" {
                continue;
            }
            let (Some(sa), Some(sb)) = (sample(wa, metric), sample(wb, metric)) else {
                out.push_str(&format!("{name} {metric}: missing\n"));
                regressed = true;
                continue;
            };
            let (worse, verdict) = judge(sa, sb, better == "higher", bound);
            regressed |= verdict == Verdict::Regression;
            out.push_str(&format!(
                "{name:<20} {metric:<14} {:>12.4} -> {:>12.4} {unit:<8} {:>+7.1}% worse (bound {:.0}%)  {}\n",
                sa.value,
                sb.value,
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            ));
        }
        let (fa, fb) = (fail_ratio(wa), fail_ratio(wb));
        if fb > fa {
            out.push_str(&format!(
                "{name:<20} fail_ratio     {fa} -> {fb}  REGRESSION\n"
            ));
            regressed = true;
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64) -> Sample {
        Sample { value, min, max }
    }

    #[test]
    fn within_bound_is_ok_in_both_directions() {
        assert_eq!(
            judge(s(1.0, 0.9, 1.1), s(1.05, 1.0, 1.1), false, 0.1).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(s(1.0, 0.9, 1.1), s(0.5, 0.4, 0.6), false, 0.1).1,
            Verdict::Ok
        );
        // higher is better: dropping from 100 to 95 is 5% worse
        let (worse, v) = judge(s(100.0, 99.0, 101.0), s(95.0, 94.0, 96.0), true, 0.1);
        assert!((worse - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_a_regression_unless_the_ranges_overlap_wider_than_it() {
        // 30% worse, ranges apart
        assert_eq!(
            judge(s(1.0, 0.95, 1.05), s(1.3, 1.25, 1.35), false, 0.1).1,
            Verdict::Regression
        );
        // 30% worse, but the runs' own ranges overlap by 0.4 > 0.1
        assert_eq!(
            judge(s(1.0, 0.8, 1.5), s(1.3, 1.1, 1.6), false, 0.1).1,
            Verdict::Unresolved
        );
        // overlap of 0.05 is narrower than the bound: still a regression
        assert_eq!(
            judge(s(1.0, 0.9, 1.2), s(1.3, 1.15, 1.4), false, 0.1).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(s(100.0, 99.0, 101.0), s(80.0, 79.0, 81.0), true, 0.1).1,
            Verdict::Regression
        );
    }

    /// A one-workload `--all` document whose metrics all read `value`.
    fn doc(seed: u64, value: f64, rss: f64, traced_failed: u64, oversubscribed: bool) -> Value {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.0 == "peak_rss_mb" { rss } else { value };
                format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.0, m.1)
            })
            .collect();
        json::parse(&format!(
            r#"{{"seed": {seed}, "seconds": 20, "workloads": [{{"name": "w",
                "oversubscribed": {oversubscribed}, "attempted": 10, "failed": 0,
                "traced_attempted": 10, "traced_failed": {traced_failed},
                "end_to_end": {{{}}}}}]}}"#,
            metrics.join(", ")
        ))
        .expect("valid JSON")
    }

    #[test]
    fn other_seed_is_refused_and_same_document_passes() {
        let a = doc(1, 2.0, 50.0, 0, false);
        assert_eq!(compare_docs(&a, &a).map(|r| r.1), Ok(false));
        let err = compare_docs(&a, &doc(2, 2.0, 50.0, 0, false)).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn a_failure_in_the_traced_run_is_a_regression() {
        let (a, b) = (doc(1, 2.0, 50.0, 0, false), doc(1, 2.0, 50.0, 1, false));
        let (report, regressed) = compare_docs(&a, &b).unwrap();
        assert!(regressed && report.contains("fail_ratio"), "{report}");
        assert_eq!(compare_docs(&b, &a).map(|r| r.1), Ok(false));
    }

    #[test]
    fn oversubscribed_skips_wall_clock_metrics_but_not_memory() {
        // every timing doubled: not compared; memory equal: ok
        let (a, b) = (doc(1, 2.0, 50.0, 0, true), doc(1, 4.0, 50.0, 0, true));
        assert_eq!(compare_docs(&a, &b).map(|r| r.1), Ok(false));
        // memory doubled: a regression even so
        let (report, regressed) = compare_docs(&a, &doc(1, 2.0, 100.0, 0, true)).unwrap();
        assert!(regressed && report.contains("peak_rss_mb"), "{report}");
    }
}
