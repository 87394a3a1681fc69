//! The assembled advice artifact.
//!
//! Bundles the diagnosis, the optional forecast divergence, and the
//! optional partition recommendation into one report: human-readable
//! text for the terminal and a schema-versioned JSON document
//! (`advice.json`) for tooling.

use std::time::Duration;

use serde::json::Value;

use crate::diagnose::{hot_phase, render_diagnosis, straggler, Diagnosis};
use crate::divergence::{render_divergence, PhaseDivergence};
use crate::search::{render_recommendation, Candidate, Recommendation};
use autocfd_runtime::export::{exposed_pct, imbalance};

/// Version of the `advice.json` document layout.
pub const ADVICE_SCHEMA_VERSION: i64 = 1;

/// Everything one `acfc advise` invocation learned.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// The per-phase load diagnosis.
    pub diagnosis: Diagnosis,
    /// Forecast-vs-measured divergence, when a source file was
    /// available to forecast from.
    pub divergence: Option<Vec<PhaseDivergence>>,
    /// Partition search outcome, when the grid geometry was known.
    pub recommendation: Option<Recommendation>,
    /// Relative-error tolerance the divergence verdicts used.
    pub tolerance: f64,
}

fn ms(d: Duration) -> Value {
    Value::Float(d.as_secs_f64() * 1e3)
}

fn candidate_json(c: &Candidate) -> Value {
    Value::obj(vec![
        ("partition", Value::Str(c.display())),
        (
            "parts",
            Value::Arr(c.parts.iter().map(|&p| Value::Int(p as i128)).collect()),
        ),
        ("measured", Value::Bool(c.measured)),
        ("predicted_wall_s", Value::Float(c.predicted.total)),
        ("predicted_compute_s", Value::Float(c.predicted.compute)),
        ("predicted_comm_s", Value::Float(c.predicted.comm)),
        ("comm_bytes", Value::Int(c.comm_bytes as i128)),
        ("wall_delta_pct", Value::Float(c.wall_delta_pct)),
        ("comm_delta_pct", Value::Float(c.comm_delta_pct)),
    ])
}

impl Advice {
    /// Serialize to the schema-versioned `advice.json` document.
    pub fn to_json(&self) -> Value {
        let d = &self.diagnosis;
        let phases: Vec<Value> = d
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (work, t) = (p.work_per_rank(), p.total());
                Value::obj(vec![
                    ("phase", Value::Str(p.phase.clone())),
                    (
                        "compute_ms_per_rank",
                        Value::Arr(work.iter().map(|&c| ms(c)).collect()),
                    ),
                    ("wait_ms", ms(t.wait)),
                    ("overlap_ms", ms(t.overlap)),
                    ("bytes", Value::Int(t.bytes as i128)),
                    ("msgs", Value::Int(t.msgs as i128)),
                    (
                        "imbalance",
                        imbalance(&work).map(Value::Float).unwrap_or(Value::Null),
                    ),
                    (
                        "straggler",
                        straggler(&work)
                            .map(|r| Value::Int(r as i128))
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "exposed_pct",
                        exposed_pct(t.wait, t.overlap)
                            .map(Value::Float)
                            .unwrap_or(Value::Null),
                    ),
                    ("critical_share_pct", Value::Float(d.critical_share(i))),
                ])
            })
            .collect();
        let diagnosis = Value::obj(vec![
            ("imbalance", Value::Float(d.imbalance)),
            (
                "straggler",
                d.straggler
                    .map(|r| Value::Int(r as i128))
                    .unwrap_or(Value::Null),
            ),
            (
                "exposed_pct",
                d.exposed_pct.map(Value::Float).unwrap_or(Value::Null),
            ),
            (
                "hot_phase",
                hot_phase(d)
                    .map(|(name, _, _)| Value::Str(name.into()))
                    .unwrap_or(Value::Null),
            ),
            ("critical_path_ms", ms(d.critical_path())),
            (
                "critical_path_measured_ms",
                d.critical_path_measured.map(ms).unwrap_or(Value::Null),
            ),
            ("edges_matched", Value::Int(d.edges_matched as i128)),
            ("edges_unmatched", Value::Int(d.edges_unmatched as i128)),
            ("phases", Value::Arr(phases)),
        ]);
        let divergence = match &self.divergence {
            None => Value::Null,
            Some(divs) => Value::Arr(
                divs.iter()
                    .map(|dv| {
                        Value::obj(vec![
                            ("phase", Value::Str(dv.phase.clone())),
                            ("forecast", Value::Bool(dv.forecast)),
                            ("visits", Value::Int(dv.visits as i128)),
                            ("structure_ok", Value::Bool(dv.structure_ok)),
                            ("msgs_predicted", Value::Int(dv.msgs_predicted as i128)),
                            ("msgs_measured", Value::Int(dv.msgs_measured as i128)),
                            ("bytes_predicted", Value::Int(dv.bytes_predicted as i128)),
                            ("bytes_measured", Value::Int(dv.bytes_measured as i128)),
                            ("error", Value::Float(dv.error())),
                            ("ok", Value::Bool(dv.ok(self.tolerance))),
                        ])
                    })
                    .collect(),
            ),
        };
        let recommendation = match &self.recommendation {
            None => Value::Null,
            Some(rec) => Value::obj(vec![
                ("current", candidate_json(&rec.current)),
                (
                    "candidates",
                    Value::Arr(rec.candidates.iter().map(candidate_json).collect()),
                ),
                ("best", Value::Str(rec.best().display())),
            ]),
        };
        Value::obj(vec![
            ("schema", Value::Int(ADVICE_SCHEMA_VERSION as i128)),
            ("kind", Value::Str("advice".into())),
            ("transport", Value::Str(d.transport.clone())),
            ("ranks", Value::Int(d.ranks as i128)),
            ("complete", Value::Bool(d.complete)),
            ("wall_ms", ms(d.wall)),
            ("tolerance", Value::Float(self.tolerance)),
            ("diagnosis", diagnosis),
            ("divergence", divergence),
            ("recommendation", recommendation),
        ])
    }

    /// Render the full human-readable advisor report.
    pub fn render(&self) -> String {
        let mut out = render_diagnosis(&self.diagnosis);
        if let Some((name, busy, share)) = hot_phase(&self.diagnosis) {
            out.push_str(&format!(
                "hot phase: {name} ({:.1}ms on the critical path, {share:.1}% of it)\n",
                busy.as_secs_f64() * 1e3
            ));
        }
        if let Some(divs) = &self.divergence {
            out.push('\n');
            out.push_str(&render_divergence(divs, self.tolerance));
        }
        if let Some(rec) = &self.recommendation {
            out.push('\n');
            out.push_str(&render_recommendation(rec));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::diagnose;
    use autocfd_runtime::journal::MergedTrace;
    use autocfd_runtime::trace::{EventKind, TraceEvent};
    use serde::json::parse;

    fn tiny_advice() -> Advice {
        let merged = MergedTrace {
            traces: vec![vec![TraceEvent {
                kind: EventKind::Compute,
                start: Duration::ZERO,
                end: Duration::from_micros(100),
                peer: None,
                elems: 0,
                bytes: 0,
                phase: 0,
                seq: None,
            }]],
            phase_names: vec![vec!["main".into()]],
            transport: "inproc".into(),
            complete: true,
            skipped: 0,
        };
        Advice {
            diagnosis: diagnose(&merged),
            divergence: None,
            recommendation: None,
            tolerance: 0.0,
        }
    }

    #[test]
    fn advice_json_round_trips() {
        let text = tiny_advice().to_json().to_string();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_int), Some(1));
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("advice"));
        assert_eq!(doc.get("ranks").and_then(Value::as_int), Some(1));
        assert!(doc.get("diagnosis").is_some());
        assert!(matches!(doc.get("recommendation"), Some(Value::Null)));
    }

    #[test]
    fn render_names_the_hot_phase() {
        let text = tiny_advice().render();
        assert!(text.contains("hot phase: main"), "{text}");
    }
}
