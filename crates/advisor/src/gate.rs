//! The perf regression gate.
//!
//! `bench/perf_trajectory` measures every case study × partition and
//! writes a schema-versioned `BENCH_perf_trajectory.json`. The gate
//! compares a freshly measured trajectory against a committed baseline
//! row by row and reports every case whose wall time or communication
//! volume regressed beyond a tolerance. Wall time is noisy across
//! machines, so its default tolerance is generous; message and byte
//! counts are deterministic, so theirs is tight.

use serde::json::{parse, Fields};

/// Tolerances for the gate, as allowed relative growth over baseline
/// (`0.5` = up to +50% accepted).
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Allowed wall-time growth. Wall time varies with machine load,
    /// so the default is deliberately loose.
    pub wall_tolerance: f64,
    /// Allowed comm-volume growth (bytes and messages). Traffic is
    /// deterministic for a given plan, so any real growth is a plan
    /// change and the default is tight.
    pub comm_tolerance: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            wall_tolerance: 0.5,
            comm_tolerance: 0.02,
        }
    }
}

/// One measured case × partition × engine row of a trajectory document.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRow {
    /// Case-study name (e.g. `"sprayer-small"`).
    pub case_name: String,
    /// `"2x2"`-style partition label.
    pub partition: String,
    /// Execution engine the row was measured with (`"tree"` or
    /// `"kernel"`).
    pub engine: String,
    /// Worker threads per rank the row was measured with.
    pub threads: u64,
    /// Measured wall time, milliseconds.
    pub wall_ms: f64,
    /// Point-to-point messages over the whole run.
    pub comm_msgs: u64,
    /// Wire bytes over the whole run.
    pub comm_bytes: u64,
}

/// The trajectory document schema this build reads.
const TRAJECTORY_SCHEMA: i128 = 2;

/// Parse a `BENCH_perf_trajectory.json` document into its case rows.
/// Any schema version but the current one, and any malformed row, is
/// refused.
pub fn parse_trajectory(text: &str) -> Result<Vec<TrajectoryRow>, String> {
    let doc = parse(text).map_err(|e| format!("trajectory is not valid JSON: {e}"))?;
    let top = Fields::new(&doc, "trajectory");
    let schema: i128 = top.int("schema")?;
    if schema != TRAJECTORY_SCHEMA {
        return Err(format!(
            "unsupported trajectory schema {schema} (this build reads {TRAJECTORY_SCHEMA})"
        ));
    }
    top.arr("cases")?
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let ctx = format!("cases[{i}]");
            let c = Fields::new(case, &ctx);
            Ok(TrajectoryRow {
                case_name: c.str("case")?,
                partition: c.str("partition")?,
                engine: c.str("engine")?,
                threads: c.int::<u64>("threads")?.max(1),
                wall_ms: c.float("wall_ms")?,
                comm_msgs: c.int("comm_msgs")?,
                comm_bytes: c.int("comm_bytes")?,
            })
        })
        .collect()
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case-study name.
    pub case_name: String,
    /// Partition label.
    pub partition: String,
    /// Engine the regressed row was measured with.
    pub engine: String,
    /// Which metric regressed (`wall_ms`, `comm_bytes`, `comm_msgs`,
    /// or `missing` when the current trajectory dropped the row).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Measured value.
    pub current: f64,
    /// The largest value the tolerance would have accepted.
    pub limit: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.metric == "missing" {
            return write!(
                f,
                "{} {} [{}]: row missing from current trajectory",
                self.case_name, self.partition, self.engine
            );
        }
        write!(
            f,
            "{} {} [{}]: {} regressed {:.1} -> {:.1} (limit {:.1})",
            self.case_name,
            self.partition,
            self.engine,
            self.metric,
            self.baseline,
            self.current,
            self.limit
        )
    }
}

/// Compare a current trajectory against a baseline. Rows are keyed by
/// case × partition × engine — a tree-walk row never gates a kernel
/// row. Every baseline row must exist in the current document and stay
/// within tolerance on wall time, wire bytes, and message count; extra
/// current rows (new cases or engines) are not regressions. Returns
/// every violation.
pub fn gate(
    current: &[TrajectoryRow],
    baseline: &[TrajectoryRow],
    cfg: &GateConfig,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| {
            c.case_name == base.case_name
                && c.partition == base.partition
                && c.engine == base.engine
        }) else {
            out.push(Regression {
                case_name: base.case_name.clone(),
                partition: base.partition.clone(),
                engine: base.engine.clone(),
                metric: "missing".into(),
                baseline: 0.0,
                current: 0.0,
                limit: 0.0,
            });
            continue;
        };
        let mut check = |metric: &str, b: f64, c: f64, tol: f64| {
            let limit = b * (1.0 + tol);
            if c > limit {
                out.push(Regression {
                    case_name: base.case_name.clone(),
                    partition: base.partition.clone(),
                    engine: base.engine.clone(),
                    metric: metric.into(),
                    baseline: b,
                    current: c,
                    limit,
                });
            }
        };
        check("wall_ms", base.wall_ms, cur.wall_ms, cfg.wall_tolerance);
        check(
            "comm_bytes",
            base.comm_bytes as f64,
            cur.comm_bytes as f64,
            cfg.comm_tolerance,
        );
        check(
            "comm_msgs",
            base.comm_msgs as f64,
            cur.comm_msgs as f64,
            cfg.comm_tolerance,
        );
    }
    out
}

/// Render the gate verdict: a pass line, or one line per regression.
pub fn render_gate(regressions: &[Regression], checked: usize, cfg: &GateConfig) -> String {
    if regressions.is_empty() {
        return format!(
            "perf gate: PASS ({checked} rows within wall +{:.0}% / comm +{:.0}%)\n",
            cfg.wall_tolerance * 100.0,
            cfg.comm_tolerance * 100.0
        );
    }
    let mut out = format!(
        "perf gate: FAIL ({} regression{} across {checked} rows)\n",
        regressions.len(),
        if regressions.len() == 1 { "" } else { "s" }
    );
    for r in regressions {
        out.push_str(&format!("  {r}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: f64, bytes: u64) -> String {
        format!(
            r#"{{"schema": 2, "cases": [
                {{"case": "sprayer-small", "partition": "2x2", "ranks": 4,
                  "engine": "tree", "threads": 1,
                  "compile_ms": 1.0, "wall_ms": {wall}, "comm_msgs": 100,
                  "comm_elems": 1000, "comm_bytes": {bytes},
                  "barriers": 2, "reduces": 8,
                  "syncs_before": 9, "syncs_after": 3}}
            ]}}"#
        )
    }

    #[test]
    fn identical_trajectories_pass() {
        let rows = parse_trajectory(&doc(20.0, 8000)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].comm_bytes, 8000);
        assert!(gate(&rows, &rows, &GateConfig::default()).is_empty());
    }

    #[test]
    fn injected_wall_regression_fails() {
        let base = parse_trajectory(&doc(20.0, 8000)).unwrap();
        let cur = parse_trajectory(&doc(200.0, 8000)).unwrap();
        let regs = gate(&cur, &base, &GateConfig::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "wall_ms");
        assert!(render_gate(&regs, base.len(), &GateConfig::default()).contains("FAIL"));
    }

    #[test]
    fn comm_growth_beyond_tolerance_fails() {
        let base = parse_trajectory(&doc(20.0, 8000)).unwrap();
        let cur = parse_trajectory(&doc(20.0, 8400)).unwrap(); // +5%
        let regs = gate(&cur, &base, &GateConfig::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "comm_bytes");
    }

    #[test]
    fn faster_is_never_a_regression() {
        let base = parse_trajectory(&doc(20.0, 8000)).unwrap();
        let cur = parse_trajectory(&doc(1.0, 4000)).unwrap();
        assert!(gate(&cur, &base, &GateConfig::default()).is_empty());
    }

    #[test]
    fn missing_row_fails() {
        let base = parse_trajectory(&doc(20.0, 8000)).unwrap();
        let regs = gate(&[], &base, &GateConfig::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "missing");
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let err = parse_trajectory(r#"{"schema": 99, "cases": []}"#).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
    }

    #[test]
    fn older_schema_is_refused_never_panics() {
        let old = doc(20.0, 8000)
            .replace("\"schema\": 2", "\"schema\": 1")
            .replace("\"engine\": \"tree\", \"threads\": 1,", "");
        let err = parse_trajectory(&old).unwrap_err();
        assert!(err.contains("schema 1") && err.contains("reads 2"), "{err}");
        // a current-schema row with a negative count is an error, not a wrap
        let negative = doc(20.0, 8000).replace("\"comm_msgs\": 100", "\"comm_msgs\": -100");
        let err = parse_trajectory(&negative).unwrap_err();
        assert!(err.contains("cases[0]: `comm_msgs` out of range"), "{err}");
    }

    fn doc2(engine: &str, threads: u64, wall: f64) -> String {
        format!(
            r#"{{"schema": 2, "cases": [
                {{"case": "sprayer-small", "partition": "2x2", "ranks": 4,
                  "engine": "{engine}", "threads": {threads},
                  "compile_ms": 1.0, "wall_ms": {wall}, "comm_msgs": 100,
                  "comm_elems": 1000, "comm_bytes": 8000,
                  "barriers": 2, "reduces": 8,
                  "syncs_before": 9, "syncs_after": 3}}
            ]}}"#
        )
    }

    #[test]
    fn rows_are_keyed_by_engine() {
        // a fast kernel row must not satisfy a tree baseline: the tree
        // row is missing from the current document, and that is the
        // reported regression (not a bogus wall comparison)
        let base = parse_trajectory(&doc2("tree", 1, 20.0)).unwrap();
        let cur = parse_trajectory(&doc2("kernel", 4, 2.0)).unwrap();
        let regs = gate(&cur, &base, &GateConfig::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "missing");
        assert!(regs[0].to_string().contains("[tree]"), "{}", regs[0]);

        // same engine on both sides gates normally
        let slow = parse_trajectory(&doc2("kernel", 4, 200.0)).unwrap();
        let fast = parse_trajectory(&doc2("kernel", 4, 2.0)).unwrap();
        let regs = gate(&slow, &fast, &GateConfig::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "wall_ms");
        assert!(regs[0].to_string().contains("[kernel]"), "{}", regs[0]);
    }
}
