//! The metric registry and the two output shapes: the self-describing
//! document (`--out`, `--all`, `compare`) and the one-line result the
//! benchmark driver reads.
//!
//! `BENCHMARK.json` repeats the names, units, directions and bounds
//! below; a unit test keeps the two in step.

use crate::stats::Summary;
use serde::json::Value;
use std::collections::BTreeMap;

/// `(name, unit, better, bound)`. Every workload reports every one:
/// the run workloads also time cold compiles of their program,
/// `compile-batch` also executes its programs (README, "End-to-end
/// metrics", says what each means where). A timed metric's value is its
/// best sample. The bounds are three times the spread (quartile distance
/// ÷ median) that ten runs on ten seeds showed on the shared 2-core
/// sandbox, rounded up: 2–10 % for a parallel wall time, which needs
/// both cores to itself for a whole run, 1–4 % for anything
/// single-threaded, up to 9 % for a set-up.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("seq_wall_s", "s", "lower", 0.20),
    ("mpoints_per_s", "Mpt/s", "higher", 0.25),
    ("klines_per_s", "kline/s", "higher", 0.15),
    ("compile_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// `(name, unit, better)`; the prefix is the crate the number belongs
/// to. A layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("fortran.parse_ms", "ms", "lower"),
    ("fortran.lint_ms", "ms", "lower"),
    ("fortran.print_ms", "ms", "lower"),
    ("fortran.klines_per_s", "kline/s", "higher"),
    ("ir.build_ms", "ms", "lower"),
    ("ir.field_loops", "count", "lower"),
    ("grid.partition_ms", "ms", "lower"),
    ("grid.choose_ms", "ms", "lower"),
    ("depend.sldp_ms", "ms", "lower"),
    ("depend.pairs", "count", "lower"),
    ("syncopt.plan_ms", "ms", "lower"),
    ("syncopt.syncs_before", "count", "lower"),
    ("syncopt.syncs_after", "count", "lower"),
    ("syncopt.reduction_pct", "%", "higher"),
    ("codegen.transform_ms", "ms", "lower"),
    ("codegen.plan_encode_ms", "ms", "lower"),
    ("codegen.plan_decode_ms", "ms", "lower"),
    ("codegen.plan_bytes", "B", "lower"),
    ("codegen.plan_key_ms", "ms", "lower"),
    ("interp.kernel_eligible_ms", "ms", "lower"),
    ("interp.kernel_lower_ms", "ms", "lower"),
    ("interp.kernel_nests", "count", "higher"),
    ("compile.stage_coverage", "ratio", "higher"),
    ("compile.tail_ms", "ms", "lower"),
    ("compile.tail_percentile", "%", "higher"),
    ("compile-service.cold_ms", "ms", "lower"),
    ("compile-service.warm_hit_ms", "ms", "lower"),
    ("compile-service.hit_ratio", "ratio", "higher"),
    ("compile-service.pipeline_invocations", "count", "lower"),
    ("interp.compute_s", "s", "lower"),
    ("interp.compute_share", "ratio", "higher"),
    ("interp.overlap_s", "s", "higher"),
    ("interp.mpoints_per_s", "Mpt/s", "higher"),
    ("interp.flops", "count", "lower"),
    ("interp.loads", "count", "lower"),
    ("interp.stores", "count", "lower"),
    ("interp.mflops", "MFLOP/s", "higher"),
    ("interp.bytes_per_flop", "B/flop", "lower"),
    ("interp.roofline_frac", "ratio", "higher"),
    ("interp.threads2_wall_s", "s", "lower"),
    ("interp.overlap_off_wall_s", "s", "lower"),
    ("interp.elastic_repartition_ms", "ms", "lower"),
    ("runtime.wait_s", "s", "lower"),
    ("runtime.comm_s", "s", "lower"),
    ("runtime.wait_share", "ratio", "lower"),
    ("runtime.exposed_comm_pct", "%", "lower"),
    ("runtime.imbalance", "ratio", "lower"),
    ("runtime.msgs", "count", "lower"),
    ("runtime.payload_bytes", "B", "lower"),
    ("runtime.wire_bytes", "B", "lower"),
    ("runtime.reduces", "count", "lower"),
    ("runtime.barriers", "count", "lower"),
    ("runtime.msgs_vs_forecast", "ratio", "lower"),
    ("runtime.trace_events", "count", "lower"),
    ("runtime.trace_coverage", "ratio", "higher"),
    ("runtime.speedup_vs_seq", "ratio", "higher"),
    ("runtime.efficiency", "ratio", "higher"),
    ("runtime.inproc_pingpong_us", "us", "lower"),
    ("runtime.inproc_bw_gbs", "GB/s", "higher"),
    ("runtime.inproc_wall_s", "s", "lower"),
    ("runtime.journal_write_ms", "ms", "lower"),
    ("runtime.journal_bytes", "B", "lower"),
    ("runtime.journal_ns_per_event", "ns", "lower"),
    ("runtime.journal_load_merge_ms", "ms", "lower"),
    ("runtime.export_chrome_ms", "ms", "lower"),
    ("runtime.telemetry_encode_ns", "ns", "lower"),
    ("runtime.telemetry_frames", "count", "higher"),
    ("runtime.observed_overhead_pct", "%", "lower"),
    ("runtime.checkpoint_write_ms", "ms", "lower"),
    ("runtime.checkpoint_bytes", "B", "lower"),
    ("runtime.checkpoint_load_ms", "ms", "lower"),
    ("runtime.checkpoint_overhead_pct", "%", "lower"),
    ("runtime-net.mesh_setup_ms", "ms", "lower"),
    ("runtime-net.pingpong_us", "us", "lower"),
    ("runtime-net.bw_gbs", "GB/s", "higher"),
    ("runtime-net.frame_encode_ns", "ns", "lower"),
    ("runtime-net.frame_decode_ns", "ns", "lower"),
    ("runtime-net.wire_overhead_pct", "%", "lower"),
    ("advisor.diagnose_ms", "ms", "lower"),
    ("advisor.search_ms", "ms", "lower"),
    ("host.triad_gbs", "GB/s", "higher"),
];

/// Layers the benchmark cannot see from outside, said in the output.
pub const NOT_MEASURED: &[&str] = &[
    "halo pack/unpack have no public entry point; their time is inside interp.compute_s",
    "cluster-sim is a deterministic virtual-time model and is not timed",
    "cfd-kernels only generates the inputs; its time is inside setup_s",
];

/// Measured values by metric name. A timed metric's value is its best
/// sample and it keeps the sample summary for the document; counts and
/// ratios are plain values.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(name, (value, None));
    }

    pub fn set_summary(&mut self, name: &'static str, s: Summary) {
        assert!(s.best.is_finite(), "{name} is not finite: {s:?}");
        self.values.insert(name, (s.best, Some(s)));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` read before it was measured"))
            .0
    }

    /// Every name in `names` that has no value yet gets 0: the layer did
    /// no work on this workload.
    pub fn zero_missing(&mut self, names: impl Iterator<Item = &'static str>) {
        for name in names {
            self.values.entry(name).or_insert((0.0, None));
        }
    }

    fn entry(&self, name: &str, unit: &str, with_summary: bool) -> Value {
        let (value, summary) = self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was never measured"));
        let mut fields = vec![
            ("value", Value::Float(*value)),
            ("unit", Value::Str(unit.into())),
        ];
        if let (true, Some(s)) = (with_summary, summary) {
            fields.push(("n", Value::Int(s.n as i128)));
            fields.push(("median", Value::Float(s.median)));
            fields.push(("min", Value::Float(s.min)));
            fields.push(("max", Value::Float(s.max)));
            fields.push(("mad", Value::Float(s.mad)));
        }
        Value::obj(fields)
    }

    /// `{name: {value, unit[, n, median, min, max, mad]}}` over a registry
    /// table, in table order; panics on a metric that was never set, so
    /// a forgotten measurement cannot ship as a silent gap.
    pub fn render<'a>(
        &self,
        table: impl Iterator<Item = (&'a str, &'a str)>,
        with_summary: bool,
    ) -> Value {
        Value::Obj(
            table
                .map(|(name, unit)| (name.to_string(), self.entry(name, unit, with_summary)))
                .collect(),
        )
    }
}

pub fn end_to_end_table() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.0, m.1))
}

pub fn per_layer_table() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.0, m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    /// `BENCHMARK.json` at the repo root must name exactly this
    /// registry: the driver refuses output that disagrees with it.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (s(m, "name"), s(m, "unit"), s(m, "better"), bound)
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into(), m.3))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into()))
            .collect();
        assert_eq!(layers, want);

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let want: Vec<(String, String)> = crate::sizing::WORKLOADS
            .iter()
            .map(|w| (w.0.into(), w.1.into()))
            .collect();
        assert_eq!(workloads, want);
        assert_eq!(list("paths"), vec![Value::Str("acfd_bench".into())]);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_table().chain(per_layer_table()) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        for (_, why) in crate::sizing::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
