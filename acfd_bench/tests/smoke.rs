//! Drive `acfd_bench --quick --all` twice and check the document: every
//! metric present with its unit, nothing failed, the coverage numbers
//! hold, and the exact counts repeat between the two runs.

use serde::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "sprayer-compute2",
    "aerofoil-overlap2",
    "sprayer-tcp2-small",
    "compile-batch",
];

/// Counts that depend only on the inputs, never on timing.
const EXACT: [&str; 11] = [
    "runtime.msgs",
    "runtime.payload_bytes",
    "runtime.reduces",
    "interp.flops",
    "interp.loads",
    "interp.stores",
    "syncopt.syncs_before",
    "syncopt.syncs_after",
    "interp.kernel_nests",
    "codegen.plan_bytes",
    "compile-service.pipeline_invocations",
];

fn scratch() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("acfd_bench_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_all(out: &Path) -> Value {
    let status = Command::new(env!("CARGO_BIN_EXE_acfd_bench"))
        .args(["--quick", "--all", "--seed", "11", "--out"])
        .arg(out)
        .current_dir(scratch())
        .status()
        .expect("spawn acfd_bench");
    assert!(status.success(), "acfd_bench --quick --all: {status}");
    json::parse(&std::fs::read_to_string(out).unwrap()).expect("the document is JSON")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn workload<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("{name} missing from the document"))
}

fn value(w: &Value, section: &str, metric: &str) -> f64 {
    w.get(section)
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{section}.{metric} missing"))
}

#[test]
fn quick_all_twice() {
    let dir = scratch();
    let (a, b) = (run_all(&dir.join("a.json")), run_all(&dir.join("b.json")));

    for doc in [&a, &b] {
        assert_eq!(doc.get("quick"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("seed").and_then(Value::as_int), Some(11));
        let host = doc.get("host").expect("host fingerprint");
        for key in [
            "nproc",
            "cpu_model",
            "llc_bytes",
            "ram_bytes",
            "rustc",
            "git_commit",
        ] {
            assert!(host.get(key).is_some(), "host.{key}");
        }
        for name in WORKLOADS {
            let w = workload(doc, name);
            for (section, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
                for (metric, unit) in listed(key) {
                    let m = w
                        .get(section)
                        .and_then(|s| s.get(&metric))
                        .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                    assert_eq!(
                        m.get("unit").and_then(Value::as_str),
                        Some(unit.as_str()),
                        "{metric}"
                    );
                    let v = m.get("value").and_then(Value::as_f64).expect("a number");
                    assert!(v.is_finite(), "{name}: {metric} = {v}");
                    if section == "end_to_end" {
                        assert!(v > 0.0, "{name}: {metric} must never be 0");
                    }
                }
            }
            for key in ["failed", "traced_failed"] {
                assert_eq!(w.get(key).and_then(Value::as_int), Some(0), "{name}: {key}");
            }
            assert_eq!(
                w.get("fail_ratio").and_then(Value::as_f64),
                Some(0.0),
                "{name}"
            );
            assert!(w.get("attempted").and_then(Value::as_int).unwrap() >= 1);
            assert!(
                value(w, "per_layer", "compile.stage_coverage") >= 0.90,
                "{name}"
            );
            if name != "compile-batch" {
                assert!(
                    value(w, "per_layer", "runtime.trace_coverage") >= 0.90,
                    "{name}"
                );
                assert_eq!(
                    value(w, "per_layer", "runtime.msgs_vs_forecast"),
                    1.0,
                    "{name}"
                );
            }
        }
    }

    // each twin runs on the one workload where its change means something
    for (name, metrics) in [
        (
            "sprayer-compute2",
            &[
                "interp.threads2_wall_s",
                "runtime.checkpoint_overhead_pct",
                "runtime.checkpoint_bytes",
                "interp.elastic_repartition_ms",
            ][..],
        ),
        ("aerofoil-overlap2", &["interp.overlap_off_wall_s"]),
        ("sprayer-tcp2-small", &["runtime.inproc_wall_s"]),
    ] {
        for metric in metrics {
            for other in WORKLOADS {
                let v = value(workload(&a, other), "per_layer", metric);
                assert_eq!(v != 0.0, other == name, "{other}: {metric} = {v}");
            }
        }
    }

    for name in WORKLOADS {
        for metric in EXACT {
            assert_eq!(
                value(workload(&a, name), "per_layer", metric),
                value(workload(&b, name), "per_layer", metric),
                "{name}: {metric} must repeat exactly"
            );
        }
    }

    // a --quick document measures nothing comparable
    let refused = Command::new(env!("CARGO_BIN_EXE_acfd_bench"))
        .arg("compare")
        .args([dir.join("a.json"), dir.join("b.json")])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--quick"));
}

/// The one-line result of a single workload has exactly the driver's
/// keys, and the same seed gives the same counts.
#[test]
fn driver_line_shape() {
    let line = |trace: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_acfd_bench"))
            .args(["--workload", "sprayer-tcp2-small", "--quick", "--seed", "3"])
            .args(["--seconds", "1", "--trace", trace])
            .current_dir(scratch())
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        json::parse(stdout.lines().last().expect("a result line")).unwrap()
    };
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = line(trace);
        let Value::Obj(fields) = &result else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want = listed(key);
        assert_eq!(got, want.iter().map(|m| m.0.as_str()).collect::<Vec<_>>());
    }

    let unknown = Command::new(env!("CARGO_BIN_EXE_acfd_bench"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!unknown.status.success() && unknown.stdout.is_empty());
}
