//! Schema-versioned JSON serialization of the [`SpmdPlan`].
//!
//! `acfc plan INPUT.f -o plan.json` decouples compilation from
//! execution: the emitted artifact carries everything the SPMD hook set
//! needs at run time, so `acfc run --plan plan.json` / `acfd-worker
//! --plan plan.json` can execute a previously generated parallel source
//! without re-running the analysis pipeline. The format is hand-written
//! over the vendored JSON value model (the `serde` derives in this tree
//! are inert stubs); see DESIGN.md §11 for the schema.
//!
//! Numbers that must survive exactly (statement ids, ghost widths,
//! extents) are emitted as JSON integers, which the value model keeps as
//! `i128` — nothing round-trips through `f64`.

use crate::plan::{
    CutSite, OverlapSpec, PipeStep, ReduceSpec, SelfArraySpec, SelfLoopSpec, SpmdPlan, SyncArray,
    SyncSpec,
};
use autocfd_fortran::ast::StmtId;
use autocfd_grid::{partition, GridShape, PartitionSpec};
use serde::json::{self, Fields, Value};
use std::collections::BTreeMap;

/// Version of the plan JSON schema. Bump on any incompatible change;
/// the loader rejects mismatches instead of guessing.
///
/// v2 added `engine`, `threads` and `kernel_nests`; v3 dropped `engine`
/// (every run takes the compiled-kernel path).
pub const PLAN_SCHEMA_VERSION: i64 = 3;

fn ints<T: Copy + Into<i128>>(vs: &[T]) -> Value {
    Value::Arr(vs.iter().map(|&v| Value::Int(v.into())).collect())
}

fn pipe_steps(steps: &[PipeStep]) -> Value {
    Value::Arr(
        steps
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("axis", Value::Int(s.axis as i128)),
                    ("dir", Value::Int(s.dir.into())),
                    ("width", Value::Int(s.width.into())),
                ])
            })
            .collect(),
    )
}

/// Render a plan as schema-versioned JSON (compact, deterministic field
/// order — the artifact is diffable).
pub fn to_json(plan: &SpmdPlan) -> String {
    let partition_v = Value::obj(vec![
        ("extents", ints(&plan.partition.shape.extents)),
        ("parts", ints(&plan.partition.spec.parts)),
    ]);
    let dim_axis = Value::Arr(
        plan.dim_axis
            .iter()
            .map(|(name, axes)| {
                Value::obj(vec![
                    ("array", Value::Str(name.clone())),
                    (
                        "axes",
                        Value::Arr(
                            axes.iter()
                                .map(|a| match a {
                                    Some(x) => Value::Int(*x as i128),
                                    None => Value::Null,
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let syncs = Value::Arr(
        plan.syncs
            .values()
            .map(|s| {
                Value::obj(vec![
                    ("id", Value::Int(s.id.into())),
                    ("merged", Value::Int(s.merged as i128)),
                    (
                        "arrays",
                        Value::Arr(
                            s.arrays
                                .iter()
                                .map(|a| {
                                    Value::obj(vec![
                                        ("array", Value::Str(a.array.clone())),
                                        (
                                            "ghost",
                                            Value::Arr(
                                                a.ghost.iter().map(|g| ints(&g[..])).collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let overlaps = Value::Arr(
        plan.overlaps
            .iter()
            .map(|(sync, o)| {
                Value::obj(vec![
                    ("sync", Value::Int((*sync).into())),
                    ("stmt", Value::Int(o.stmt.0.into())),
                    ("var", Value::Str(o.var.clone())),
                    ("axis", Value::Int(o.axis as i128)),
                    ("low_width", Value::Int(o.low_width.into())),
                    ("high_width", Value::Int(o.high_width.into())),
                ])
            })
            .collect(),
    );
    let self_loops = Value::Arr(
        plan.self_loops
            .values()
            .map(|sl| {
                Value::obj(vec![
                    ("id", Value::Int(sl.id.into())),
                    (
                        "arrays",
                        Value::Arr(
                            sl.arrays
                                .iter()
                                .map(|a| {
                                    Value::obj(vec![
                                        ("array", Value::Str(a.array.clone())),
                                        ("forward", pipe_steps(&a.forward)),
                                        ("mirror", pipe_steps(&a.mirror)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let reduces = Value::Arr(
        plan.reduces
            .iter()
            .map(|r| {
                Value::obj(vec![
                    ("var", Value::Str(r.var.clone())),
                    ("op", Value::Str(r.op.clone())),
                ])
            })
            .collect(),
    );
    let fills = Value::Arr(
        plan.fills
            .iter()
            .map(|(id, arrays)| {
                Value::obj(vec![
                    ("id", Value::Int((*id).into())),
                    (
                        "arrays",
                        Value::Arr(arrays.iter().map(|a| Value::Str(a.clone())).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let checkpoint_syncs = Value::Arr(
        plan.checkpoint_syncs
            .iter()
            .map(|(sync, stmt)| {
                Value::obj(vec![
                    ("sync", Value::Int((*sync).into())),
                    ("stmt", Value::Int(stmt.0.into())),
                ])
            })
            .collect(),
    );
    let checkpoint_sites = Value::Arr(
        plan.checkpoint_sites
            .iter()
            .map(|(sync, site)| {
                Value::obj(vec![
                    ("sync", Value::Int((*sync).into())),
                    ("kind", Value::Int(site.list_kind.into())),
                    ("stmt", Value::Int(site.list_stmt.into())),
                    ("arm", Value::Int(site.arm.into())),
                    ("gap", Value::Int(site.gap.into())),
                ])
            })
            .collect(),
    );
    Value::obj(vec![
        ("version", Value::Int(PLAN_SCHEMA_VERSION.into())),
        ("partition", partition_v),
        ("dim_axis", dim_axis),
        ("syncs", syncs),
        ("overlaps", overlaps),
        ("self_loops", self_loops),
        ("reduces", reduces),
        ("fills", fills),
        ("checkpoint_syncs", checkpoint_syncs),
        ("checkpoint_sites", checkpoint_sites),
        ("sync_before", Value::Int(plan.sync_before.into())),
        ("sync_after", Value::Int(plan.sync_after.into())),
        ("threads", Value::Int(plan.threads.into())),
        (
            "kernel_nests",
            Value::Arr(
                plan.kernel_nests
                    .iter()
                    .map(|s| Value::Int(s.0.into()))
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

const CTX: &str = "plan JSON";

fn parse_pipe_steps(a: Fields<'_>, key: &str) -> Result<Vec<PipeStep>, String> {
    a.objs(key)?
        .map(|s| {
            Ok(PipeStep {
                axis: s.int("axis")?,
                dir: s.int("dir")?,
                width: s.int("width")?,
            })
        })
        .collect()
}

/// Parse a plan back from its JSON rendering. The partition geometry is
/// validated (axis count, no overpartitioned axis, a rank count that
/// fits `u32` and, when `expect_ranks` is given, equals it) and only
/// then *rebuilt* from shape + spec, so subgrid bounds and neighbor maps
/// are exactly the ones the compiler would have produced and a file
/// cannot make the loader build one subgrid per claimed rank.
pub fn from_json(text: &str, expect_ranks: Option<u32>) -> Result<SpmdPlan, String> {
    let doc = json::parse(text).map_err(|e| format!("{CTX}: {e}"))?;
    let v = Fields::new(&doc, CTX);
    let version: i128 = v.int("version")?;
    if version != i128::from(PLAN_SCHEMA_VERSION) {
        return Err(format!(
            "{CTX}: schema version {version} (this build reads {PLAN_SCHEMA_VERSION})"
        ));
    }

    let part = v.obj("partition")?;
    let extents: Vec<u64> = part.ints("extents")?;
    let parts: Vec<u32> = part.ints("parts")?;
    if extents.is_empty() || extents.len() != parts.len() {
        return Err(format!(
            "{CTX}: partition has {} parts for {} grid axes",
            parts.len(),
            extents.len()
        ));
    }
    for (a, (&n, &p)) in extents.iter().zip(&parts).enumerate() {
        if p == 0 || u64::from(p) > n {
            return Err(format!(
                "{CTX}: axis {a} of extent {n} cannot be split into {p} parts"
            ));
        }
    }
    let ranks = parts
        .iter()
        .try_fold(1u32, |n, &p| n.checked_mul(p))
        .ok_or_else(|| format!("{CTX}: partition {parts:?} has more ranks than fit in u32"))?;
    if let Some(want) = expect_ranks.filter(|&want| want != ranks) {
        return Err(format!(
            "{CTX}: targets {ranks} ranks but {want} were expected"
        ));
    }
    let partition = partition(&GridShape { extents }, &PartitionSpec::new(&parts));

    let mut dim_axis = BTreeMap::new();
    for d in v.objs("dim_axis")? {
        let axes = d
            .arr("axes")?
            .iter()
            .map(|a| match a {
                Value::Null => Ok(None),
                _ => a
                    .as_int()
                    .and_then(|i| usize::try_from(i).ok())
                    .map(Some)
                    .ok_or_else(|| format!("{CTX}: bad axis entry")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        dim_axis.insert(d.str("array")?, axes);
    }

    let mut syncs = BTreeMap::new();
    for s in v.objs("syncs")? {
        let id = s.int("id")?;
        let arrays = s
            .objs("arrays")?
            .map(|a| {
                let ghost = a
                    .arr("ghost")?
                    .iter()
                    .map(|g| {
                        g.as_int_pair()
                            .ok_or_else(|| format!("{CTX}: bad ghost width pair"))
                    })
                    .collect::<Result<Vec<[u64; 2]>, String>>()?;
                Ok(SyncArray {
                    array: a.str("array")?,
                    ghost,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        syncs.insert(
            id,
            SyncSpec {
                id,
                arrays,
                merged: s.int("merged")?,
            },
        );
    }

    let mut overlaps = BTreeMap::new();
    for o in v.objs("overlaps")? {
        overlaps.insert(
            o.int("sync")?,
            OverlapSpec {
                stmt: StmtId(o.int("stmt")?),
                var: o.str("var")?,
                axis: o.int("axis")?,
                low_width: o.int("low_width")?,
                high_width: o.int("high_width")?,
            },
        );
    }

    let mut self_loops = BTreeMap::new();
    for sl in v.objs("self_loops")? {
        let id = sl.int("id")?;
        let arrays = sl
            .objs("arrays")?
            .map(|a| {
                Ok::<SelfArraySpec, String>(SelfArraySpec {
                    array: a.str("array")?,
                    forward: parse_pipe_steps(a, "forward")?,
                    mirror: parse_pipe_steps(a, "mirror")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        self_loops.insert(id, SelfLoopSpec { id, arrays });
    }

    let reduces = v
        .objs("reduces")?
        .map(|r| {
            Ok::<ReduceSpec, String>(ReduceSpec {
                var: r.str("var")?,
                op: r.str("op")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let mut fills = BTreeMap::new();
    for f in v.objs("fills")? {
        let arrays = f
            .arr("arrays")?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{CTX}: bad fill array"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        fills.insert(f.int("id")?, arrays);
    }

    let mut checkpoint_syncs = BTreeMap::new();
    for c in v.objs("checkpoint_syncs")? {
        checkpoint_syncs.insert(c.int("sync")?, StmtId(c.int("stmt")?));
    }

    let mut checkpoint_sites = BTreeMap::new();
    for c in v.objs("checkpoint_sites")? {
        checkpoint_sites.insert(
            c.int("sync")?,
            CutSite {
                list_kind: c.int("kind")?,
                list_stmt: c.int("stmt")?,
                arm: c.int("arm")?,
                gap: c.int("gap")?,
            },
        );
    }

    Ok(SpmdPlan {
        partition,
        dim_axis,
        syncs,
        overlaps,
        self_loops,
        reduces,
        fills,
        checkpoint_syncs,
        checkpoint_sites,
        sync_before: v.int("sync_before")?,
        sync_after: v.int("sync_after")?,
        engine: Default::default(),
        threads: v.int::<u32>("threads")?.max(1),
        kernel_nests: v
            .ints::<u32>("kernel_nests")?
            .into_iter()
            .map(StmtId)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_full_plan() {
        let p = partition(&GridShape::d2(10, 10), &PartitionSpec::new(&[2, 1]));
        let plan = SpmdPlan {
            partition: p,
            dim_axis: BTreeMap::from([("v".into(), vec![Some(0), None, Some(1)])]),
            syncs: BTreeMap::from([(
                0,
                SyncSpec {
                    id: 0,
                    arrays: vec![SyncArray {
                        array: "v".into(),
                        ghost: vec![[1, 2], [0, 0]],
                    }],
                    merged: 2,
                },
            )]),
            overlaps: BTreeMap::from([(
                0,
                OverlapSpec {
                    stmt: StmtId(7),
                    var: "i".into(),
                    axis: 0,
                    low_width: 1,
                    high_width: 1,
                },
            )]),
            self_loops: BTreeMap::from([(
                0,
                SelfLoopSpec {
                    id: 0,
                    arrays: vec![SelfArraySpec {
                        array: "v".into(),
                        forward: vec![PipeStep {
                            axis: 0,
                            dir: -1,
                            width: 1,
                        }],
                        mirror: vec![PipeStep {
                            axis: 0,
                            dir: 1,
                            width: 1,
                        }],
                    }],
                },
            )]),
            reduces: vec![ReduceSpec {
                var: "err".into(),
                op: "max".into(),
            }],
            fills: BTreeMap::from([(0, vec!["v".into()])]),
            checkpoint_syncs: BTreeMap::from([(0, StmtId(4))]),
            checkpoint_sites: BTreeMap::from([(
                0,
                CutSite {
                    list_kind: 1,
                    list_stmt: 3,
                    arm: 0,
                    gap: 2,
                },
            )]),
            sync_before: 5,
            sync_after: 1,
            engine: Default::default(),
            threads: 4,
            kernel_nests: vec![StmtId(7), StmtId(12)],
        };
        let text = to_json(&plan);
        let back = from_json(&text, None).unwrap();
        assert_eq!(back, plan);
        assert_eq!(from_json(&text, Some(2)).unwrap(), plan);
        // serialization is deterministic
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn version_mismatch_rejected() {
        let p = partition(&GridShape::d2(4, 4), &PartitionSpec::new(&[1, 1]));
        let plan = SpmdPlan {
            partition: p,
            dim_axis: BTreeMap::new(),
            syncs: BTreeMap::new(),
            overlaps: BTreeMap::new(),
            self_loops: BTreeMap::new(),
            reduces: vec![],
            fills: BTreeMap::new(),
            checkpoint_syncs: BTreeMap::new(),
            checkpoint_sites: BTreeMap::new(),
            sync_before: 0,
            sync_after: 0,
            engine: Default::default(),
            threads: 1,
            kernel_nests: vec![],
        };
        let text = to_json(&plan).replace("\"version\":3", "\"version\":99");
        let err = from_json(&text, None).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        // v1 (pre-engine) and v2 (engine-selecting) artifacts are stale too
        for old in [1, 2] {
            let text = to_json(&plan).replace("\"version\":3", &format!("\"version\":{old}"));
            let err = from_json(&text, None).unwrap_err();
            assert!(err.contains(&format!("schema version {old}")), "{err}");
        }
    }

    #[test]
    fn invalid_partition_rejected_not_panicking() {
        // 8 parts on an extent-4 axis would make `partition()` panic;
        // the loader must reject it as a parse error instead
        let text = r#"{"version":3,"partition":{"extents":[4,4],"parts":[8,1]},
            "dim_axis":[],"syncs":[],"overlaps":[],"self_loops":[],
            "reduces":[],"fills":[],"checkpoint_syncs":[],
            "sync_before":0,"sync_after":0,
            "threads":1,"kernel_nests":[]}"#;
        let err = from_json(text, None).unwrap_err();
        assert!(err.contains("cannot be split"), "{err}");
    }

    #[test]
    fn oversized_rank_counts_are_refused_before_any_subgrid_is_built() {
        let text = |n: u32| {
            format!(
                r#"{{"version":3,"partition":{{"extents":[{n},{n}],"parts":[{n},{n}]}},
                "dim_axis":[],"syncs":[],"overlaps":[],"self_loops":[],
                "reduces":[],"fills":[],"checkpoint_syncs":[],"checkpoint_sites":[],
                "sync_before":0,"sync_after":0,
                "threads":1,"kernel_nests":[]}}"#
            )
        };
        // 65536 × 65536 ranks overflow u32
        let err = from_json(&text(65536), None).unwrap_err();
        assert!(err.contains("more ranks than fit"), "{err}");
        // 50000 × 50000 fits, but is refused against the expected count
        // instead of allocating 2.5e9 subgrids
        let err = from_json(&text(50000), Some(4)).unwrap_err();
        assert!(
            err.contains("targets 2500000000 ranks but 4 were expected"),
            "{err}"
        );
        // the same document at a sane size still loads
        assert_eq!(from_json(&text(2), Some(4)).unwrap().ranks(), 4);
    }

    #[test]
    fn garbage_rejected_with_context() {
        assert!(from_json("not json", None)
            .unwrap_err()
            .contains("parse error"));
        assert!(from_json("{}", None).unwrap_err().contains("version"));
        let err = from_json(r#"{"version":3}"#, None).unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }
}
