//! Elastic repartitioning: regather→scatter must be the identity at
//! `M == N` (property-tested over every epoch of checkpointed runs of
//! both case studies), and an N-rank cut resumed onto M ranks — both
//! shrinking and growing, at one and two kernel threads per rank — must
//! finish bit-identical to an uninterrupted M-rank run.

use autocfd::interp::{
    owned_region, repartition, verify_owned_regions, CheckpointOpts, RankResult,
};
use autocfd::runtime::checkpoint::{
    copy_region, latest_consistent_epoch, load_epoch, write_manifest, RunManifest, Snapshot,
};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::{compile, CompileOptions, Compiled};
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acfd-elastic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The relaunch manifest an `acfc run` launch would have left next to
/// the snapshots — epoch consistency is judged against its rank count.
fn write_run_manifest(c: &Compiled, src: &str, dir: &Path) {
    write_manifest(
        dir,
        &RunManifest {
            source: src.to_string(),
            parts: c.partition.spec.parts.clone(),
            grid: c.partition.shape.extents.clone(),
            ranks: c.spmd_plan.ranks() as usize,
            distance: 1,
            optimize: true,
            overlap: false,
            checkpoint_every: 2,
            timeout_ms: 2000,
            threads: 1,
        },
    )
    .unwrap();
}

/// Every complete epoch of `dir`, oldest first.
fn load_all_epochs(dir: &Path) -> Vec<Vec<Snapshot>> {
    let mut nums: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_prefix("epoch-")?
                .parse()
                .ok()
        })
        .collect();
    nums.sort_unstable();
    nums.iter().map(|&e| load_epoch(dir, e).unwrap()).collect()
}

// ---------------------------------------------------------------------
// Regather→scatter at M == N is the identity
// ---------------------------------------------------------------------

/// Check one rank of a same-geometry repartition against its original:
/// identical metadata, scalars, and owned-region (and non-distributed)
/// array contents. Non-owned points legitimately differ — the scatter
/// replaces stale ghost copies with the stitched owner values.
fn assert_identity(orig: &[Snapshot], re: &Snapshot, c: &Compiled) {
    let o = &orig[re.rank];
    assert_eq!(re.ranks, orig.len());
    assert_eq!(re.parts, o.parts);
    assert_eq!(re.epoch, o.epoch);
    assert_eq!(re.sync_id, o.sync_id);
    assert_eq!(re.cursor, o.cursor);
    assert_eq!(re.input, o.input);
    assert_eq!(re.output, o.output);
    // op counters are per-rank telemetry (localized loops do different
    // amounts of work per rank); the scatter hands out rank 0's
    assert_eq!(re.ops, orig[0].ops);

    // Scalars: the rank's own subgrid bounds must be recomputed to the
    // same values; anything the old ranks agreed on must pass through
    // untouched. The remainder — dead values of loop inductions that
    // ran over rank-local bounds, which the next `do` reinitializes —
    // takes rank 0's copy by construction.
    let find = |s: &Snapshot, name: &str| {
        s.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(re.scalars.len(), o.scalars.len(), "rank {}", re.rank);
    for (name, v) in &re.scalars {
        let want = if name.starts_with("acflo")
            || name.starts_with("acfhi")
            || orig.iter().all(|s| find(s, name) == find(o, name))
        {
            find(o, name)
        } else {
            find(&orig[0], name)
        };
        assert_eq!(Some(v.clone()), want, "rank {}: scalar `{name}`", re.rank);
    }

    assert_eq!(re.arrays.len(), o.arrays.len());
    for (a, b) in o.arrays.iter().zip(&re.arrays) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.bounds, b.bounds);
        assert_eq!(a.is_int, b.is_int);
        match c.spmd_plan.dim_axis.get(&a.name) {
            // not distributed: every rank computed the full field, the
            // stitch passes rank 0's copy through verbatim
            None => assert_eq!(
                b.data,
                orig[0]
                    .arrays
                    .iter()
                    .find(|x| x.name == a.name)
                    .unwrap()
                    .data
            ),
            Some(axes) => {
                let Some(region) = owned_region(&c.partition, &a.bounds, axes, re.rank as u32)
                else {
                    continue;
                };
                // overwrite a copy of the original with the re-scattered
                // owned region: identity iff nothing changes
                let mut patched = a.data.clone();
                copy_region(&a.bounds, &region, &b.data, &mut patched).unwrap();
                assert_eq!(
                    patched, a.data,
                    "rank {}: array `{}` owned region changed",
                    re.rank, a.name
                );
            }
        }
    }
}

fn check_identity(src: &str, parts: &[u32], tag: &str) {
    let c = compile(src, &CompileOptions::with_partition(parts))
        .unwrap_or_else(|e| panic!("{parts:?}: {e}"));
    let dir = temp_dir(tag);
    c.run_config()
        .checkpoint(CheckpointOpts {
            every: 2,
            dir: dir.clone(),
            chaos_abort_after: None,
        })
        .run_parallel()
        .unwrap_or_else(|e| panic!("{parts:?}: {e}"));
    let epochs = load_all_epochs(&dir);
    assert!(!epochs.is_empty(), "{parts:?}: run left no epochs");
    for snaps in &epochs {
        let re = repartition(snaps, &c.spmd_plan, &c.parallel_file)
            .unwrap_or_else(|e| panic!("{parts:?}: {e}"));
        assert_eq!(re.len(), snaps.len());
        for r in &re {
            assert_identity(snaps, r, &c);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Re-decomposing a cut onto its own partition changes nothing: not
    /// the cursor, not a scalar, not one owned point — on any epoch of
    /// either case study, across the Table-1 partitions.
    #[test]
    fn repartition_at_same_geometry_is_identity(case in 0usize..2, pick in 0usize..4) {
        if case == 0 {
            let parts: [&[u32]; 4] = [&[2, 1, 1], &[1, 2, 1], &[2, 2, 1], &[3, 1, 1]];
            let src = aerofoil_program(&CaseParams::aerofoil_small());
            check_identity(&src, parts[pick], &format!("id-a{pick}"));
        } else {
            let parts: [&[u32]; 4] = [&[4, 1], &[1, 4], &[2, 2], &[3, 1]];
            let src = sprayer_program(&CaseParams::sprayer_small());
            check_identity(&src, parts[pick], &format!("id-s{pick}"));
        }
    }
}

// ---------------------------------------------------------------------
// N→M resume is bit-exact against an uninterrupted M-rank run
// ---------------------------------------------------------------------

/// Crash a checkpointed N-rank TCP run, then resume the surviving cut
/// on an M-rank mesh compiled for `new_parts`: owned regions must match
/// the sequential original bit-exactly and the output trace must equal
/// an uninterrupted M-rank run's.
fn check_elastic_resume(
    src: &str,
    old_parts: &[u32],
    new_parts: &[u32],
    chaos_at: u64,
    threads: u32,
    tag: &str,
) {
    let opts = |parts: &[u32]| CompileOptions {
        threads,
        ..CompileOptions::with_partition(parts)
    };
    let old_c = compile(src, &opts(old_parts)).unwrap();
    let new_c = compile(src, &opts(new_parts)).unwrap();
    let old_n = old_c.spmd_plan.ranks() as usize;
    let new_n = new_c.spmd_plan.ranks() as usize;
    assert_ne!(old_n, new_n, "elastic cases must change the rank count");
    let seq = new_c.run_sequential(vec![]).unwrap();
    let uninterrupted = new_c.run_parallel(vec![]).unwrap();

    let dir = temp_dir(tag);
    write_run_manifest(&old_c, src, &dir);
    let runs = run_spmd_tcp(old_n, Duration::from_millis(1500), |comm| {
        let chaos = (comm.rank() == 0).then_some(chaos_at);
        old_c
            .run_config()
            .checkpoint(CheckpointOpts {
                every: 2,
                dir: dir.clone(),
                chaos_abort_after: chaos,
            })
            .run_rank_traced(&comm)
    })
    .expect("mesh setup");
    let err = runs[0].outcome.as_ref().expect_err("rank 0 must crash");
    assert!(err.to_string().contains("chaos-abort"), "{err}");
    let epoch = latest_consistent_epoch(&dir).expect("a consistent epoch survived the crash");

    let resumed: Vec<RankResult> = run_spmd_tcp(new_n, Duration::from_secs(60), |comm| {
        new_c
            .run_config()
            .resume_from(&dir)
            .resume_epoch(epoch)
            .run_rank_traced(&comm)
    })
    .expect("mesh setup")
    .into_iter()
    .enumerate()
    .map(|(r, run)| {
        run.into_result()
            .unwrap_or_else(|e| panic!("resumed rank {r} failed: {e}"))
    })
    .collect();

    let d = verify_owned_regions(&seq, &resumed, &new_c.spmd_plan, 0.0).unwrap();
    assert_eq!(
        d, 0.0,
        "{old_parts:?}→{new_parts:?}: resumed fields diverged"
    );
    assert_eq!(
        uninterrupted[0].machine.output, resumed[0].machine.output,
        "{old_parts:?}→{new_parts:?}: resumed output trace differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sprayer_shrinks_from_4_to_2_ranks_bit_exact() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    check_elastic_resume(&src, &[2, 2], &[2, 1], 7, 1, "s4to2");
}

#[test]
fn sprayer_grows_from_2_to_4_ranks_bit_exact() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    check_elastic_resume(&src, &[2, 1], &[2, 2], 7, 1, "s2to4");
}

#[test]
fn aerofoil_grows_from_2_to_3_ranks_bit_exact() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    check_elastic_resume(&src, &[2, 1, 1], &[3, 1, 1], 9, 1, "a2to3");
}

#[test]
fn aerofoil_shrinks_from_4_to_2_ranks_bit_exact() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    check_elastic_resume(&src, &[2, 2, 1], &[1, 2, 1], 9, 1, "a4to2");
}

#[test]
fn kernel_engine_elastic_resume_both_directions() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    check_elastic_resume(&src, &[2, 2], &[2, 1], 7, 2, "k4to2");
    check_elastic_resume(&src, &[2, 1], &[2, 2], 7, 2, "k2to4");
}

#[test]
fn schema1_snapshots_refuse_to_repartition() {
    // snapshots without recorded geometry can resume at N == N but must
    // fail loudly — not silently misassemble — when asked to change N
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let dir = temp_dir("schema1");
    c.run_config()
        .checkpoint(CheckpointOpts {
            every: 2,
            dir: dir.clone(),
            chaos_abort_after: None,
        })
        .run_parallel()
        .unwrap();
    let mut snaps = load_all_epochs(&dir).pop().unwrap();
    for s in &mut snaps {
        s.parts.clear(); // a caller-built snapshot without geometry
    }
    let target = compile(&src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let err = repartition(&snaps, &target.spmd_plan, &target.parallel_file).unwrap_err();
    assert!(
        err.contains("no partition geometry"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
