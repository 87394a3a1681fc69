//! Reference vs production: every run executes eligible comm-free loop
//! nests as compiled kernels, and must be bit-exact with the reference
//! tree walk (`RunConfig::reference`) across the whole execution matrix
//! — {reference, production} × {overlap off, on} × {inproc, tcp} —
//! against the sequential original on both case studies, across the
//! Table-1 partitions. Also covers the ineligible-nest fallback,
//! multi-thread determinism, compute spans, and checkpoint/resume.

use autocfd::interp::{
    kernel_nests, verify_owned_regions, CheckpointOpts, RankResult, RankRun, RunConfig,
};
use autocfd::runtime::checkpoint::{latest_consistent_epoch, write_manifest, RunManifest};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::{compile, CompileOptions, Compiled};
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use autocfd_fortran::parse;
use std::path::PathBuf;
use std::time::Duration;

fn threaded(parts: &[u32], threads: u32) -> CompileOptions {
    CompileOptions {
        threads,
        ..CompileOptions::with_partition(parts)
    }
}

/// Execute the compiled program with every rank on its own TCP endpoint,
/// returning per-rank results in rank order.
fn run_over_tcp(c: &Compiled, overlap: bool) -> Vec<RankResult> {
    let n = c.spmd_plan.ranks() as usize;
    run_spmd_tcp(n, Duration::from_secs(60), |comm| {
        c.run_config().overlap(overlap).run_rank(&comm)
    })
    .expect("mesh setup")
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .expect("rank execution")
}

/// Every cell of the execution matrix must be bit-exact against the
/// sequential original, and the compiled kernels must agree with the
/// reference tree walk on everything observable: fields, output, op
/// counters, traffic, and phase structure.
fn check_engines_agree(src: &str, parts: &[u32]) {
    let c = compile(src, &threaded(parts, 4)).unwrap_or_else(|e| panic!("{parts:?}: {e}"));
    assert!(
        !c.spmd_plan.kernel_nests.is_empty(),
        "{parts:?}: the transformed program exposes no kernel-eligible nests"
    );
    let seq = c.run_sequential(vec![]).unwrap();

    for overlap in [false, true] {
        let reference = c.run_config().reference().overlap(overlap);
        let t_in = reference.run_parallel().unwrap();
        let k_in = c.run_parallel_opts(vec![], overlap).unwrap();
        let k_tcp = run_over_tcp(&c, overlap);

        for (label, runs) in [
            ("reference inproc", &t_in),
            ("kernel inproc", &k_in),
            ("kernel tcp", &k_tcp),
        ] {
            let d = verify_owned_regions(&seq, runs, &c.spmd_plan, 0.0).unwrap();
            assert_eq!(d, 0.0, "{parts:?} {label} overlap={overlap}");
            assert_eq!(
                seq.0.output, runs[0].machine.output,
                "{parts:?} {label} overlap={overlap}: output diverged"
            );
        }
        for (r, (t, k)) in t_in.iter().zip(&k_in).enumerate() {
            // bit-exactness is stronger than equal fields: the kernels
            // charge the same op counters, take the same communication
            // path, and visit the same phases
            assert_eq!(
                t.machine.ops, k.machine.ops,
                "{parts:?} rank {r} overlap={overlap}: engines disagree on op counts"
            );
            assert_eq!(
                t.comm_stats, k.comm_stats,
                "{parts:?} rank {r} overlap={overlap}: engines disagree on traffic"
            );
            assert_eq!(t.phases, k.phases, "{parts:?} rank {r}");
        }
    }
}

#[test]
fn aerofoil_kernel_engine_bit_exact_on_table1_partitions() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    for parts in [[2u32, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1], [3, 1, 1]] {
        check_engines_agree(&src, &parts);
    }
}

#[test]
fn sprayer_kernel_engine_bit_exact_on_table1_partitions() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    for parts in [[4u32, 1], [1, 4], [2, 2], [3, 1]] {
        check_engines_agree(&src, &parts);
    }
}

/// The tree walk's absolute op counts and output on the original case
/// studies, pinned, and the compiled kernels' equal to them: a faster
/// tree walk must still count every flop, load, store and statement. A
/// default compile records the kernel nests every run compiles.
#[test]
fn tree_walk_counts_and_output_are_pinned_on_the_original_case_studies() {
    let cases = [
        (
            sprayer_program(&CaseParams::sprayer_small()),
            [20304, 17990, 5976, 7428],
            ["err 0.066821", "probe 0.095885 0.086576"],
        ),
        (
            aerofoil_program(&CaseParams::aerofoil_small()),
            [125739, 99458, 37788, 49346],
            ["err 0.072394", "probe 0.025971 0.240000"],
        ),
    ];
    for (src, [flops, loads, stores, stmts], output) in cases {
        let c = compile(&src, &CompileOptions::with_procs(2)).unwrap();
        assert!(!c.spmd_plan.kernel_nests.is_empty());
        let (tree, _) = c.run_sequential(vec![]).unwrap();
        let (kern, _) = RunConfig::new(&c.ir.file).run_sequential().unwrap();
        for (engine, m) in [("tree", &tree), ("kernel", &kern)] {
            assert_eq!(
                [m.ops.flops, m.ops.loads, m.ops.stores, m.ops.stmts],
                [flops, loads, stores, stmts],
                "{engine}"
            );
            assert_eq!(m.output, output, "{engine}");
        }
    }
}

#[test]
fn kernel_engine_is_deterministic_across_thread_counts() {
    // splitting the interior across workers must not change a single
    // bit: same fields, same output, same op counters at 1 and 4 threads
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let seq = c.run_sequential(vec![]).unwrap();
    let mut runs = Vec::new();
    for threads in [1u32, 4] {
        let rs = c.run_config().threads(threads).run_parallel().unwrap();
        assert_eq!(
            verify_owned_regions(&seq, &rs, &c.spmd_plan, 0.0).unwrap(),
            0.0,
            "threads={threads}"
        );
        runs.push(rs);
    }
    for (r, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(a.machine.ops, b.machine.ops, "rank {r}: op counts differ");
        assert_eq!(a.machine.output, b.machine.output, "rank {r}");
    }
}

#[test]
fn ineligible_nest_falls_back_to_tree_walk() {
    // the goto escaping the loop makes the nest kernel-ineligible; a run
    // must silently tree-walk it and still match the reference
    // bit-for-bit
    let src = "
      program fallback
      real v(8)
      integer i
      do i = 1, 8
        v(i) = i * 2.0
        if (v(i) .gt. 9.0) goto 10
      end do
 10   continue
      write(*,*) v(1), v(5), v(8)
      end
";
    let file = parse(src).unwrap();
    assert!(
        kernel_nests(&file).is_empty(),
        "the escaping goto must make this nest ineligible"
    );
    let tree = RunConfig::new(&file).reference().run_sequential().unwrap();
    let kern = RunConfig::new(&file).threads(4).run_sequential().unwrap();
    assert_eq!(tree.0.output, kern.0.output);
    assert_eq!(tree.0.ops, kern.0.ops);
}

#[test]
fn kernel_runs_keep_compute_spans() {
    // kernel execution records compute spans through the same recorder
    // as the tree walk, so trace structure is the reference's
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &threaded(&[2, 2], 4)).unwrap();
    let k_runs = c.run_config().run_parallel_traced();
    let t_runs = c.run_config().reference().run_parallel_traced();
    for (r, (k, t)) in k_runs.iter().zip(&t_runs).enumerate() {
        assert!(k.outcome.is_ok(), "rank {r}");
        let computes = |run: &RankRun| {
            run.trace
                .iter()
                .filter(|e| matches!(e.kind.name(), "compute" | "overlap"))
                .count()
        };
        assert!(computes(k) > 0, "rank {r}: kernel run traced no compute");
        // identical span structure: same number of compute spans in the
        // same phases as the tree walk
        assert_eq!(computes(k), computes(t), "rank {r}");
        assert_eq!(k.phases, t.phases, "rank {r}");
    }
}

#[test]
fn kernel_engine_kill_and_resume_stays_bit_exact() {
    // checkpoint a threaded kernel run, crash a rank, resume: fields
    // must match the sequential original exactly
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &threaded(&[2, 2], 2)).unwrap();
    let n = c.spmd_plan.ranks() as usize;
    let seq = c.run_sequential(vec![]).unwrap();
    let dir = std::env::temp_dir().join(format!("acfd-kern-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let runs = run_spmd_tcp(n, Duration::from_millis(1500), |comm| {
        let chaos = (comm.rank() == 0).then_some(7);
        c.run_config()
            .checkpoint(CheckpointOpts {
                every: 2,
                dir: PathBuf::from(&dir),
                chaos_abort_after: chaos,
            })
            .run_rank_traced(&comm)
    })
    .expect("mesh setup");
    let err = runs[0].outcome.as_ref().expect_err("rank 0 must crash");
    assert!(err.to_string().contains("chaos-abort"), "{err}");

    // epoch consistency is judged against the manifest's rank count, so
    // write the manifest an `acfc run` launch would have left behind
    write_manifest(
        &dir,
        &RunManifest {
            source: src.clone(),
            parts: c.partition.spec.parts.clone(),
            grid: c.partition.shape.extents.clone(),
            ranks: n,
            distance: 1,
            optimize: true,
            overlap: false,
            checkpoint_every: 2,
            timeout_ms: 2000,
            threads: 2,
        },
    )
    .unwrap();
    let epoch = latest_consistent_epoch(&dir).expect("a consistent epoch survived");
    let resumed: Vec<RankResult> = run_spmd_tcp(n, Duration::from_secs(60), |comm| {
        c.run_config()
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
    let d = verify_owned_regions(&seq, &resumed, &c.spmd_plan, 0.0).unwrap();
    assert_eq!(d, 0.0, "kernel resume diverged");
    assert_eq!(seq.0.output, resumed[0].machine.output);
    let _ = std::fs::remove_dir_all(&dir);
}
