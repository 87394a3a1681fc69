//! Cross-crate pipeline tests: each stage of Figure 2 hands the right
//! artifacts to the next, and the compiler's decisions are observable in
//! the generated source.

use autocfd::{compile, CompileError, CompileOptions};
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};

const SRC: &str = "
!$acf grid(40, 20)
!$acf status v, vn
      program demo
      real v(40,20), vn(40,20)
      integer i, j, it
      do it = 1, 4
        do i = 2, 39
          do j = 2, 19
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
        do i = 2, 39
          do j = 2, 19
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";

#[test]
fn pipeline_stages_artifacts() {
    let c = compile(SRC, &CompileOptions::with_partition(&[4, 1])).unwrap();
    // IR: loop tree with field roots
    let u = &c.ir.units[0];
    assert!(u.field_roots().count() >= 2);
    // partition geometry
    assert_eq!(c.partition.subgrids.len(), 4);
    assert_eq!(c.partition.subgrid(0).lo, vec![1, 1]);
    assert_eq!(c.partition.subgrid(3).hi, vec![40, 20]);
    // sync plan: the wrap-around v dependence gives one point per frame
    assert_eq!(c.sync_plan.sync_points.len(), 1);
    // spmd plan mirrors it
    assert_eq!(c.spmd_plan.syncs.len(), 1);
    assert_eq!(c.spmd_plan.ranks(), 4);
    assert_eq!(c.spmd_plan.cut_axes(), vec![0]);
}

#[test]
fn generated_source_contains_all_insertions() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2, 1])).unwrap();
    let out = c.parallel_source();
    assert!(out.contains("call acf_init()"), "init call");
    assert!(out.contains("call acf_sync_"), "halo exchanges");
    assert!(out.contains("call acf_pre_"), "mirror-image pre");
    assert!(out.contains("call acf_post_"), "mirror-image post");
    assert!(
        out.contains("call acf_reduce_max_err()"),
        "convergence reduction"
    );
    assert!(
        out.contains("acflo1") && out.contains("acfhi2"),
        "localized bounds"
    );
    // still valid Fortran
    autocfd_fortran::parse(&out).expect("generated source reparses");
}

#[test]
fn paper_scale_case_studies_compile() {
    // full 99×41×13 and 300×100 programs go through the whole pipeline
    // (no execution here — analysis and restructuring only)
    let a = aerofoil_program(&CaseParams::aerofoil_paper());
    for parts in [
        [4u32, 1, 1],
        [1, 4, 1],
        [1, 1, 4],
        [4, 4, 1],
        [4, 1, 4],
        [1, 4, 4],
    ] {
        let c = compile(&a, &CompileOptions::with_partition(&parts))
            .unwrap_or_else(|e| panic!("{parts:?}: {e}"));
        assert!(
            c.sync_plan.stats.after < c.sync_plan.stats.before,
            "{parts:?}"
        );
    }
    let b = sprayer_program(&CaseParams::sprayer_paper());
    for parts in [[4u32, 1], [1, 4], [4, 4]] {
        let c = compile(&b, &CompileOptions::with_partition(&parts)).unwrap();
        assert!(c.sync_plan.stats.reduction_pct() > 60.0, "{parts:?}");
    }
}

#[test]
fn table1_partition_scaling_shape() {
    // Table 1: two cut axes produce roughly double the raw synchronization
    // points of one cut axis, and the optimizer's reduction percentage
    // stays at the ~90% level throughout.
    let a = aerofoil_program(&CaseParams::aerofoil_paper());
    let one = compile(&a, &CompileOptions::with_partition(&[4, 1, 1])).unwrap();
    let two = compile(&a, &CompileOptions::with_partition(&[4, 4, 1])).unwrap();
    let (b1, b2) = (one.sync_plan.stats.before, two.sync_plan.stats.before);
    assert!(b2 > b1, "two-axis raw count {b2} must exceed one-axis {b1}");
    assert!(
        (b2 as f64) < 2.5 * b1 as f64,
        "roughly doubles: {b1} -> {b2}"
    );
}

#[test]
fn self_dependent_sweeps_planned_per_cut_axis() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    // cut axis 0: only sweepi pipelines; sweepj/sweepk have no crossing
    // self-dependence
    let c = compile(&src, &CompileOptions::with_partition(&[2, 1, 1])).unwrap();
    assert_eq!(c.spmd_plan.self_loops.len(), 1);
    // cut axes 0 and 1: sweepi and sweepj pipeline
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2, 1])).unwrap();
    assert_eq!(c.spmd_plan.self_loops.len(), 2);
}

#[test]
fn unoptimized_mode_is_faithful_baseline() {
    let c = compile(
        SRC,
        &CompileOptions {
            partition: Some(vec![4, 1]),
            optimize: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(c.sync_plan.stats.before, c.sync_plan.stats.after);
    assert_eq!(
        c.verify(vec![], 0.0).unwrap(),
        0.0,
        "unoptimized is still correct"
    );
}

#[test]
fn errors_are_reported_with_context() {
    // unparsable
    let e = compile(
        "      program p\n      x = = 1\n      end\n",
        &CompileOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(e, CompileError::Frontend(_)));
    assert!(e.to_string().contains("line"));
    // over-partitioned grid
    let tiny = "
!$acf grid(3, 3)
!$acf status v
      program p
      real v(3,3)
      v(1,1) = 0.0
      end
";
    let r = std::panic::catch_unwind(|| compile(tiny, &CompileOptions::with_partition(&[8, 1])));
    assert!(r.is_err() || r.unwrap().is_err());
}

#[test]
fn interior_ranks_communicate_twice_as_much_measured() {
    // §6.2: "each processor holding a non-boundary subtask needs to
    // communicate with two neighbor processors" — verify on REAL traffic
    let c = compile(SRC, &CompileOptions::with_partition(&[4, 1])).unwrap();
    let par = c.run_parallel(vec![]).unwrap();
    let elems: Vec<u64> = par.iter().map(|r| r.comm_stats.1).collect();
    // boundary ranks 0 and 3; interior ranks 1 and 2
    assert_eq!(elems[1], 2 * elems[0], "{elems:?}");
    assert_eq!(elems[2], 2 * elems[3], "{elems:?}");
    assert!(elems[0] > 0);
}

#[test]
fn combined_sync_traffic_is_pinned_per_case_and_partition() {
    // The absolute cost of §5's combining on real runs: summed messages,
    // f64s shipped, barriers and reductions across all ranks, plus the
    // sync points before/after optimization. Traffic is deterministic,
    // so any change here is a change to what the optimizer saves.
    let aerofoil = aerofoil_program(&CaseParams::aerofoil_bench());
    let sprayer = sprayer_program(&CaseParams::sprayer_bench());
    // (source, partition, [msgs, f64s, barriers, reduces], syncs before → after)
    let rows = [
        (&aerofoil, &[2, 1, 1][..], [182, 234_736, 0, 16], (55, 11)),
        (&aerofoil, &[2, 2, 1], [592, 513_528, 0, 32], (85, 18)),
        (&sprayer, &[4, 1], [288, 129_312, 0, 48], (23, 5)),
        (&sprayer, &[2, 2], [328, 122_928, 0, 48], (36, 9)),
    ];
    for (src, parts, traffic, syncs) in rows {
        let c = compile(src, &CompileOptions::with_partition(parts)).unwrap();
        let mut sum = [0u64; 4];
        for rank in c.run_parallel(vec![]).unwrap() {
            let (m, e, b, r) = rank.comm_stats;
            for (s, v) in sum.iter_mut().zip([m, e, b, r]) {
                *s += v;
            }
        }
        let stats = c.sync_plan.stats;
        assert_eq!(
            (sum, (stats.before, stats.after)),
            (traffic, syncs),
            "{parts:?}: ([msgs, f64s, barriers, reduces], (syncs before, after))"
        );
    }
}

#[test]
fn traces_show_pipeline_structure() {
    use autocfd::runtime::EventKind;
    // a pure Gauss–Seidel program on 4 ranks: every rank except rank 0
    // must have blocking pipeline receives; rank 3 never sends forward
    let src = "
!$acf grid(24, 12)
!$acf status v
      program gs
      real v(24,12)
      integer i, j, it
      do it = 1, 4
        do i = 2, 23
          do j = 2, 11
            v(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
      end do
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[4, 1])).unwrap();
    let par = c.run_parallel(vec![]).unwrap();
    for (r, rank) in par.iter().enumerate() {
        let recvs = rank
            .trace
            .iter()
            .filter(|e| e.kind == EventKind::Recv)
            .count();
        let sends = rank
            .trace
            .iter()
            .filter(|e| e.kind == EventKind::Send)
            .count();
        // per frame: boundary ranks do 2 transfers (1 old + 1 pipeline
        // side), interior ranks 4; sends mirror receives across the rank
        // row, so total sends == total receives per rank here
        assert!(recvs > 0 && sends > 0, "rank {r} traced nothing");
        if r == 1 || r == 2 {
            assert!(
                recvs
                    > par[0]
                        .trace
                        .iter()
                        .filter(|e| e.kind == EventKind::Recv)
                        .count()
                        / 2,
                "interior rank {r} must receive at least as much as boundary ranks"
            );
        }
    }
    // the timeline renderer accepts real traces
    let traces: Vec<_> = par.iter().map(|r| r.trace.clone()).collect();
    let txt = autocfd::runtime::render_timeline(&traces, 40);
    assert_eq!(txt.lines().count(), 4 + 2, "4 rank rows + axis + legend");
}

#[test]
fn output_fills_make_all_ranks_print_correct_values() {
    // the probe v(35,18) is owned by the LAST rank; without the
    // acf_fill allgather, rank 0 would print stale data
    let src = "
!$acf grid(40, 20)
!$acf status v, vn
      program probe
      real v(40,20), vn(40,20)
      integer i, j, it
      do i = 1, 40
        do j = 1, 20
          v(i,j) = 0.01*(i*2 + j*3)
        end do
      end do
      do it = 1, 3
        do i = 2, 39
          do j = 2, 19
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
        do i = 2, 39
          do j = 2, 19
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      write(*,*) 'far probe', v(35,18), v(3,2)
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[4, 2])).unwrap();
    assert_eq!(c.spmd_plan.fills.len(), 1, "one fill for the probing write");
    assert!(c.parallel_source().contains("call acf_fill_0()"));
    let seq = c.run_sequential(vec![]).unwrap();
    let par = c.run_parallel(vec![]).unwrap();
    for (r, rank) in par.iter().enumerate() {
        assert_eq!(
            rank.machine.output, seq.0.output,
            "rank {r} must print the true field values"
        );
    }
}

#[test]
fn labeled_do_keeps_insertions_inside_the_loop() {
    // a sync point at the end of a label-terminated frame loop must print
    // BEFORE the terminal `100 continue`, or the emitted source would
    // re-parse with the synchronization outside the loop
    let src = "
!$acf grid(20, 10)
!$acf status v, w
      program lab
      real v(20,10), w(20,10)
      integer i, j, it
      do 100 it = 1, 3
        do i = 2, 19
          do j = 1, 10
            w(i,j) = v(i-1,j) + v(i+1,j)
          end do
        end do
        do i = 1, 20
          do j = 1, 10
            v(i,j) = w(i,j) * 0.5
          end do
        end do
100   continue
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let out = c.parallel_source();
    let sync_line = out.lines().position(|l| l.contains("acf_sync_0")).unwrap();
    let label_line = out
        .lines()
        .position(|l| l.trim_start().starts_with("100"))
        .unwrap();
    assert!(
        sync_line < label_line,
        "sync must print inside the labeled do:\n{out}"
    );
    // the emitted source re-parses into a loop CONTAINING the sync call
    let reparsed = autocfd_fortran::parse(&out).unwrap();
    let frame = reparsed.units[0]
        .body
        .iter()
        .find_map(|s| match &s.kind {
            autocfd_fortran::StmtKind::Do {
                term_label: Some(100),
                body,
                ..
            } => Some(body),
            _ => None,
        })
        .expect("labeled frame loop survives");
    let mut found = false;
    autocfd_fortran::ast::walk_stmts(frame, &mut |s| {
        if let autocfd_fortran::StmtKind::Call { name, .. } = &s.kind {
            if name == "acf_sync_0" {
                found = true;
            }
        }
    });
    assert!(found, "sync call parses back inside the loop");
    assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0);
}
