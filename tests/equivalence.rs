//! Property-based equivalence: for randomized stencil programs and
//! random partitions, the parallel execution must equal the sequential
//! one bit-for-bit on every owned point.
//!
//! This is the repository's strongest correctness statement: it covers
//! the whole chain (parser → IR → partitioning → dependency analysis →
//! sync optimization → restructuring → SPMD execution with halo
//! exchanges, pipelines and reductions) at once.

use autocfd::interp::verify_owned_regions;
use autocfd::{compile, CompileOptions};
use proptest::prelude::*;

/// Build a random multi-stage stencil program. Each stage writes one
/// array from the previous array through a randomly-shaped stencil
/// (offsets in −2..=2 per axis); optionally the final stage is a
/// self-dependent Gauss–Seidel style sweep.
fn stencil_program(
    ni: u64,
    nj: u64,
    frames: u64,
    stages: &[(i64, i64, i64, i64)],
    self_dep: bool,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let n_arr = stages.len() + 1;
    let names: Vec<String> = (0..n_arr).map(|k| format!("s{k}")).collect();
    let _ = writeln!(s, "!$acf grid({ni}, {nj})");
    let _ = writeln!(s, "!$acf status {}", names.join(", "));
    let _ = writeln!(s, "      program randst");
    let decls: Vec<String> = names.iter().map(|n| format!("{n}({ni},{nj})")).collect();
    let _ = writeln!(s, "      real {}", decls.join(", "));
    let _ = writeln!(s, "      integer i, j, it");
    let _ = writeln!(s, "      do i = 1, {ni}");
    let _ = writeln!(s, "        do j = 1, {nj}");
    for (k, n) in names.iter().enumerate() {
        let _ = writeln!(
            s,
            "          {n}(i,j) = 0.01*(i*{} + j*{} + {k})",
            k + 2,
            k + 3
        );
    }
    let _ = writeln!(s, "        end do");
    let _ = writeln!(s, "      end do");
    let _ = writeln!(s, "      do it = 1, {frames}");
    for (k, &(a, b, c, d)) in stages.iter().enumerate() {
        let (src, dst) = (&names[k], &names[k + 1]);
        let margin = 1 + a.abs().max(b.abs()).max(c.abs()).max(d.abs());
        let (lo_i, hi_i) = (1 + margin, ni as i64 - margin);
        let (lo_j, hi_j) = (1 + margin, nj as i64 - margin);
        let _ = writeln!(s, "        do i = {lo_i}, {hi_i}");
        let _ = writeln!(s, "          do j = {lo_j}, {hi_j}");
        let off = |v: i64, base: &str| -> String {
            match v.cmp(&0) {
                std::cmp::Ordering::Less => format!("{base}{v}"),
                std::cmp::Ordering::Equal => base.to_string(),
                std::cmp::Ordering::Greater => format!("{base}+{v}"),
            }
        };
        let _ = writeln!(
            s,
            "            {dst}(i,j) = 0.2*({src}({},j) + {src}({},j) + {src}(i,{}) + {src}(i,{}) + {src}(i,j))",
            off(a, "i"),
            off(b, "i"),
            off(c, "j"),
            off(d, "j"),
        );
        let _ = writeln!(s, "          end do");
        let _ = writeln!(s, "        end do");
    }
    if self_dep {
        let n = &names[0];
        let _ = writeln!(s, "        do i = 2, {}", ni - 1);
        let _ = writeln!(s, "          do j = 2, {}", nj - 1);
        let last = &names[names.len() - 1];
        let _ = writeln!(
            s,
            "            {n}(i,j) = 0.4*{n}(i,j) + 0.15*({n}(i-1,j) + {n}(i+1,j) + {n}(i,j-1) + {n}(i,j+1)) + 0.01*{last}(i,j)"
        );
        let _ = writeln!(s, "          end do");
        let _ = writeln!(s, "        end do");
    } else {
        // feed the last array back into the first so every frame matters
        let (first, last) = (&names[0], &names[names.len() - 1]);
        let _ = writeln!(s, "        do i = 2, {}", ni - 1);
        let _ = writeln!(s, "          do j = 2, {}", nj - 1);
        let _ = writeln!(
            s,
            "            {first}(i,j) = 0.5*{first}(i,j) + 0.5*{last}(i,j)"
        );
        let _ = writeln!(s, "          end do");
        let _ = writeln!(s, "        end do");
    }
    let _ = writeln!(s, "      end do");
    let _ = writeln!(s, "      end");
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random stencil chains under random partitions are bit-exact.
    #[test]
    fn random_stencil_chain_parallel_equals_sequential(
        offsets in proptest::collection::vec((-2i64..=2, -2i64..=2, -2i64..=2, -2i64..=2), 1..4),
        pi in 1u32..4,
        pj in 1u32..3,
        self_dep in proptest::bool::ANY,
    ) {
        prop_assume!(pi * pj > 1);
        let src = stencil_program(17, 13, 3, &offsets, self_dep);
        let c = compile(&src, &CompileOptions::with_partition(&[pi, pj]))
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let diff = c.verify(vec![], 0.0)
            .unwrap_or_else(|e| panic!("verify failed ({pi}x{pj}): {e}\n{src}"));
        prop_assert_eq!(diff, 0.0);
    }
}

#[test]
fn distance_two_stencil_exact() {
    // §4.2 case 5: dependency distance 2 (multigrid-style)
    let src = stencil_program(19, 15, 4, &[(-2, 2, -1, 1), (2, -2, 0, 0)], false);
    for parts in [[3u32, 1], [2, 2], [1, 3]] {
        let c = compile(&src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn one_sided_stencils_exact() {
    // §4.2 case 2: one-dimensional / one-directional references
    let src = stencil_program(16, 12, 3, &[(-1, -1, 0, 0), (0, 0, 1, 1)], false);
    for parts in [[4u32, 1], [1, 4], [2, 2]] {
        let c = compile(&src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn self_dependent_chain_exact_on_both_axes() {
    let src = stencil_program(15, 15, 3, &[(-1, 1, -1, 1)], true);
    for parts in [[3u32, 1], [1, 3], [2, 2], [3, 2]] {
        let c = compile(&src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn three_dimensional_stencils_exact() {
    // 3-D grids with all three axes cut
    let src = "
!$acf grid(12, 10, 8)
!$acf status a, b
      program p3d
      real a(12,10,8), b(12,10,8)
      integer i, j, k, it
      do i = 1, 12
        do j = 1, 10
          do k = 1, 8
            a(i,j,k) = 0.01*(i + 2*j + 3*k)
            b(i,j,k) = 0.0
          end do
        end do
      end do
      do it = 1, 3
        do i = 2, 11
          do j = 2, 9
            do k = 2, 7
              b(i,j,k) = (a(i-1,j,k) + a(i+1,j,k) + a(i,j-1,k)
     &          + a(i,j+1,k) + a(i,j,k-1) + a(i,j,k+1)) / 6.0
            end do
          end do
        end do
        do i = 2, 11
          do j = 2, 9
            do k = 2, 7
              a(i,j,k) = 0.5*a(i,j,k) + 0.5*b(i,j,k)
            end do
          end do
        end do
      end do
      end
";
    for parts in [[2u32, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 2], [3, 2, 1]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn packed_dimension_arrays_exact() {
    // §4.2 case 4: a 3-dim array packing 4 components over a 2-D grid
    let src = "
!$acf grid(14, 12)
!$acf status q(*, i, j), r(*, i, j)
      program packed
      real q(4, 14, 12), r(4, 14, 12)
      integer m, i, j, it
      do m = 1, 4
        do i = 1, 14
          do j = 1, 12
            q(m,i,j) = 0.01*(m*7 + i*3 + j*5)
            r(m,i,j) = 0.0
          end do
        end do
      end do
      do it = 1, 3
        do m = 1, 4
          do i = 2, 13
            do j = 2, 11
              r(m,i,j) = 0.25*(q(m,i-1,j) + q(m,i+1,j) + q(m,i,j-1) + q(m,i,j+1))
            end do
          end do
        end do
        do m = 1, 4
          do i = 2, 13
            do j = 2, 11
              q(m,i,j) = r(m,i,j)
            end do
          end do
        end do
      end do
      end
";
    for parts in [[2u32, 1], [1, 2], [2, 2], [3, 2]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn descending_loops_exact() {
    // a back-substitution style descending self-dependent sweep: the
    // restructurer must flip the pipeline direction
    let src = "
!$acf grid(16, 10)
!$acf status v
      program back
      real v(16,10)
      integer i, j, it
      do i = 1, 16
        v(i,10) = 1.0
      end do
      do it = 1, 3
        do i = 15, 2, -1
          do j = 2, 9
            v(i,j) = 0.5*v(i+1,j) + 0.3*v(i,j+1) + 0.2*v(i,j)
          end do
        end do
      end do
      end
";
    for parts in [[2u32, 1], [4, 1]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }

    // a Gauss–Seidel sweep whose step is a `parameter` constant: the step
    // must fold for localization and for the sweep direction alike, on
    // the reference tree walk and the compiled kernels, with and without
    // overlap
    for (step, i_loop, pipe_dir) in [(-1, "39, 2, istep", 1), (1, "2, 39, istep", -1)] {
        let src = format!(
            "
!$acf grid(40,40)
!$acf status v
      program gs
      real v(40,40)
      integer i, j, it, istep
      parameter (istep = {step})
      do i = 1, 40
        do j = 1, 40
          v(i,j) = 0.01*i + 0.02*j
        end do
      end do
      do it = 1, 3
        do i = {i_loop}
          do j = 2, 39
            v(i,j) = 0.25*(v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      write(*,*) 'center', v(20,20)
      end
"
        );
        for parts in [[2u32, 1], [4, 1], [1, 2], [2, 2]] {
            let c = compile(&src, &CompileOptions::with_partition(&parts)).unwrap();
            if parts[0] > 1 {
                let spec = &c.spmd_plan.self_loops[&0].arrays[0];
                assert!(
                    spec.forward
                        .iter()
                        .any(|s| s.axis == 0 && s.dir == pipe_dir),
                    "step {step} {parts:?}: {spec:?}"
                );
            }
            let seq = c.run_sequential(vec![]).unwrap();
            for reference in [true, false] {
                for overlap in [false, true] {
                    let cfg = c.run_config().overlap(overlap);
                    let cfg = if reference { cfg.reference() } else { cfg };
                    let par = cfg.run_parallel().unwrap();
                    let diff = verify_owned_regions(&seq, &par, &c.spmd_plan, 0.0).unwrap();
                    assert_eq!(diff, 0.0, "step {step} {parts:?} {reference} {overlap}");
                }
            }
        }
    }
}

#[test]
fn strided_loops_preserve_phase() {
    // strided restriction/prolongation (multigrid, §4.2 case 5) where the
    // field is active across ALL ranks: any stride-phase slip in the
    // localized bounds changes which points are written and breaks
    // equivalence
    let src = "
!$acf grid(33, 17)
!$acf status f, c
      program st
      real f(33,17), c(33,17)
      integer i, j, it
      do i = 1, 33
        do j = 1, 17
          f(i,j) = 0.01*(i*3 + j*5)
          c(i,j) = 0.0
        end do
      end do
      do it = 1, 3
        do i = 3, 31, 2
          do j = 2, 16
            c(i,j) = 0.5*f(i,j) + 0.25*(f(i-2,j) + f(i+2,j))
          end do
        end do
        do i = 2, 32
          do j = 2, 16
            f(i,j) = 0.9*f(i,j) + 0.05*(c(i-1,j) + c(i+1,j))
          end do
        end do
      end do
      end
";
    for parts in [[2u32, 1], [3, 1], [4, 1], [2, 2]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn descending_strided_loops_preserve_phase() {
    let src = "
!$acf grid(25, 11)
!$acf status f, c
      program dst
      real f(25,11), c(25,11)
      integer i, j, it
      do i = 1, 25
        do j = 1, 11
          f(i,j) = 0.02*(i*2 + j*7)
          c(i,j) = 0.0
        end do
      end do
      do it = 1, 3
        do i = 23, 3, -2
          do j = 2, 10
            c(i,j) = 0.5*f(i,j) + 0.25*(f(i-2,j) + f(i+2,j))
          end do
        end do
        do i = 2, 24
          do j = 2, 10
            f(i,j) = 0.9*f(i,j) + 0.05*(c(i-1,j) + c(i+1,j))
          end do
        end do
      end do
      end
";
    for parts in [[2u32, 1], [3, 1], [5, 1]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The combining optimizer is sound AND effective on random programs:
    /// both the optimized and the unoptimized (raw-sync) builds verify
    /// bit-exact, and the optimizer never increases the synchronization
    /// count.
    #[test]
    fn optimizer_sound_and_never_worse(
        offsets in proptest::collection::vec((-1i64..=1, -1i64..=1, -1i64..=1, -1i64..=1), 2..4),
        pi in 2u32..4,
    ) {
        let src = stencil_program(15, 11, 2, &offsets, false);
        let opt = compile(&src, &CompileOptions::with_partition(&[pi, 1]))
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        let raw = compile(
            &src,
            &CompileOptions { partition: Some(vec![pi, 1]), optimize: false, ..Default::default() },
        )
        .unwrap();
        prop_assert!(opt.sync_plan.sync_points.len() <= raw.sync_plan.sync_points.len());
        prop_assert!(opt.sync_plan.stats.after <= opt.sync_plan.stats.before);
        prop_assert_eq!(opt.verify(vec![], 0.0).unwrap(), 0.0);
        prop_assert_eq!(raw.verify(vec![], 0.0).unwrap(), 0.0);
    }
}

#[test]
fn sync_inside_conditional_arm_exact() {
    // writer and reader both live in a then-arm taken every other frame;
    // the synchronization point is pinned inside the arm, and all ranks
    // take the same branch (scalars are replicated)
    let src = "
!$acf grid(16, 10)
!$acf status a, b
      program cond
      real a(16,10), b(16,10)
      integer i, j, it
      do i = 1, 16
        do j = 1, 10
          a(i,j) = 0.1*(i + j)
        end do
      end do
      do it = 1, 4
        if (mod(it, 2) .eq. 0) then
          do i = 1, 16
            do j = 1, 10
              a(i,j) = a(i,j) + 0.01*it
            end do
          end do
          do i = 2, 15
            do j = 1, 10
              b(i,j) = a(i-1,j) + a(i+1,j)
            end do
          end do
        else
          do i = 2, 15
            do j = 1, 10
              b(i,j) = 0.5*b(i,j)
            end do
          end do
        end if
      end do
      end
";
    for parts in [[2u32, 1], [4, 1]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
    }
}

#[test]
fn do_while_convergence_driven_by_reduced_error_exact() {
    // the while condition depends on the reduced error: without the
    // allreduce, ranks would diverge in iteration count
    let src = "
!$acf grid(20, 14)
!$acf status v, vn
      program wconv
      real v(20,14), vn(20,14)
      integer i, j
      do i = 1, 20
        v(i,1) = 1.0
      end do
      err = 1.0
      do while (err .gt. 1.0e-3)
        err = 0.0
        do i = 2, 19
          do j = 2, 13
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
            d = abs(vn(i,j) - v(i,j))
            if (d .gt. err) err = d
          end do
        end do
        do i = 2, 19
          do j = 2, 13
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      write(*,*) 'final err', err
      end
";
    for parts in [[2u32, 1], [3, 1], [2, 2]] {
        let c = compile(src, &CompileOptions::with_partition(&parts)).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "{parts:?}");
        let seq = c.run_sequential(vec![]).unwrap();
        let par = c.run_parallel(vec![]).unwrap();
        assert_eq!(
            seq.0.output, par[0].machine.output,
            "same iteration count {parts:?}"
        );
    }
}
