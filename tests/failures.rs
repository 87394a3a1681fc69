//! Failure injection: the system must *diagnose* bad inputs and runtime
//! misbehavior, never hang or silently corrupt.

use autocfd::codegen::TransformError;
use autocfd::interp::{verify_owned_regions, RunConfig};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::{compile, CompileError, CompileOptions};
use std::time::{Duration, Instant};

const JACOBI: &str = "
!$acf grid(16, 16)
!$acf status v, vn
      program p
      real v(16,16), vn(16,16)
      integer i, j, it
      do it = 1, 3
        do i = 2, 15
          do j = 2, 15
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
        do i = 2, 15
          do j = 2, 15
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";

#[test]
fn corrupted_plan_sync_id_reports_error() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 1])).unwrap();
    // corrupt the plan: remove all sync specs so acf_sync_0 dangles
    let mut bad_plan = c.spmd_plan.clone();
    bad_plan.syncs.clear();
    let err = RunConfig::new(&c.parallel_file)
        .plan(&bad_plan)
        .run_parallel()
        .unwrap_err();
    assert!(err.message.contains("unknown sync id"), "{err}");
}

#[test]
fn verification_detects_divergence() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let seq = c.run_sequential(vec![]).unwrap();
    let mut par = c.run_parallel(vec![]).unwrap();
    // corrupt one owned interior point on rank 1
    let id = par[1].frame.arrays["v"];
    let sg = c.spmd_plan.partition.subgrid(1);
    let idx = vec![sg.lo[0] as i64 + 1, 2];
    par[1].machine.array_mut(id).set(&idx, 424242.0).unwrap();
    let err = verify_owned_regions(&seq, &par, &c.spmd_plan, 1e-9).unwrap_err();
    assert!(err.contains("rank 1"), "{err}");
    assert!(err.contains("424242"), "{err}");
}

#[test]
fn statement_budget_aborts_runaway_parallel_programs() {
    let src = "
!$acf grid(8, 8)
!$acf status v
      program p
      real v(8,8)
100   continue
      v(1,1) = v(1,1) + 1.0
      goto 100
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let err = c.run_config().stmt_limit(5_000).run_parallel().unwrap_err();
    assert!(err.message.contains("budget"), "{err}");
}

#[test]
fn opaque_self_dependence_rejected_at_compile_time() {
    let src = "
!$acf grid(12, 12)
!$acf status v
      program p
      real v(12,12)
      integer i, j, m
      do i = 1, 12
        do j = 1, 12
          v(i,j) = v(m,j) + 1.0
        end do
      end do
      do i = 2, 11
        do j = 1, 12
          v(i,j) = v(i-1,j)
        end do
      end do
      end
";
    let e = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap_err();
    assert!(
        matches!(e, CompileError::Transform(_)),
        "opaque self-dependence must fail loudly, got {e:?}"
    );
}

#[test]
fn unlocalized_self_dependent_sweep_rejected_at_compile_time() {
    // the sweep's step is set by an assignment, so the `i` loop cannot be
    // localized and its direction is unknown: pipelining it would be wrong
    for (step, i_loop) in [(-1, "39, 2, istep"), (1, "2, 39, istep")] {
        let src = format!(
            "
!$acf grid(40,40)
!$acf status v
      program gs
      real v(40,40)
      integer i, j, it, istep
      do i = 1, 40
        do j = 1, 40
          v(i,j) = 0.01*i + 0.02*j
        end do
      end do
      istep = {step}
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
        for parts in [[2u32, 1], [4, 1], [2, 2]] {
            let e = compile(&src, &CompileOptions::with_partition(&parts)).unwrap_err();
            assert_eq!(
                e,
                CompileError::Transform(TransformError::UnlocalizedSweep {
                    unit: "gs".into(),
                    line: 14,
                    var: "i".into(),
                }),
                "step {step} {parts:?}"
            );
            assert!(e.to_string().contains("line 14"), "{e}");
        }
        // the sweep axis uncut: nothing crosses along `i`, so it compiles
        // and stays bit-exact
        let c = compile(&src, &CompileOptions::with_partition(&[1, 2])).unwrap();
        assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0, "step {step}");
    }
}

#[test]
fn opposed_sweeps_in_one_nest_rejected_at_compile_time() {
    // a forward and a backward substitution along `i` in one nest: no one
    // pipeline direction serves both, so a cut along `i` is refused
    let src = "
!$acf grid(40,40)
!$acf status v
      program ab
      real v(40,40)
      integer i, j, it
      do i = 1, 40
        do j = 1, 40
          v(i,j) = 0.01*i*i + 0.02*j
        end do
      end do
      do it = 1, 3
        do j = 2, 39
          do i = 2, 39
            v(i,j) = 0.5*(v(i-1,j) + v(i,j))
          end do
          do i = 39, 2, -1
            v(i,j) = 0.5*(v(i+1,j) + v(i,j))
          end do
        end do
      end do
      write(*,*) 'center', v(20,20)
      end
";
    for parts in [[2u32, 1], [4, 1]] {
        let e = compile(src, &CompileOptions::with_partition(&parts)).unwrap_err();
        assert_eq!(
            e,
            CompileError::Transform(TransformError::OpposedSweeps {
                unit: "ab".into(),
                line: 17,
                var: "i".into(),
            }),
            "{parts:?}"
        );
    }
    let c = compile(src, &CompileOptions::with_partition(&[1, 2])).unwrap();
    assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0);
}

#[test]
fn out_of_bounds_stencil_caught_with_line_number() {
    // the loop reads v(i-1) starting at i = 1: index 0 is out of bounds
    let src = "
!$acf grid(10, 10)
!$acf status v, w
      program p
      real v(10,10), w(10,10)
      integer i, j
      do i = 1, 10
        do j = 1, 10
          w(i,j) = v(i-1,j)
        end do
      end do
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let err = c.run_sequential(vec![]).unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");
    assert!(err.line > 0, "error carries a source line");
}

#[test]
fn missing_status_array_at_comm_point_diagnosed() {
    // a subroutine that contains a localized writer loop but does not
    // declare the status array it would need at a sync point cannot
    // happen through `compile` (the frontend checks), so exercise the
    // hook diagnostics directly with a hand-corrupted plan instead:
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let mut bad_plan = c.spmd_plan.clone();
    // rename the array inside the sync spec to something unbound
    for spec in bad_plan.syncs.values_mut() {
        for sa in &mut spec.arrays {
            sa.array = "ghost_array".into();
        }
    }
    let err = RunConfig::new(&c.parallel_file)
        .plan(&bad_plan)
        .run_parallel()
        .unwrap_err();
    assert!(
        err.message.contains("not bound") || err.message.contains("no mapping"),
        "{err}"
    );
}

#[test]
fn tolerance_zero_vs_loose_verification() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[4, 1])).unwrap();
    // exact equivalence holds, so both tolerances succeed and report 0
    assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0);
    assert_eq!(c.verify(vec![], 1e-3).unwrap(), 0.0);
}

#[test]
fn remote_constant_read_rejected() {
    // `x = v(1,1)` runs on every rank but only the owner of (1,1) has the
    // true value — the scalar would silently diverge across ranks
    let src = "
!$acf grid(16, 10)
!$acf status v
      program p
      real v(16,10)
      integer i, j
      do i = 2, 15
        do j = 1, 10
          v(i,j) = v(i-1,j)
        end do
      end do
      x = v(1, 5)
      end
";
    let e = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap_err();
    assert!(e.to_string().contains("owning rank"), "{e}");
    // the same read on an UNCUT axis is fine
    let ok = compile(src, &CompileOptions::with_partition(&[1, 2]));
    // v(1,5): axis 0 constant uncut, axis 1 constant... 5 is a constant
    // on the cut axis too — still rejected
    assert!(ok.is_err());
    // but with no cut at all (1 processor) nothing is remote
    let one = compile(src, &CompileOptions::with_partition(&[1, 1])).unwrap();
    assert_eq!(one.verify(vec![], 0.0).unwrap(), 0.0);
}

#[test]
fn boundary_code_constant_reads_allowed() {
    // v(1,j) = v(1,j) * 0.5 — boundary-to-boundary, owner-correct
    let src = "
!$acf grid(16, 10)
!$acf status v, w
      program p
      real v(16,10), w(16,10)
      integer i, j
      do j = 1, 10
        v(1,j) = v(1,j) * 0.5 + 1.0
      end do
      do i = 2, 15
        do j = 1, 10
          w(i,j) = v(i-1,j)
        end do
      end do
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    assert_eq!(c.verify(vec![], 0.0).unwrap(), 0.0);
}

#[test]
fn tcp_peer_dropping_mid_exchange_surfaces_typed_error() {
    // rank 1's process dies before the first halo exchange; rank 0 must
    // get a typed disconnect naming rank, peer, tag, and program phase —
    // promptly, not after the 10 s receive timeout
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let t0 = Instant::now();
    let results = run_spmd_tcp(2, Duration::from_secs(10), |comm| {
        if comm.rank() == 1 {
            return None; // simulated crash: endpoint closes on drop
        }
        Some(c.run_config().run_rank(&comm))
    })
    .unwrap();
    let err = results[0].as_ref().unwrap().as_ref().unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
    assert!(err.message.contains("rank 0"), "{err}");
    assert!(err.message.contains("disconnected"), "{err}");
    assert!(err.message.contains("tag "), "{err}");
    assert!(
        err.message.contains("in phase `"),
        "error names the program phase: {err}"
    );
}

#[test]
fn tcp_peer_dying_between_isend_and_wait_fails_the_request() {
    // exercise the nonblocking API under peer loss: rank 0 posts an
    // isend and an irecv towards rank 1, and rank 1 exits after the
    // first message lands. The posted send completes (buffered at
    // post), but waiting on the in-flight receive must surface a typed
    // disconnect naming who waited (rank 0), on whom (peer 1), and for
    // what (tag 8) — promptly, not at the 10 s receive timeout.
    let t0 = Instant::now();
    let results = run_spmd_tcp(2, Duration::from_secs(10), |comm| {
        if comm.rank() == 1 {
            // consume rank 0's message so its isend demonstrably made
            // it out, then die with the reply still owed
            let got = comm.recv(0, 7).unwrap();
            assert_eq!(got, vec![1.0, 2.0]);
            return None;
        }
        let send = comm.isend(1, 7, &[1.0, 2.0]).unwrap();
        // wire bytes = 16 payload bytes plus TCP frame header
        assert!(comm.wait_send(send).unwrap() >= 16);
        let reply = comm.irecv(1, 8);
        Some(comm.wait_recv(reply))
    })
    .unwrap();
    let err = results[0].as_ref().unwrap().as_ref().unwrap_err();
    assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
    assert!(err.is_disconnected(), "{err}");
    assert_eq!(
        (err.rank, err.peer, err.tag),
        (0, Some(1), Some(8)),
        "{err}"
    );
    assert!(err.to_string().contains("rank 0"), "{err}");
    assert!(err.to_string().contains("tag 8"), "{err}");
}

#[test]
fn tcp_recv_timeout_is_configurable_and_diagnosed() {
    // rank 1 stays connected but never participates: rank 0's receive
    // must trip the *configured* timeout (not hang) and hint deadlock
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let results = run_spmd_tcp(2, Duration::from_millis(200), |comm| {
        if comm.rank() == 1 {
            std::thread::sleep(Duration::from_millis(1200));
            return None; // alive the whole time, just silent
        }
        let t0 = Instant::now();
        let r = c.run_config().run_rank(&comm);
        Some((r, t0.elapsed()))
    })
    .unwrap();
    let (r, elapsed) = results[0].as_ref().unwrap();
    let err = r.as_ref().unwrap_err();
    assert!(
        *elapsed < Duration::from_millis(1000),
        "timed out at ~200 ms, not {elapsed:?}"
    );
    assert!(err.message.contains("timeout waiting for message"), "{err}");
    assert!(err.message.contains("(deadlock?)"), "{err}");
}

#[test]
fn probe_reads_in_write_statements_allowed() {
    let src = "
!$acf grid(16, 10)
!$acf status v
      program p
      real v(16,10)
      integer i, j
      do i = 1, 16
        do j = 1, 10
          v(i,j) = 0.1*(i + j)
        end do
      end do
      write(*,*) v(16, 10)
      end
";
    let c = compile(src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let seq = c.run_sequential(vec![]).unwrap();
    let par = c.run_parallel(vec![]).unwrap();
    assert_eq!(seq.0.output, par[0].machine.output);
}
