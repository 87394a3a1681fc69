//! The three ablations EXPERIMENTS.md records: synchronization
//! combining vs redundancy elimination only (measured traffic),
//! partition-shape selection, and mirror-image decomposition vs its
//! alternatives (simulated).
//!
//! Run: `cargo run --release -p autocfd-bench --bin ablations`

use autocfd::{compile, CompileOptions, Compiled};
use autocfd_bench::models::{run_case1, run_case2, testbed_network, Case1Model, Case2Model};
use autocfd_bench::report::{print_table, Row};
use autocfd_cfd_kernels::{sprayer_program, CaseParams};
use autocfd_cluster_sim::{simulate, MachineModel, Phase, Workload};
use autocfd_grid::{enumerate_factorizations, partition, GridShape, PartitionCost, PartitionSpec};

/// Combining non-redundant synchronizations (the paper's core §5
/// contribution) versus the eliminate-redundant-only baseline, on
/// message traffic measured from real parallel executions.
fn combine() {
    let build = |optimize: bool| -> Compiled {
        let src = sprayer_program(&CaseParams {
            ni: 40,
            nj: 16,
            nk: 0,
            frames: 3,
            width: 4,
        });
        let opts = CompileOptions {
            partition: Some(vec![4, 1]),
            optimize,
            ..Default::default()
        };
        compile(&src, &opts).unwrap()
    };
    let traffic = |c: &Compiled| -> (u64, u64) {
        let par = c.run_parallel(vec![]).unwrap();
        let msgs = par.iter().map(|r| r.comm_stats.0).sum();
        let elems = par.iter().map(|r| r.comm_stats.1).sum();
        (msgs, elems)
    };
    let (opt, raw) = (build(true), build(false));
    let ((m_opt, e_opt), (m_raw, e_raw)) = (traffic(&opt), traffic(&raw));
    let row = |label: &str, c: &Compiled, m: u64, e: u64| {
        Row::new(
            label,
            &[
                c.sync_plan.stats.after.to_string(),
                m.to_string(),
                e.to_string(),
            ],
        )
    };
    print_table(
        "Ablation: synchronization combining (sprayer, 4x1, measured traffic)",
        &["configuration", "sync points", "messages", "f64s shipped"],
        &[
            row("combined (paper §5)", &opt, m_opt, e_opt),
            row("redundancy-elim only", &raw, m_raw, e_raw),
        ],
    );
    assert!(m_opt < m_raw, "combining must reduce real message count");
}

/// Partition-shape selection (§4.1 + §6.2): the cost vector of every
/// factorization the partitioner considers for the paper's two grids,
/// with the simulated execution-time consequences.
fn partition_shapes() {
    let fits = |parts: &[u32], shape: &GridShape| {
        parts
            .iter()
            .zip(&shape.extents)
            .all(|(&p, &n)| u64::from(p) <= n)
    };

    let shape = GridShape::d3(99, 41, 13);
    let m1 = Case1Model::paper();
    let mut rows = Vec::new();
    for parts in enumerate_factorizations(6, 3) {
        if !fits(&parts, &shape) {
            continue;
        }
        let p = partition(&shape, &PartitionSpec::new(&parts));
        let cost = PartitionCost::of(&p, 1);
        rows.push(Row::new(
            p.spec.display(),
            &[
                cost.max_comm.to_string(),
                cost.total_comm.to_string(),
                format!("{:.2}", cost.neighbor_imbalance_milli as f64 / 1000.0),
                format!("{:.0}", run_case1(&m1, &parts).total),
            ],
        ));
    }
    print_table(
        "Ablation: 6-processor partition shapes on 99x41x13 (case study 1)",
        &[
            "partition",
            "max comm",
            "total comm",
            "imbalance",
            "sim time(s)",
        ],
        &rows,
    );

    let shape = GridShape::d2(300, 100);
    let m2 = Case2Model::paper();
    let mut rows = Vec::new();
    for parts in enumerate_factorizations(4, 2) {
        if !fits(&parts, &shape) {
            continue;
        }
        let p = partition(&shape, &PartitionSpec::new(&parts));
        let cost = PartitionCost::of(&p, 1);
        rows.push(Row::new(
            p.spec.display(),
            &[
                cost.max_comm.to_string(),
                cost.total_comm.to_string(),
                format!("{:.0}", run_case2(&m2, &parts).total),
            ],
        ));
    }
    print_table(
        "Ablation: 4-processor partition shapes on 300x100 (case study 2)",
        &["partition", "max comm", "total comm", "sim time(s)"],
        &rows,
    );
}

/// A Gauss–Seidel program whose one self-dependent sweep crosses the
/// 4x1 cut: the mirror-image pipeline must run it bit-exactly.
const GS: &str = "
!$acf grid(48, 24)
!$acf status v
      program gs
      real v(48,24)
      integer i, j, it
      do i = 1, 48
        v(i,1) = 1.0
      end do
      do it = 1, 10
        do i = 2, 47
          do j = 2, 23
            v(i,j) = 0.25*(v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      end
";

/// Mirror-image decomposition versus the alternatives a traditional
/// compiler has for a Fig 3(b) self-dependent loop: serialize it
/// entirely, or (illegally) treat it as parallel.
fn mirror() {
    let machine = MachineModel::pentium_2003();
    let net = testbed_network();
    let points = 99u64 * 41 * 13;
    let stages = 4u64;
    let time = |phase: Phase| {
        let w = Workload {
            frames: 1000,
            phases: vec![phase],
        };
        format!("{:.0}", simulate(&w, &machine, &net).total)
    };
    let pipelined = |overlap: f64| Phase::Pipelined {
        points_total: points,
        stages,
        flops_per_point: 81.0,
        working_set: 1 << 20,
        boundary_bytes: 41 * 13 * 8,
        overlap,
    };
    let rows = [
        Row::new("mirror-image, no overlap", &[time(pipelined(0.0))]),
        Row::new("mirror-image, 50% overlap", &[time(pipelined(0.5))]),
        Row::new(
            "(unsound) fully parallel",
            &[time(Phase::Parallel {
                points_max: points / stages,
                flops_per_point: 81.0,
                working_set: 1 << 20,
            })],
        ),
    ];
    print_table(
        "Ablation: one self-dependent sweep on 4 processors (simulated seconds)",
        &["strategy", "time(s)"],
        &rows,
    );
    let par = compile(GS, &CompileOptions::with_partition(&[4, 1])).unwrap();
    assert_eq!(par.verify(vec![], 0.0).unwrap(), 0.0);
}

fn main() {
    combine();
    partition_shapes();
    mirror();
}
