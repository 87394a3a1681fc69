//! Calibrated workload models of the two case studies (Tables 2–5).
//!
//! The models translate case-study structure + partition geometry into
//! [`autocfd_cluster_sim`] phase lists:
//!
//! * compute phases use the *actual subgrid sizes* of the partition
//!   (the paper's load-balance rule) and a per-point flop budget
//!   calibrated so the sequential run matches the paper's baseline
//!   seconds (1970 s for case 1, 362 s for case 2 at 300×100);
//! * exchange phases use the *actual demarcation-face sizes* of the
//!   partition ([`Partition::comm_points`]) — the paper's §6.2 analysis
//!   of why `4×1×1` doubles per-processor communication is therefore
//!   reproduced by construction;
//! * case study 1 routes its three line sweeps through
//!   [`Phase::Pipelined`] whenever the sweep axis is cut — the
//!   mirror-image serialization that caps its speedups.

use autocfd_cluster_sim::{simulate, MachineModel, NetworkModel, Phase, SimResult, Workload};
use autocfd_grid::{partition, GridShape, Partition, PartitionSpec};

/// Case study 1 (aerofoil, 3-D, self-dependent sweeps).
#[derive(Debug, Clone)]
pub struct Case1Model {
    /// Grid shape.
    pub grid: GridShape,
    /// Frames (outer iterations).
    pub frames: u64,
    /// Fully-parallel flops per point per frame (flux/update/pressure/
    /// residual stages).
    pub par_flops_per_point: f64,
    /// Flops per point per frame of each line sweep.
    pub sweep_flops_per_point: f64,
    /// Pipeline overlap achieved by the mirror-image schedule.
    pub overlap: f64,
    /// Bytes of state per grid point (all arrays).
    pub bytes_per_point: u64,
    /// Arrays of state touched per sweep (sets the cache working set).
    pub active_arrays: u64,
    /// Combined synchronization points per frame (from Table 1's "after").
    pub syncs_per_frame: u64,
    /// Arrays shipped per synchronization (aggregated exchange).
    pub arrays_per_sync: u64,
}

impl Case1Model {
    /// Calibrated to the paper's §6.2 configuration: 99×41×13, 1970 s
    /// sequential. The split — 87% of the per-frame work in the three
    /// self-dependent sweeps, zero pipeline overlap — matches the
    /// paper's own characterization ("a large number of self-dependent
    /// field-loops"; "computation and communication could not be fully
    /// overlapped due to the usage of mirror-image decomposition").
    pub fn paper() -> Self {
        Self {
            grid: GridShape::d3(99, 41, 13),
            frames: 4000,
            par_flops_per_point: 36.0,
            sweep_flops_per_point: 81.0,
            overlap: 0.0,
            bytes_per_point: 152, // 19 real arrays
            active_arrays: 3,
            syncs_per_frame: 9,
            arrays_per_sync: 4,
        }
    }
}

/// Build the case-study-1 workload for a given partition.
pub fn case1_workload(m: &Case1Model, part: &Partition) -> Workload {
    let mut phases = Vec::new();
    let points_max = part.subgrids.iter().map(|s| s.points()).max().unwrap_or(0);
    let ws = points_max * 8 * m.active_arrays;

    // fully parallel stages
    phases.push(Phase::Parallel {
        points_max,
        flops_per_point: m.par_flops_per_point,
        working_set: ws,
    });

    // the three line sweeps: pipelined along cut axes, parallel otherwise
    for axis in 0..part.shape.rank() {
        let stages = u64::from(part.spec.parts[axis]);
        if stages > 1 {
            let boundary_bytes = part.subgrid(0).face_points(axis) * 8;
            // ranks perpendicular to the sweep axis run their pipelines
            // concurrently; only the `stages` ranks along the axis
            // serialize.
            let perp = u64::from(part.spec.tasks()) / stages;
            phases.push(Phase::Pipelined {
                points_total: part.shape.points() / perp.max(1),
                stages,
                flops_per_point: m.sweep_flops_per_point,
                working_set: ws,
                boundary_bytes,
                overlap: m.overlap,
            });
        } else {
            phases.push(Phase::Parallel {
                points_max,
                flops_per_point: m.sweep_flops_per_point,
                working_set: ws,
            });
        }
    }

    // combined halo exchanges
    push_exchanges(&mut phases, part, m.syncs_per_frame, m.arrays_per_sync);
    phases.push(Phase::Reduction {
        ranks: u64::from(part.spec.tasks()),
    });

    Workload {
        frames: m.frames,
        phases,
    }
}

/// Case study 2 (sprayer, 2-D, Jacobi-style).
#[derive(Debug, Clone)]
pub struct Case2Model {
    /// Grid shape.
    pub grid: GridShape,
    /// Frames.
    pub frames: u64,
    /// Flops per point per frame (all stages; fully parallel).
    pub flops_per_point: f64,
    /// Arrays live per sweep (cache working set).
    pub active_arrays: u64,
    /// Combined synchronization points per frame.
    pub syncs_per_frame: u64,
    /// Arrays shipped per synchronization.
    pub arrays_per_sync: u64,
}

impl Case2Model {
    /// Calibrated to the paper's 300×100 / 362 s baseline.
    pub fn paper() -> Self {
        Self {
            grid: GridShape::d2(300, 100),
            frames: 1200,
            flops_per_point: 600.0,
            active_arrays: 2,
            syncs_per_frame: 7,
            arrays_per_sync: 4,
        }
    }

    /// Same program at a different grid size (Tables 4 and 5).
    pub fn with_grid(ni: u64, nj: u64) -> Self {
        Self {
            grid: GridShape::d2(ni, nj),
            ..Self::paper()
        }
    }
}

/// Build the case-study-2 workload for a given partition.
pub fn case2_workload(m: &Case2Model, part: &Partition) -> Workload {
    let mut phases = Vec::new();
    let points_max = part.subgrids.iter().map(|s| s.points()).max().unwrap_or(0);
    let ws = points_max * 8 * m.active_arrays;
    phases.push(Phase::Parallel {
        points_max,
        flops_per_point: m.flops_per_point,
        working_set: ws,
    });
    push_exchanges(&mut phases, part, m.syncs_per_frame, m.arrays_per_sync);
    phases.push(Phase::Reduction {
        ranks: u64::from(part.spec.tasks()),
    });
    Workload {
        frames: m.frames,
        phases,
    }
}

/// Append `syncs` aggregated halo-exchange phases derived from the
/// partition geometry.
fn push_exchanges(phases: &mut Vec<Phase>, part: &Partition, syncs: u64, arrays: u64) {
    if part.spec.tasks() <= 1 {
        return;
    }
    let ranks = part.spec.tasks();
    let mut msgs_max = 0u64;
    let mut max_bytes = 0u64;
    let mut total_bytes = 0u64;
    for r in 0..ranks {
        // combining aggregates all arrays into ONE message per neighbor
        let neighbors = part.neighbors(r).len() as u64;
        let bytes = part.comm_points(r, 1) * 8 * arrays;
        msgs_max = msgs_max.max(neighbors);
        max_bytes = max_bytes.max(bytes);
        total_bytes += bytes;
    }
    for _ in 0..syncs {
        phases.push(Phase::Exchange {
            msgs_max,
            total_bytes,
            max_bytes,
        });
    }
}

/// The calibrated testbed interconnect: dedicated (switched) 10 Mbit
/// Ethernet with ~0.5 ms message latency. The paper says only "a
/// dedicated network of 6 Pentium workstations connected by Ethernet";
/// the dedicated/point-to-point variant fits the measured shapes better
/// than a shared hub (see the `ablation_partition` bench for the shared
/// variant).
pub fn testbed_network() -> NetworkModel {
    NetworkModel {
        latency: 5.0e-4,
        bandwidth: 10.0e6 / 8.0,
        shared: false,
    }
}

/// Simulate one configuration; convenience used by the table binaries.
pub fn run_case1(m: &Case1Model, parts: &[u32]) -> SimResult {
    let p = partition(&m.grid, &PartitionSpec::new(parts));
    simulate(
        &case1_workload(m, &p),
        &MachineModel::pentium_2003(),
        &testbed_network(),
    )
}

/// Simulate one case-2 configuration.
pub fn run_case2(m: &Case2Model, parts: &[u32]) -> SimResult {
    let p = partition(&m.grid, &PartitionSpec::new(parts));
    simulate(
        &case2_workload(m, &p),
        &MachineModel::pentium_2003(),
        &testbed_network(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_sequential_near_paper_baseline() {
        let m = Case1Model::paper();
        let t = run_case1(&m, &[1, 1, 1]).total;
        assert!(
            (1400.0..2600.0).contains(&t),
            "sequential {t:.0} s (paper: 1970 s)"
        );
    }

    #[test]
    fn case1_speedup_shape_table2() {
        let m = Case1Model::paper();
        let t1 = run_case1(&m, &[1, 1, 1]);
        let s2 = run_case1(&m, &[2, 1, 1]).speedup_over(&t1);
        let s4 = run_case1(&m, &[4, 1, 1]).speedup_over(&t1);
        let s4b = run_case1(&m, &[2, 2, 1]).speedup_over(&t1);
        let s6 = run_case1(&m, &[3, 2, 1]).speedup_over(&t1);
        assert!(s2 > 1.0 && s2 < 1.6, "speedup(2) = {s2:.2} (paper 1.12)");
        assert!(
            s4 < s2,
            "speedup(4)={s4:.2} must drop below speedup(2)={s2:.2}"
        );
        assert!(s4b < s6, "2x2x1 ({s4b:.2}) worse than 3x2x1 ({s6:.2})");
        assert!(s6 > s2, "speedup(6)={s6:.2} must beat speedup(2)={s2:.2}");
    }

    #[test]
    fn case2_sequential_near_paper_baseline() {
        let m = Case2Model::paper();
        let t = run_case2(&m, &[1, 1]).total;
        assert!(
            (250.0..500.0).contains(&t),
            "sequential {t:.0} s (paper: 362 s)"
        );
    }

    #[test]
    fn case2_speedup_shape_table3() {
        let m = Case2Model::paper();
        let t1 = run_case2(&m, &[1, 1]);
        let s2 = run_case2(&m, &[2, 1]).speedup_over(&t1);
        let s3 = run_case2(&m, &[3, 1]).speedup_over(&t1);
        let s4 = run_case2(&m, &[2, 2]).speedup_over(&t1);
        assert!(s2 > 1.2 && s2 < 1.9, "speedup(2)={s2:.2} (paper 1.43)");
        assert!(s3 > s2 && s4 > s3, "monotone: {s2:.2} {s3:.2} {s4:.2}");
        // efficiency dip at 3 (doubled comm for the interior rank)
        let (e2, e3) = (s2 / 2.0, s3 / 3.0);
        assert!(e3 < e2, "efficiency dips at 3: {e2:.2} -> {e3:.2}");
    }

    #[test]
    fn case2_scaling_shape_table4() {
        // parallel efficiency at P=2 grows with grid density
        let sizes = [(40, 15), (80, 30), (160, 60)];
        let mut prev = 0.0;
        for (ni, nj) in sizes {
            let m = Case2Model::with_grid(ni, nj);
            let t1 = run_case2(&m, &[1, 1]);
            let eff = run_case2(&m, &[2, 1]).speedup_over(&t1) / 2.0;
            assert!(
                eff > prev,
                "efficiency must grow with density: {eff:.2} at {ni}x{nj}"
            );
            prev = eff;
        }
        assert!(prev > 0.7, "large grids reach high efficiency: {prev:.2}");
    }

    /// The analytic models above are only trustworthy if the traffic
    /// geometry they consume is real. Cross-validate: run the actual
    /// generated case-2 program traced, and require the static forecast
    /// (the same partition geometry the cost model uses) to reproduce
    /// the measured per-phase wire traffic *exactly* across the paper's
    /// partition sweep.
    #[test]
    fn forecast_reproduces_traced_traffic_on_paper_partitions() {
        use autocfd::runtime::MergedTrace;
        use autocfd_cfd_kernels::{sprayer_program, CaseParams};
        let src = sprayer_program(&CaseParams::sprayer_small());
        for parts in [[2u32, 1], [3, 1], [2, 2]] {
            let c =
                autocfd::compile(&src, &autocfd::CompileOptions::with_partition(&parts)).unwrap();
            let runs = c.run_parallel_traced(vec![]);
            let merged = MergedTrace {
                traces: runs.iter().map(|r| r.trace.clone()).collect(),
                phase_names: runs.iter().map(|r| r.phases.clone()).collect(),
                transport: "inproc".into(),
                complete: true,
                skipped: 0,
            };
            let checks = autocfd::obs::cross_validate(&c, &merged, 0.0).unwrap();
            assert!(!checks.is_empty(), "{parts:?}: nothing to validate");
            for chk in &checks {
                assert!(
                    chk.ok()
                        && autocfd_cluster_sim::relative_error(
                            chk.bytes.predicted,
                            chk.bytes.measured
                        ) == 0.0,
                    "{parts:?} phase {}: forecast {} B vs measured {} B",
                    chk.phase,
                    chk.bytes.predicted,
                    chk.bytes.measured
                );
            }
        }
    }

    /// §6.2's memory observation: once the single-node working set
    /// exceeds physical memory, the sequential run falls off a cliff and
    /// the 4-node speedup becomes enormous (accumulated memory).
    #[test]
    fn memory_cliff_gives_multi_node_relief() {
        // working set ≈ ni*nj*8*active; pentium_2003 has 64 MiB
        let small = Case2Model::with_grid(1000, 500); // 8 MB: fits
        let huge = Case2Model::with_grid(4000, 2000); // 128 MB: one node pages, quarters fit
        let s_small = run_case2(&small, &[1, 1]).total / run_case2(&small, &[2, 2]).total;
        let s_huge = run_case2(&huge, &[1, 1]).total / run_case2(&huge, &[2, 2]).total;
        assert!(
            s_huge > 3.0 * s_small,
            "paging node: speedup {s_huge:.1} vs in-memory {s_small:.1}"
        );
    }

    #[test]
    fn case2_superlinear_shape_table5() {
        // at 800×300 the split working set re-enters cache: efficiency
        // relative to the 2-processor system exceeds 100% (paper Table 5)
        let m = Case2Model::with_grid(800, 300);
        let t2 = run_case2(&m, &[2, 1]);
        let s3 = run_case2(&m, &[3, 1]).speedup_over(&t2); // vs 2-proc
        let s4 = run_case2(&m, &[2, 2]).speedup_over(&t2);
        let e3 = s3 / (3.0 / 2.0);
        let e4 = s4 / (4.0 / 2.0);
        assert!(
            e3 > 1.0,
            "efficiency over 2-proc at 3 procs: {:.0}%",
            e3 * 100.0
        );
        assert!(
            e4 > 1.0,
            "efficiency over 2-proc at 4 procs: {:.0}%",
            e4 * 100.0
        );
    }
}

// ---------------------------------------------------------------------
// Discrete-event cross-validation
// ---------------------------------------------------------------------

use autocfd_cluster_sim::{run_des, Action, DesResult};

/// Build per-rank DES programs for the case-2 workload: each frame is
/// compute + aggregated neighbor exchanges + a barrier (the reduction).
fn case2_des_programs(m: &Case2Model, part: &Partition, frames: u64) -> Vec<Vec<Action>> {
    let machine = MachineModel::pentium_2003();
    let ranks = part.spec.tasks();
    (0..ranks)
        .map(|r| {
            let sg = part.subgrid(r);
            let ws = sg.points() * 8 * m.active_arrays;
            let t_comp = machine.compute_time(sg.points(), m.flops_per_point, ws);
            let mut prog = Vec::new();
            for _ in 0..frames {
                prog.push(Action::Compute(t_comp));
                for _ in 0..m.syncs_per_frame {
                    // sends first (buffered), then receives — mirrors the
                    // real halo-exchange hook
                    for (axis, _, nb) in part.neighbors(r) {
                        let bytes = sg.face_points(axis) * 8 * m.arrays_per_sync;
                        prog.push(Action::Send {
                            to: nb as usize,
                            bytes,
                        });
                    }
                    for (_, _, nb) in part.neighbors(r) {
                        prog.push(Action::Recv { from: nb as usize });
                    }
                }
                if ranks > 1 {
                    prog.push(Action::Barrier);
                }
            }
            prog
        })
        .collect()
}

/// Build per-rank DES programs for one case-1 frame set, including the
/// pipelined line sweeps of the mirror-image decomposition (old-value
/// sends, pipeline receive from upstream, downstream forward).
fn case1_des_programs(m: &Case1Model, part: &Partition, frames: u64) -> Vec<Vec<Action>> {
    let machine = MachineModel::pentium_2003();
    let ranks = part.spec.tasks();
    (0..ranks)
        .map(|r| {
            let sg = part.subgrid(r);
            let ws = sg.points() * 8 * m.active_arrays;
            let t_par = machine.compute_time(sg.points(), m.par_flops_per_point, ws);
            let t_sweep = machine.compute_time(sg.points(), m.sweep_flops_per_point, ws);
            let mut prog = Vec::new();
            for _ in 0..frames {
                prog.push(Action::Compute(t_par));
                for axis in 0..part.shape.rank() {
                    if part.spec.parts[axis] <= 1 {
                        prog.push(Action::Compute(t_sweep));
                        continue;
                    }
                    let bytes = sg.face_points(axis) * 8;
                    // mirror (old-value) exchange: send down, recv up
                    if let Some(nb) = part.neighbor(r, axis, -1) {
                        prog.push(Action::Send {
                            to: nb as usize,
                            bytes,
                        });
                    }
                    if let Some(nb) = part.neighbor(r, axis, 1) {
                        prog.push(Action::Recv { from: nb as usize });
                    }
                    // pipeline: recv updated from below, compute, send up
                    if let Some(nb) = part.neighbor(r, axis, -1) {
                        prog.push(Action::Recv { from: nb as usize });
                    }
                    prog.push(Action::Compute(t_sweep));
                    if let Some(nb) = part.neighbor(r, axis, 1) {
                        prog.push(Action::Send {
                            to: nb as usize,
                            bytes,
                        });
                    }
                }
                // the combined halo exchanges of the frame's sync points
                for _ in 0..m.syncs_per_frame {
                    for (axis, _, nb) in part.neighbors(r) {
                        let bytes = sg.face_points(axis) * 8 * m.arrays_per_sync;
                        prog.push(Action::Send {
                            to: nb as usize,
                            bytes,
                        });
                    }
                    for (_, _, nb) in part.neighbors(r) {
                        prog.push(Action::Recv { from: nb as usize });
                    }
                }
                if ranks > 1 {
                    prog.push(Action::Barrier);
                }
            }
            prog
        })
        .collect()
}

/// DES makespan for a case-2 configuration.
pub fn des_case2(m: &Case2Model, parts: &[u32], frames: u64) -> DesResult {
    let p = partition(&m.grid, &PartitionSpec::new(parts));
    run_des(&case2_des_programs(m, &p, frames), &testbed_network()).expect("no deadlock")
}

/// DES makespan for a case-1 configuration.
pub fn des_case1(m: &Case1Model, parts: &[u32], frames: u64) -> DesResult {
    let p = partition(&m.grid, &PartitionSpec::new(parts));
    run_des(&case1_des_programs(m, &p, frames), &testbed_network()).expect("no deadlock")
}

#[cfg(test)]
mod des_tests {
    use super::*;

    /// The closed-form phase model and the discrete-event simulation must
    /// agree on case study 2's speedups within a modest tolerance.
    #[test]
    fn des_matches_closed_form_case2() {
        let m = Case2Model::paper();
        let frames = 25;
        let seq_cf = run_case2(&m, &[1, 1]).total;
        let seq_des = des_case2(&m, &[1, 1], frames).makespan * (m.frames as f64 / frames as f64);
        assert!(
            (seq_des / seq_cf - 1.0).abs() < 0.05,
            "sequential: DES {seq_des:.1} vs closed-form {seq_cf:.1}"
        );
        for parts in [[2u32, 1], [3, 1], [2, 2]] {
            let cf = seq_cf / run_case2(&m, &parts).total;
            let des = seq_des
                / (des_case2(&m, &parts, frames).makespan * (m.frames as f64 / frames as f64));
            assert!(
                (des / cf - 1.0).abs() < 0.30,
                "{parts:?}: DES speedup {des:.2} vs closed-form {cf:.2}"
            );
        }
    }

    /// The DES reproduces the pipeline serialization of case study 1: a
    /// 4×1×1 partition gains almost nothing on the sweep-dominated load,
    /// and downstream ranks of the pipeline block the longest.
    #[test]
    fn des_case1_pipeline_shape() {
        let m = Case1Model::paper();
        let frames = 6;
        let t1 = des_case1(&m, &[1, 1, 1], frames).makespan;
        let r4 = des_case1(&m, &[4, 1, 1], frames);
        let s4 = t1 / r4.makespan;
        // the DES is more optimistic than the closed form (communication
        // overlaps other ranks' compute; subgrid sweeps run cache-hot),
        // but the pipeline still caps the 4-processor speedup far below
        // the 87%-parallel ideal of ~3.4
        assert!(s4 < 2.3, "pipelined sweeps cap the speedup: {s4:.2}");
        // the paper's non-monotonicity: 6 procs beat 4x1x1
        let r6 = des_case1(&m, &[3, 2, 1], frames);
        assert!(t1 / r6.makespan > s4, "3x2x1 beats 4x1x1 in the DES too");
        // serialization shows up as blocking: every rank of the pipelined
        // case-1 run spends a large share of the makespan blocked (either
        // waiting for upstream or draining at the barrier), while the
        // Jacobi-style case-2 run blocks far less
        let blocked_frac_1 = r4.blocked.iter().sum::<f64>() / (4.0 * r4.makespan);
        let c2 = des_case2(&Case2Model::paper(), &[4, 1], 10);
        let blocked_frac_2 = c2.blocked.iter().sum::<f64>() / (4.0 * c2.makespan);
        assert!(
            blocked_frac_1 > 2.0 * blocked_frac_2,
            "pipeline blocking {blocked_frac_1:.2} vs Jacobi blocking {blocked_frac_2:.2}"
        );
    }

    /// DES deadlock detection guards the program builders.
    #[test]
    fn des_builders_are_deadlock_free_on_odd_shapes() {
        let m = Case2Model::with_grid(37, 23);
        for parts in [[5u32, 1], [1, 5], [3, 2]] {
            let p = partition(&m.grid, &PartitionSpec::new(&parts));
            let progs = case2_des_programs(&m, &p, 3);
            run_des(&progs, &testbed_network()).expect("deadlock-free");
        }
    }
}
