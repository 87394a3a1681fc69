//! Candidate partition search.
//!
//! Replays a [`Diagnosis`] through the `cluster-sim` cost model over
//! every candidate Table-1 partition (all factorizations of the rank
//! count that fit the grid) and ranks them by predicted wall time.
//!
//! Calibration works in two modes deliberately:
//!
//! * **Candidates** are priced *ideally balanced*: per-point cost is
//!   calibrated from the run's total compute, so a candidate's
//!   `Parallel` phase reflects what the machine could do if work were
//!   spread evenly.
//! * **The current partition** is priced *as measured*: its per-point
//!   cost is calibrated from the slowest rank, baking the observed
//!   skew in. A balanced candidate on the same geometry therefore
//!   beats a skewed current run — which is exactly the comparison the
//!   advisor exists to make.
//!
//! Communication is scaled geometrically: each measured sync phase's
//! wire bytes are multiplied by the ratio of the candidate's halo
//! points to the current partition's, and the latency term by the
//! ratio of the worst-rank neighbor counts.

use autocfd_cluster_sim::{simulate, MachineModel, NetworkModel, Phase, SimResult, Workload};
use autocfd_grid::{enumerate_factorizations, partition, GridShape, Partition, PartitionSpec};

use crate::diagnose::Diagnosis;

/// Cost-model configuration for the search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Machine model used to price compute phases.
    pub machine: MachineModel,
    /// Network model used to price exchanges and reductions.
    pub net: NetworkModel,
    /// Halo distance used for comm-point geometry scaling.
    pub distance: u64,
    /// Estimated number of live field arrays (working-set sizing:
    /// `points × 8 bytes × arrays`).
    pub arrays: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            machine: MachineModel::pentium_2003(),
            net: NetworkModel::ethernet_10mbit(),
            distance: 1,
            arrays: 2,
        }
    }
}

/// One evaluated partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Per-axis task counts.
    pub parts: Vec<u32>,
    /// Whether this entry is the current partition priced from the
    /// measured (possibly skewed) per-rank compute rather than the
    /// ideal balance.
    pub measured: bool,
    /// Simulated run prediction.
    pub predicted: SimResult,
    /// Scaled whole-run wire bytes for this geometry.
    pub comm_bytes: u64,
    /// Predicted wall-time delta vs the current partition, percent
    /// (negative = faster).
    pub wall_delta_pct: f64,
    /// Wire-byte delta vs the current partition, percent.
    pub comm_delta_pct: f64,
}

impl Candidate {
    /// `"2x2"`-style display of the partition.
    pub fn display(&self) -> String {
        PartitionSpec::new(&self.parts).display()
    }
}

/// The ranked outcome of a partition search.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The current partition, priced as measured.
    pub current: Candidate,
    /// Every fitting Table-1 candidate, ideally balanced, ranked by
    /// predicted wall time ascending.
    pub candidates: Vec<Candidate>,
}

impl Recommendation {
    /// The top-ranked candidate.
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }
}

/// Measured per-sync aggregates extracted from the diagnosis.
struct SyncMeasure {
    bytes: u64,
    /// Worst-rank *send* count (measured msgs count both directions).
    sends_max: u64,
    /// Whole-run visits of a reduce phase (one event per rank per
    /// visit), zero for halo syncs.
    reduce_visits: u64,
}

fn max_neighbors(p: &Partition) -> u64 {
    (0..p.spec.tasks())
        .map(|r| p.neighbors(r).len() as u64)
        .max()
        .unwrap_or(0)
}

fn max_points(p: &Partition) -> u64 {
    p.subgrids.iter().map(|s| s.points()).max().unwrap_or(0)
}

/// Price one geometry. `flops_per_point` encodes the calibration mode
/// (ideal-balance vs as-measured).
#[allow(clippy::too_many_arguments)]
fn evaluate(
    cfg: &SearchConfig,
    part: &Partition,
    flops_per_point: f64,
    syncs: &[SyncMeasure],
    cur_comm_total: u64,
    cur_nb_max: u64,
    ranks: u64,
) -> (SimResult, u64) {
    let pts_max = max_points(part);
    let working_set = pts_max * 8 * cfg.arrays;
    let cand_comm_total = part.total_comm_points(cfg.distance);
    let cand_comm_max = part.max_comm_points(cfg.distance);
    let cand_nb_max = max_neighbors(part);

    let mut phases = vec![Phase::Parallel {
        points_max: pts_max,
        flops_per_point,
        working_set,
    }];
    let mut comm_bytes = 0u64;
    for s in syncs {
        if s.reduce_visits > 0 {
            for _ in 0..s.reduce_visits {
                phases.push(Phase::Reduction { ranks });
            }
            continue;
        }
        let scale = |meas: u64, num: u64, den: u64| -> u64 {
            if den == 0 {
                0
            } else {
                (meas as f64 * num as f64 / den as f64).round() as u64
            }
        };
        let total_bytes = scale(s.bytes, cand_comm_total, cur_comm_total);
        let max_bytes = scale(s.bytes, cand_comm_max, cur_comm_total);
        let msgs_max = scale(s.sends_max, cand_nb_max, cur_nb_max);
        comm_bytes += total_bytes;
        phases.push(Phase::Exchange {
            msgs_max,
            total_bytes,
            max_bytes,
        });
    }
    let w = Workload { frames: 1, phases };
    (simulate(&w, &cfg.machine, &cfg.net), comm_bytes)
}

/// Search candidate partitions for a measured run.
///
/// `shape` is the case's grid, `current` the partition the trace was
/// collected on; `diag.ranks` must equal `current.tasks()`. Returns
/// the current partition priced as measured plus every fitting
/// factorization ranked by predicted wall time.
pub fn search(
    diag: &Diagnosis,
    shape: &GridShape,
    current: &PartitionSpec,
    cfg: &SearchConfig,
) -> Result<Recommendation, String> {
    let n = current.tasks();
    if n == 0 {
        return Err("current partition has zero tasks".into());
    }
    if diag.ranks != n as usize {
        return Err(format!(
            "journal has {} ranks but partition {} has {} tasks",
            diag.ranks,
            current.display(),
            n
        ));
    }
    if current.parts.len() != shape.rank()
        || current
            .parts
            .iter()
            .zip(&shape.extents)
            .any(|(&p, &ext)| u64::from(p) > ext)
    {
        return Err(format!(
            "partition {} does not fit a {:?} grid",
            current.display(),
            shape.extents
        ));
    }
    let cur_part = partition(shape, current);
    let cur_comm_total = cur_part.total_comm_points(cfg.distance);
    let cur_nb_max = max_neighbors(&cur_part);
    let cur_pts_max = max_points(&cur_part);

    // Per-sync measured aggregates, skipping pure-barrier phases
    // (checkpoint syncs move no payload worth scaling).
    let syncs: Vec<SyncMeasure> = diag
        .phases
        .iter()
        .map(|p| (p, p.total()))
        .filter(|(_, t)| t.msgs > 0)
        .map(|(p, t)| {
            let msgs_max = p.cells.iter().map(|c| c.msgs).max().unwrap_or(0);
            SyncMeasure {
                bytes: t.bytes,
                sends_max: msgs_max.div_ceil(2),
                reduce_visits: if p.phase.starts_with("reduce_") {
                    msgs_max
                } else {
                    0
                },
            }
        })
        .collect();

    // Ideal-balance calibration: per-point cost from the run's TOTAL
    // compute, so candidates are priced as if work were spread evenly.
    let total_compute = diag.total_compute().as_secs_f64();
    let mean_pts = shape.points() / u64::from(n).max(1);
    let loc_mean = cfg.machine.locality_factor(mean_pts * 8 * cfg.arrays);
    let k_ideal = if shape.points() == 0 {
        0.0
    } else {
        total_compute / (shape.points() as f64 * cfg.machine.flop_time * loc_mean)
    };
    // As-measured calibration: per-point cost from the SLOWEST rank,
    // so the current entry carries the observed skew.
    let max_rank_compute = diag
        .compute_per_rank
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(0.0, f64::max);
    let loc_cur = cfg.machine.locality_factor(cur_pts_max * 8 * cfg.arrays);
    let k_measured = if cur_pts_max == 0 {
        0.0
    } else {
        max_rank_compute / (cur_pts_max as f64 * cfg.machine.flop_time * loc_cur)
    };

    let (cur_sim, cur_bytes) = evaluate(
        cfg,
        &cur_part,
        k_measured,
        &syncs,
        cur_comm_total,
        cur_nb_max,
        u64::from(n),
    );
    let deltas = |sim: &SimResult, bytes: u64| -> (f64, f64) {
        let wall = if cur_sim.total > 0.0 {
            100.0 * (sim.total - cur_sim.total) / cur_sim.total
        } else {
            0.0
        };
        let comm = if cur_bytes > 0 {
            100.0 * (bytes as f64 - cur_bytes as f64) / cur_bytes as f64
        } else {
            0.0
        };
        (wall, comm)
    };
    let current_cand = Candidate {
        parts: current.parts.clone(),
        measured: true,
        predicted: cur_sim,
        comm_bytes: cur_bytes,
        wall_delta_pct: 0.0,
        comm_delta_pct: 0.0,
    };

    let mut candidates: Vec<Candidate> = enumerate_factorizations(n, shape.rank())
        .into_iter()
        .filter(|parts| {
            parts
                .iter()
                .zip(&shape.extents)
                .all(|(&p, &ext)| u64::from(p) <= ext)
        })
        .map(|parts| {
            let spec = PartitionSpec::new(&parts);
            let part = partition(shape, &spec);
            let (sim, bytes) = evaluate(
                cfg,
                &part,
                k_ideal,
                &syncs,
                cur_comm_total,
                cur_nb_max,
                u64::from(n),
            );
            let (wall_delta_pct, comm_delta_pct) = deltas(&sim, bytes);
            Candidate {
                parts,
                measured: false,
                predicted: sim,
                comm_bytes: bytes,
                wall_delta_pct,
                comm_delta_pct,
            }
        })
        .collect();
    if candidates.is_empty() {
        return Err(format!(
            "no factorization of {} fits a {:?} grid",
            n, shape.extents
        ));
    }
    candidates.sort_by(|a, b| {
        a.predicted
            .total
            .partial_cmp(&b.predicted.total)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.comm_bytes.cmp(&b.comm_bytes))
            .then(a.parts.cmp(&b.parts))
    });
    Ok(Recommendation {
        current: current_cand,
        candidates,
    })
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

/// Render the ranked candidate table and the recommendation line.
pub fn render_recommendation(rec: &Recommendation) -> String {
    let mut out =
        String::from("partition search (candidates ideally balanced; current as measured)\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8}\n",
        "partition", "pred-wall", "compute", "comm", "wire-bytes", "Δwall", "Δcomm"
    ));
    let row = |c: &Candidate, label: String| -> String {
        format!(
            "{:<10} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8}\n",
            label,
            fmt_secs(c.predicted.total),
            fmt_secs(c.predicted.compute),
            fmt_secs(c.predicted.comm),
            c.comm_bytes,
            format!("{:+.1}%", c.wall_delta_pct),
            format!("{:+.1}%", c.comm_delta_pct),
        )
    };
    for c in &rec.candidates {
        out.push_str(&row(c, c.display()));
    }
    out.push_str(&row(&rec.current, format!("{}*", rec.current.display())));
    out.push_str("(* = current partition, measured skew baked in)\n");
    let best = rec.best();
    if best.parts == rec.current.parts {
        out.push_str(&format!(
            "recommendation: keep {} (already the best fitting partition; ideal balance \
             would save {:.1}%)\n",
            rec.current.display(),
            -best.wall_delta_pct,
        ));
    } else if best.predicted.total < rec.current.predicted.total {
        out.push_str(&format!(
            "recommendation: repartition {} -> {} (predicted wall {:+.1}%, wire bytes {:+.1}%)\n",
            rec.current.display(),
            best.display(),
            best.wall_delta_pct,
            best.comm_delta_pct,
        ));
    } else {
        out.push_str(&format!(
            "recommendation: keep {} (no candidate predicts an improvement)\n",
            rec.current.display(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::diagnose;
    use autocfd_runtime::journal::MergedTrace;
    use autocfd_runtime::trace::{EventKind, TraceEvent};
    use std::time::Duration;

    fn ev(kind: EventKind, start_us: u64, end_us: u64, phase: u32, bytes: usize) -> TraceEvent {
        TraceEvent {
            kind,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            peer: None,
            elems: bytes / 8,
            bytes,
            phase,
            seq: None,
        }
    }

    /// Four ranks on a 1x4 strip; rank 3 computes 4x the others.
    fn skewed_diag() -> crate::Diagnosis {
        let mut traces = Vec::new();
        for rank in 0..4usize {
            let compute_us = if rank == 3 { 4_000 } else { 1_000 };
            traces.push(vec![
                ev(EventKind::Compute, 0, compute_us, 0, 0),
                ev(
                    EventKind::Send,
                    compute_us,
                    compute_us + 10,
                    1,
                    2_400, // 300-point faces, 8 bytes
                ),
                ev(EventKind::Recv, compute_us + 10, 4_100, 1, 2_400),
            ]);
        }
        let names = vec!["main".to_string(), "sync_0".to_string()];
        diagnose(&MergedTrace {
            traces,
            phase_names: vec![names.clone(), names.clone(), names.clone(), names],
            transport: "inproc".into(),
            complete: true,
            skipped: 0,
        })
    }

    #[test]
    fn balanced_candidate_beats_skewed_current() {
        let diag = skewed_diag();
        let shape = GridShape::d2(300, 100);
        let current = PartitionSpec::new(&[1, 4]);
        let rec = search(&diag, &shape, &current, &SearchConfig::default()).unwrap();
        // Every candidate is priced balanced; the measured current is
        // skewed 4x, so the best candidate must beat it.
        assert!(
            rec.best().predicted.total < rec.current.predicted.total,
            "best {} vs current {}",
            rec.best().predicted.total,
            rec.current.predicted.total
        );
        assert!(rec.best().wall_delta_pct < 0.0);
        // 4x1 (or 2x2) cuts comm vs the 1x4 strip on a 300x100 grid.
        assert_ne!(rec.best().parts, vec![1, 4]);
    }

    #[test]
    fn rank_mismatch_is_an_error() {
        let diag = skewed_diag();
        let shape = GridShape::d2(300, 100);
        let err = search(
            &diag,
            &shape,
            &PartitionSpec::new(&[2, 1]),
            &SearchConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("4 ranks"), "{err}");
    }

    #[test]
    fn oversized_axes_are_filtered_not_panicking() {
        let diag = skewed_diag();
        // A 1x4 factorization cannot fit a 300x2 grid's j axis; only
        // fitting candidates may be evaluated (partition() panics on
        // overpartitioned axes).
        let shape = GridShape::d2(300, 2);
        let current = PartitionSpec::new(&[4, 1]);
        let rec = search(&diag, &shape, &current, &SearchConfig::default()).unwrap();
        assert!(!rec.candidates.is_empty());
        assert!(rec.candidates.iter().all(|c| c
            .parts
            .iter()
            .zip(&shape.extents)
            .all(|(&p, &e)| u64::from(p) <= e)));
    }

    #[test]
    fn render_names_the_winner() {
        let diag = skewed_diag();
        let shape = GridShape::d2(300, 100);
        let rec = search(
            &diag,
            &shape,
            &PartitionSpec::new(&[1, 4]),
            &SearchConfig::default(),
        )
        .unwrap();
        let text = render_recommendation(&rec);
        assert!(
            text.contains("recommendation: repartition 1x4 ->"),
            "{text}"
        );
    }
}
