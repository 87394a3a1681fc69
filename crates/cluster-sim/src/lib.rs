#![warn(missing_docs)]

//! Cluster cost model — the stand-in for the paper's testbed.
//!
//! The paper's evaluation (§6) ran on "a dedicated network of 6 Pentium
//! workstations connected by Ethernet". We cannot measure that hardware,
//! so this crate models it deterministically; the *shapes* the paper
//! reports all emerge from three interacting effects the model captures:
//!
//! * **compute** ([`MachineModel`]): per-point cost grows once a rank's
//!   working set overflows the cache (and blows up past physical memory)
//!   — the source of Table 5's superlinear speedups and Table 4's
//!   note that dense grids eventually thrash;
//! * **communication** ([`NetworkModel`]): per-message latency plus
//!   bytes over a *shared* 10 Mbit Ethernet segment, where concurrent
//!   transfers serialize — the source of case study 1's slowdown at
//!   four processors (per-rank computation halves, per-rank
//!   communication doubles);
//! * **pipelining** ([`Phase::Pipelined`]): mirror-image-decomposed
//!   self-dependent loops serialize their forward sweeps across the
//!   ranks of the cut axis, with only partial overlap between
//!   communication and computation (§6.2) — the source of case study
//!   1's muted speedups.
//!
//! A [`Workload`] is a per-frame phase list; [`simulate`] returns the
//! virtual execution time with a per-category breakdown.

pub mod des;
pub mod validate;

pub use des::{run_des, Action, DesError, DesResult};
pub use validate::{relative_error, Comparison};

use serde::{Deserialize, Serialize};

/// Per-node compute model with a two-level memory effect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Seconds per floating-point operation when the working set is
    /// cache-resident.
    pub flop_time: f64,
    /// Effective cache capacity in bytes.
    pub cache_bytes: u64,
    /// Physical memory per node in bytes.
    pub mem_bytes: u64,
    /// Per-point slowdown factor when the working set is much larger
    /// than the cache (asymptote).
    pub miss_factor: f64,
    /// Additional multiplier once the working set exceeds physical
    /// memory (paging).
    pub thrash_factor: f64,
}

impl MachineModel {
    /// A late-1990s Pentium workstation of the paper's vintage:
    /// ~60 MFLOPS effective in cache, 512 KiB L2, 64 MiB RAM, ~2.6×
    /// out-of-cache penalty.
    pub fn pentium_2003() -> Self {
        Self {
            flop_time: 1.0 / 60.0e6,
            cache_bytes: 512 * 1024,
            mem_bytes: 64 * 1024 * 1024,
            miss_factor: 2.6,
            thrash_factor: 25.0,
        }
    }

    /// The cache/memory slowdown factor for a given working set.
    pub fn locality_factor(&self, working_set: u64) -> f64 {
        let mut f = if working_set <= self.cache_bytes {
            1.0
        } else {
            // fraction of accesses missing the cache grows with the
            // overflow ratio and saturates at miss_factor
            let ratio = self.cache_bytes as f64 / working_set as f64;
            self.miss_factor - (self.miss_factor - 1.0) * ratio
        };
        if working_set > self.mem_bytes {
            f *= self.thrash_factor;
        }
        f
    }

    /// Seconds to compute `points` grid points at `flops_per_point`,
    /// given the rank's `working_set` in bytes.
    pub fn compute_time(&self, points: u64, flops_per_point: f64, working_set: u64) -> f64 {
        points as f64 * flops_per_point * self.flop_time * self.locality_factor(working_set)
    }
}

/// Interconnect model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Per-message latency (software + wire), seconds.
    pub latency: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Shared medium: all concurrent transfers serialize on one segment
    /// (classic 10 Mbit Ethernet with a hub).
    pub shared: bool,
}

impl NetworkModel {
    /// The paper's interconnect: 10 Mbit shared Ethernet, ~1 ms
    /// per-message software latency (PVM/MPI over UDP in 2003).
    pub fn ethernet_10mbit() -> Self {
        Self {
            latency: 1.0e-3,
            bandwidth: 10.0e6 / 8.0,
            shared: true,
        }
    }

    /// Wall time of one exchange phase. `msgs_max` = most messages any
    /// rank sends; `total_bytes` = sum over all ranks; `max_bytes` = most
    /// bytes any single rank sends.
    pub fn exchange_time(&self, msgs_max: u64, total_bytes: u64, max_bytes: u64) -> f64 {
        let wire = if self.shared {
            total_bytes as f64 / self.bandwidth
        } else {
            max_bytes as f64 / self.bandwidth
        };
        self.latency * msgs_max as f64 + wire
    }

    /// Wall time of one point-to-point transfer.
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// One phase of a frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// A fully parallel field-loop sweep: ranks run concurrently; the
    /// slowest rank sets the pace.
    Parallel {
        /// Points computed by the most-loaded rank.
        points_max: u64,
        /// Floating-point work per point.
        flops_per_point: f64,
        /// The most-loaded rank's working set (bytes).
        working_set: u64,
    },
    /// A mirror-image-decomposed self-dependent sweep: the forward
    /// pipeline serializes ranks along the cut axis.
    Pipelined {
        /// Total points of the whole sweep (all ranks).
        points_total: u64,
        /// Pipeline stages (ranks along the cut axis).
        stages: u64,
        /// Floating-point work per point.
        flops_per_point: f64,
        /// Per-rank working set (bytes).
        working_set: u64,
        /// Bytes handed downstream at each stage boundary.
        boundary_bytes: u64,
        /// Fraction of the serialization hidden by overlap with
        /// neighbouring loops/frames (0 = fully serial, 1 = perfect).
        overlap: f64,
    },
    /// A combined halo exchange (one synchronization point).
    Exchange {
        /// Most messages sent by any rank.
        msgs_max: u64,
        /// Total bytes over the wire (all ranks).
        total_bytes: u64,
        /// Most bytes sent by any single rank.
        max_bytes: u64,
    },
    /// A scalar allreduce (convergence test).
    Reduction {
        /// Participating ranks.
        ranks: u64,
    },
    /// Fixed serial work (I/O, setup) per frame.
    Serial {
        /// Seconds.
        seconds: f64,
    },
}

/// A complete run: `frames` iterations of the phase list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Frame (outer iteration) count.
    pub frames: u64,
    /// Phases executed per frame, in order.
    pub phases: Vec<Phase>,
}

/// Simulation result with per-category breakdown (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimResult {
    /// Total virtual wall time.
    pub total: f64,
    /// Parallel-compute portion.
    pub compute: f64,
    /// Pipeline (serialized) portion.
    pub pipeline: f64,
    /// Communication portion.
    pub comm: f64,
    /// Serial portion.
    pub serial: f64,
}

impl SimResult {
    /// Speedup of this run relative to `seq`.
    pub fn speedup_over(&self, seq: &SimResult) -> f64 {
        seq.total / self.total
    }
}

/// Simulate a workload on `ranks` nodes.
///
/// ```
/// use autocfd_cluster_sim::{simulate, MachineModel, NetworkModel, Phase, Workload};
/// let w = Workload {
///     frames: 100,
///     phases: vec![
///         Phase::Parallel { points_max: 10_000, flops_per_point: 50.0, working_set: 1 << 18 },
///         Phase::Exchange { msgs_max: 2, total_bytes: 8_000, max_bytes: 4_000 },
///     ],
/// };
/// let r = simulate(&w, &MachineModel::pentium_2003(), &NetworkModel::ethernet_10mbit());
/// assert!(r.total > 0.0 && r.comm > 0.0);
/// ```
pub fn simulate(w: &Workload, machine: &MachineModel, net: &NetworkModel) -> SimResult {
    let mut r = SimResult::default();
    for phase in &w.phases {
        match phase {
            Phase::Parallel {
                points_max,
                flops_per_point,
                working_set,
            } => {
                r.compute += machine.compute_time(*points_max, *flops_per_point, *working_set);
            }
            Phase::Pipelined {
                points_total,
                stages,
                flops_per_point,
                working_set,
                boundary_bytes,
                overlap,
            } => {
                // Fully serialized: every stage computes in turn.
                let serial = machine.compute_time(*points_total, *flops_per_point, *working_set);
                // Perfectly overlapped: stages run concurrently.
                let ideal = serial / (*stages).max(1) as f64;
                let t = serial * (1.0 - overlap) + ideal * overlap;
                r.pipeline += t;
                // stage handoffs (old-value + updated-value transfers)
                if *stages > 1 {
                    r.comm += (*stages - 1) as f64 * 2.0 * net.message_time(*boundary_bytes);
                }
            }
            Phase::Exchange {
                msgs_max,
                total_bytes,
                max_bytes,
            } => {
                r.comm += net.exchange_time(*msgs_max, *total_bytes, *max_bytes);
            }
            Phase::Reduction { ranks } => {
                if *ranks > 1 {
                    // gather to root + broadcast on the shared segment
                    r.comm += 2.0 * (*ranks - 1) as f64 * net.latency;
                }
            }
            Phase::Serial { seconds } => r.serial += seconds,
        }
    }
    let f = w.frames as f64;
    r.compute *= f;
    r.pipeline *= f;
    r.comm *= f;
    r.serial *= f;
    r.total = r.compute + r.pipeline + r.comm + r.serial;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineModel {
        MachineModel::pentium_2003()
    }

    fn net() -> NetworkModel {
        NetworkModel::ethernet_10mbit()
    }

    #[test]
    fn locality_factor_shape() {
        let m = machine();
        assert_eq!(m.locality_factor(1024), 1.0);
        assert_eq!(m.locality_factor(m.cache_bytes), 1.0);
        let just_over = m.locality_factor(m.cache_bytes * 2);
        assert!(just_over > 1.0 && just_over < m.miss_factor);
        let way_over = m.locality_factor(m.cache_bytes * 100); // still < mem
        assert!(way_over > just_over);
        assert!(way_over <= m.miss_factor);
        // monotone
        let mut prev = 0.0;
        for ws in [1u64 << 10, 1 << 16, 1 << 19, 1 << 22, 1 << 25] {
            let f = m.locality_factor(ws);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn thrash_beyond_memory() {
        let m = machine();
        let fits = m.locality_factor(m.mem_bytes);
        let thrashes = m.locality_factor(m.mem_bytes + 1);
        assert!(thrashes > fits * 10.0);
    }

    #[test]
    fn shared_ethernet_serializes() {
        let shared = net();
        let switched = NetworkModel {
            shared: false,
            ..shared.clone()
        };
        // 4 ranks sending 1 KB each
        let t_shared = shared.exchange_time(1, 4096, 1024);
        let t_switched = switched.exchange_time(1, 4096, 1024);
        assert!(t_shared > t_switched);
    }

    #[test]
    fn parallel_phase_scales_with_ranks() {
        let m = machine();
        let n = net();
        let seq = simulate(
            &Workload {
                frames: 10,
                phases: vec![Phase::Parallel {
                    points_max: 100_000,
                    flops_per_point: 100.0,
                    working_set: 1 << 24,
                }],
            },
            &m,
            &n,
        );
        let par = simulate(
            &Workload {
                frames: 10,
                phases: vec![
                    Phase::Parallel {
                        points_max: 50_000,
                        flops_per_point: 100.0,
                        working_set: 1 << 23,
                    },
                    Phase::Exchange {
                        msgs_max: 2,
                        total_bytes: 8_000,
                        max_bytes: 4_000,
                    },
                ],
            },
            &m,
            &n,
        );
        let s = par.speedup_over(&seq);
        assert!(s > 1.5 && s <= 2.2, "speedup {s}");
    }

    #[test]
    fn superlinear_when_subgrid_fits_cache() {
        // whole problem overflows cache; half-problem fits → >2x speedup
        let m = machine();
        let n = net();
        let ws_full = m.cache_bytes * 2;
        let ws_half = m.cache_bytes;
        let seq = simulate(
            &Workload {
                frames: 100,
                phases: vec![Phase::Parallel {
                    points_max: 100_000,
                    flops_per_point: 50.0,
                    working_set: ws_full,
                }],
            },
            &m,
            &n,
        );
        let par = simulate(
            &Workload {
                frames: 100,
                phases: vec![
                    Phase::Parallel {
                        points_max: 50_000,
                        flops_per_point: 50.0,
                        working_set: ws_half,
                    },
                    Phase::Exchange {
                        msgs_max: 1,
                        total_bytes: 4_000,
                        max_bytes: 2_000,
                    },
                ],
            },
            &m,
            &n,
        );
        let s = par.speedup_over(&seq);
        assert!(s > 2.0, "superlinear speedup expected, got {s}");
    }

    #[test]
    fn pipeline_overlap_bounds() {
        let m = machine();
        let n = net();
        let mk = |overlap: f64| Workload {
            frames: 1,
            phases: vec![Phase::Pipelined {
                points_total: 1_000_000,
                stages: 4,
                flops_per_point: 10.0,
                working_set: 1 << 18,
                boundary_bytes: 1000,
                overlap,
            }],
        };
        let serial = simulate(&mk(0.0), &m, &n);
        let ideal = simulate(&mk(1.0), &m, &n);
        let mid = simulate(&mk(0.5), &m, &n);
        assert!(serial.total > mid.total && mid.total > ideal.total);
        // fully-overlapped pipeline ≈ parallel/4 + comm
        assert!(ideal.pipeline * 3.9 < serial.pipeline);
    }

    #[test]
    fn reduction_costs_grow_with_ranks() {
        let n = net();
        let m = machine();
        let mk = |ranks| Workload {
            frames: 1,
            phases: vec![Phase::Reduction { ranks }],
        };
        let t2 = simulate(&mk(2), &m, &n).comm;
        let t6 = simulate(&mk(6), &m, &n).comm;
        assert!(t6 > t2);
        assert_eq!(simulate(&mk(1), &m, &n).comm, 0.0);
    }

    #[test]
    fn frames_scale_linearly() {
        let m = machine();
        let n = net();
        let w1 = Workload {
            frames: 1,
            phases: vec![Phase::Serial { seconds: 2.0 }],
        };
        let w10 = Workload {
            frames: 10,
            ..w1.clone()
        };
        assert_eq!(
            simulate(&w10, &m, &n).total,
            10.0 * simulate(&w1, &m, &n).total
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Locality factor is monotone in working-set size and bounded.
        #[test]
        fn locality_monotone(a in 1u64..1u64<<28, b in 1u64..1u64<<28) {
            let m = MachineModel::pentium_2003();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(m.locality_factor(lo) <= m.locality_factor(hi) + 1e-12);
            prop_assert!(m.locality_factor(hi) <= m.miss_factor * m.thrash_factor);
            prop_assert!(m.locality_factor(lo) >= 1.0);
        }

        /// Simulation time is monotone in every phase magnitude.
        #[test]
        fn sim_monotone_in_points(p1 in 1u64..1_000_000, p2 in 1u64..1_000_000) {
            let m = MachineModel::pentium_2003();
            let n = NetworkModel::ethernet_10mbit();
            let mk = |points| Workload {
                frames: 3,
                phases: vec![Phase::Parallel {
                    points_max: points, flops_per_point: 10.0, working_set: 1 << 20,
                }],
            };
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(simulate(&mk(lo), &m, &n).total <= simulate(&mk(hi), &m, &n).total);
        }
    }
}
