//! Static per-visit traffic forecast for a restructured program.
//!
//! Walks an [`SpmdPlan`] and predicts — without running anything — the
//! message traffic each `acf_*` communication phase generates *per
//! visit*: how many transport frames each rank sends and receives and
//! how many payload bytes they carry. The slab geometry comes from the
//! same [`ghost_region`] / [`owned_region`] functions the live SPMD
//! handlers use, so predicted and measured payload sizes agree by
//! construction; the only free variable left is how many times the
//! program visits each phase, which the cross-validation in `acfc
//! stats` recovers from the measured trace.
//!
//! Array bounds are obtained by building the main program's frame
//! (declarations and `parameter` constants are evaluated; no statement
//! runs), exactly as the interpreter itself would.

use crate::machine::{build_frame, Machine, Names, RunError};
use crate::spmd::{ghost_region, owned_region, region_len};
use autocfd_codegen::SpmdPlan;
use autocfd_fortran::SourceFile;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-visit message traffic of one rank in one communication phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Trace events the rank records per visit: one per send, one per
    /// receive, or the single allreduce event of a reduce phase.
    pub events: u64,
    /// Transport frames the rank sends per visit.
    pub frames_out: u64,
    /// Transport frames the rank receives per visit.
    pub frames_in: u64,
    /// Payload bytes sent per visit (8 bytes per `f64` element; wire
    /// framing is transport-specific and added by the caller).
    pub payload_out: u64,
    /// Payload bytes received per visit.
    pub payload_in: u64,
}

impl RankTraffic {
    /// Total payload bytes moved (both directions).
    pub fn payload(&self) -> u64 {
        self.payload_out + self.payload_in
    }

    /// Total transport frames (both directions).
    pub fn frames(&self) -> u64 {
        self.frames_out + self.frames_in
    }
}

/// Predicted per-visit traffic of one communication phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseForecast {
    /// Phase label, matching the trace phase names (`sync_<id>`,
    /// `pre_<id>`, `post_<id>`, `fill_<id>`, `reduce_<op>_<var>`).
    pub phase: String,
    /// Traffic per rank, indexed by rank.
    pub per_rank: Vec<RankTraffic>,
}

impl PhaseForecast {
    /// Sum of trace events across ranks per visit.
    pub fn events(&self) -> u64 {
        self.per_rank.iter().map(|t| t.events).sum()
    }

    /// Sum of payload bytes across ranks per visit (each payload counted
    /// on both the sending and the receiving side, matching how per-rank
    /// traces account for it).
    pub fn payload(&self) -> u64 {
        self.per_rank.iter().map(|t| t.payload()).sum()
    }

    /// Sum of transport frames across ranks per visit (counted on both
    /// sides, like [`PhaseForecast::payload`]).
    pub fn frames(&self) -> u64 {
        self.per_rank.iter().map(|t| t.frames()).sum()
    }
}

/// Predict the per-visit traffic of every communication phase of `plan`.
///
/// `file` must be the *transformed* source (the one the SPMD interpreter
/// runs): its main program declares the status arrays whose bounds the
/// slab geometry needs. Errors if the main unit is missing or a plan
/// array is not declared there.
pub fn forecast(file: &SourceFile, plan: &SpmdPlan) -> Result<Vec<PhaseForecast>, RunError> {
    let main = file
        .main_unit()
        .ok_or_else(|| RunError::new("no `program` unit"))?;
    let mut m = Machine::new(vec![]);
    let frame = build_frame(&mut m, main, &Arc::new(Names::of(main)), Vec::new())?;
    let mut bounds: BTreeMap<&str, Vec<(i64, i64)>> = BTreeMap::new();
    for name in plan.dim_axis.keys() {
        let id = frame.arrays.get(name).ok_or_else(|| {
            RunError::new(format!(
                "array `{name}` is not declared in the main program; the \
                 traffic forecast needs its declared bounds"
            ))
        })?;
        bounds.insert(name.as_str(), m.array(*id).bounds.clone());
    }
    let dim_axis_of = |array: &str| -> Result<&Vec<Option<usize>>, RunError> {
        plan.dim_axis
            .get(array)
            .ok_or_else(|| RunError::new(format!("no mapping for `{array}`")))
    };
    let n = plan.ranks();
    let cut = plan.cut_axes();
    let mut out = Vec::new();

    // ---- sync phases: one aggregated frame per neighbor per direction
    for spec in plan.syncs.values() {
        let mut per_rank = vec![RankTraffic::default(); n as usize];
        for (me, t) in per_rank.iter_mut().enumerate() {
            let me = me as u32;
            let mut done: Vec<Vec<[u64; 2]>> = spec
                .arrays
                .iter()
                .map(|sa| vec![[0u64; 2]; sa.ghost.len()])
                .collect();
            for &axis in &cut {
                for dir in [-1i32, 1] {
                    let Some(nb) = plan.partition.neighbor(me, axis, dir) else {
                        continue;
                    };
                    let mut total = 0u64;
                    for (ai, sa) in spec.arrays.iter().enumerate() {
                        let [gl, gh] = sa.ghost.get(axis).copied().unwrap_or([0, 0]);
                        let their_w = if dir > 0 { gl } else { gh };
                        if their_w == 0 {
                            continue;
                        }
                        if let Some(region) = ghost_region(
                            &plan.partition,
                            &bounds[sa.array.as_str()],
                            dim_axis_of(&sa.array)?,
                            nb,
                            axis,
                            -dir,
                            their_w,
                            &done[ai],
                        ) {
                            total += region_len(&region);
                        }
                    }
                    if total > 0 {
                        t.frames_out += 1;
                        t.payload_out += 8 * total;
                    }
                }
                for dir in [-1i32, 1] {
                    if plan.partition.neighbor(me, axis, dir).is_none() {
                        continue;
                    }
                    let mut total = 0u64;
                    let mut any = false;
                    for (ai, sa) in spec.arrays.iter().enumerate() {
                        let [gl, gh] = sa.ghost.get(axis).copied().unwrap_or([0, 0]);
                        let w = if dir < 0 { gl } else { gh };
                        if w == 0 {
                            continue;
                        }
                        if let Some(region) = ghost_region(
                            &plan.partition,
                            &bounds[sa.array.as_str()],
                            dim_axis_of(&sa.array)?,
                            me,
                            axis,
                            dir,
                            w,
                            &done[ai],
                        ) {
                            any = true;
                            total += region_len(&region);
                        }
                    }
                    if any {
                        t.frames_in += 1;
                        t.payload_in += 8 * total;
                    }
                }
                for (ai, sa) in spec.arrays.iter().enumerate() {
                    done[ai][axis] = sa.ghost.get(axis).copied().unwrap_or([0, 0]);
                }
            }
            t.events = t.frames_out + t.frames_in;
        }
        out.push(PhaseForecast {
            phase: format!("sync_{}", spec.id),
            per_rank,
        });
    }

    // ---- self-loop phases: mirror traffic in `pre`, pipeline split
    // between `pre` (receives) and `post` (sends)
    for spec in plan.self_loops.values() {
        let mut pre = vec![RankTraffic::default(); n as usize];
        let mut post = vec![RankTraffic::default(); n as usize];
        for me in 0..n {
            let (tp, to) = (&mut pre[me as usize], &mut post[me as usize]);
            for sa in &spec.arrays {
                let b = &bounds[sa.array.as_str()];
                let map = dim_axis_of(&sa.array)?;
                for step in &sa.mirror {
                    // old-value send to the -dir neighbor…
                    if let Some(nb) = plan.partition.neighbor(me, step.axis, -step.dir) {
                        if let Some(region) = ghost_region(
                            &plan.partition,
                            b,
                            map,
                            nb,
                            step.axis,
                            step.dir,
                            step.width,
                            &[],
                        ) {
                            tp.frames_out += 1;
                            tp.payload_out += 8 * region_len(&region);
                        }
                    }
                    // …and the matching receive from the +dir neighbor
                    if plan.partition.neighbor(me, step.axis, step.dir).is_some() {
                        if let Some(region) = ghost_region(
                            &plan.partition,
                            b,
                            map,
                            me,
                            step.axis,
                            step.dir,
                            step.width,
                            &[],
                        ) {
                            tp.frames_in += 1;
                            tp.payload_in += 8 * region_len(&region);
                        }
                    }
                }
                for step in &sa.forward {
                    // pipeline receive (in `pre`) of the updated slab
                    if plan.partition.neighbor(me, step.axis, step.dir).is_some() {
                        if let Some(region) = ghost_region(
                            &plan.partition,
                            b,
                            map,
                            me,
                            step.axis,
                            step.dir,
                            step.width,
                            &[],
                        ) {
                            tp.frames_in += 1;
                            tp.payload_in += 8 * region_len(&region);
                        }
                    }
                    // pipeline forward (in `post`) to the -dir neighbor
                    if let Some(nb) = plan.partition.neighbor(me, step.axis, -step.dir) {
                        if let Some(region) = ghost_region(
                            &plan.partition,
                            b,
                            map,
                            nb,
                            step.axis,
                            step.dir,
                            step.width,
                            &[],
                        ) {
                            to.frames_out += 1;
                            to.payload_out += 8 * region_len(&region);
                        }
                    }
                }
            }
            tp.events = tp.frames_out + tp.frames_in;
            to.events = to.frames_out + to.frames_in;
        }
        out.push(PhaseForecast {
            phase: format!("pre_{}", spec.id),
            per_rank: pre,
        });
        out.push(PhaseForecast {
            phase: format!("post_{}", spec.id),
            per_rank: post,
        });
    }

    // ---- fill phases: allgather of each listed array's owned regions
    for (id, arrays) in &plan.fills {
        let mut per_rank = vec![RankTraffic::default(); n as usize];
        if n > 1 {
            for (me, t) in per_rank.iter_mut().enumerate() {
                let me = me as u32;
                for array in arrays {
                    let b = &bounds[array.as_str()];
                    let map = dim_axis_of(array)?;
                    if let Some(region) = owned_region(&plan.partition, b, map, me) {
                        t.frames_out += u64::from(n - 1);
                        t.payload_out += 8 * region_len(&region) * u64::from(n - 1);
                    }
                    for peer in 0..n {
                        if peer == me {
                            continue;
                        }
                        if let Some(region) = owned_region(&plan.partition, b, map, peer) {
                            t.frames_in += 1;
                            t.payload_in += 8 * region_len(&region);
                        }
                    }
                }
                t.events = t.frames_out + t.frames_in;
            }
        }
        out.push(PhaseForecast {
            phase: format!("fill_{id}"),
            per_rank,
        });
    }

    // ---- reduce phases: gather-to-0 + broadcast of one f64; the trace
    // records a single allreduce event per rank (none when n == 1 — the
    // runtime short-circuits before touching the transport)
    for spec in &plan.reduces {
        let mut per_rank = vec![RankTraffic::default(); n as usize];
        if n > 1 {
            for (me, t) in per_rank.iter_mut().enumerate() {
                t.events = 1;
                let peers = u64::from(n - 1);
                if me == 0 {
                    t.frames_in = peers;
                    t.frames_out = peers;
                    t.payload_in = 8 * peers;
                    t.payload_out = 8 * peers;
                } else {
                    t.frames_in = 1;
                    t.frames_out = 1;
                    t.payload_in = 8;
                    t.payload_out = 8;
                }
            }
        }
        out.push(PhaseForecast {
            phase: format!("reduce_{}_{}", spec.op, spec.var),
            per_rank,
        });
    }
    Ok(out)
}
