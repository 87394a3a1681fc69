//! SPMD parallel execution of restructured programs.
//!
//! The restructurer ([`autocfd_codegen`]) emits `call acf_*` statements;
//! this module implements them through the message-passing runtime so the
//! generated parallel program actually runs on `n` rank-threads:
//!
//! * `acf_init` — bind the rank's subgrid bounds to the `acflo<a>` /
//!   `acfhi<a>` scalars used by localized loop bounds;
//! * `acf_sync_<k>` — the combined halo exchange of a synchronization
//!   point: per array and cut axis, exchange ghost slabs with both
//!   neighbors (axes in ascending order, widening the slab by the ghost
//!   layers already exchanged so corner points arrive correctly);
//! * `acf_pre_<k>` / `acf_post_<k>` — the mirror-image schedule of a
//!   self-dependent loop: `pre` ships *old* boundary values against the
//!   sweep direction and blocks on the *updated* boundary from the
//!   upstream neighbor (the pipeline); `post` forwards the freshly
//!   computed boundary downstream;
//! * `acf_reduce_<op>_<var>` — global reduction of a scalar (the CFD
//!   convergence error).
//!
//! Because every rank holds full-size arrays indexed globally, a slab is
//! identified purely by global index ranges; sender and receiver compute
//! the *same* region (from the receiving rank's subgrid), so payloads
//! need no headers.
//!
//! With overlap enabled (see [`SpmdHooks::new`]), a sync point the plan
//! marked eligible posts its *last*-axis exchange as `isend`/`irecv`
//! pairs and returns with the receives still in flight; the engine then
//! splits the following loop nest ([`crate::exec::Hooks::split_loop`])
//! so its interior runs while the messages travel, completes the
//! receives, and finishes with the two boundary strips.

use crate::exec::{run_program, run_program_from, Hooks, LoopSplit};
use crate::kernel::KernelSet;
use crate::machine::{ArrayId, Frame, Machine, RunError};
use crate::value::{ArrayVal, Value};
use autocfd_codegen::{SelfLoopSpec, SpmdPlan, SyncSpec};
use autocfd_fortran::ast::{Stmt, StmtId};
use autocfd_fortran::SourceFile;
use autocfd_grid::Partition;
use autocfd_runtime::checkpoint::{
    write_snapshot, ArraySnap, Cursor, DoProgress, OpsSnap, ScalarSnap, Snapshot,
};
use autocfd_runtime::{Comm, EventKind, Recorder, RecvRequest, ReduceOp, TraceEvent, WireStats};
use std::path::PathBuf;
use std::time::Instant;

/// One in-flight ghost receive with the regions its payload fills.
struct PendingRecv {
    req: RecvRequest,
    /// `(array, region)` pairs in payload order (aggregated message).
    regions: Vec<(ArrayId, Vec<(i64, i64)>)>,
}

/// The last-axis exchange a sync left in flight, to be completed by the
/// split of the nest at `stmt` (or defensively by the next hook call).
struct PendingOverlap {
    stmt: StmtId,
    split: LoopSplit,
    recvs: Vec<PendingRecv>,
}

/// Checkpoint behavior for one rank (see
/// [`crate::engine::RunConfig::checkpoint`]).
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Write a snapshot every `every`-th visit of a checkpoint-safe sync
    /// point (0 disables writing; chaos injection still counts visits).
    pub every: u64,
    /// Directory snapshots go to (per-epoch subdirectories inside).
    pub dir: PathBuf,
    /// Fault injection for tests and the chaos CI job: fail the rank
    /// with a `chaos-abort` error when the visit counter reaches this
    /// value, *before* any snapshot or exchange of that visit.
    pub chaos_abort_after: Option<u64>,
}

/// The hook set wiring `acf_*` calls to the runtime.
pub struct SpmdHooks<'a> {
    /// The executable plan.
    pub plan: &'a SpmdPlan,
    /// This rank's communicator.
    pub comm: &'a Comm,
    /// Exploit the plan's overlap opportunities: split eligible nests
    /// and hide their sync's last-axis exchange behind the interior
    /// computation. Off (the default constructors) runs every sync
    /// blocking.
    pub overlap: bool,
    /// The exchange currently in flight, if any.
    pending: Option<PendingOverlap>,
    /// Whether the engine is currently executing the split nest of
    /// `pending` — inner loops of the nest must not trigger the
    /// blocking fallback of [`SpmdHooks::split_loop`].
    in_split: bool,
    /// Checkpoint/chaos configuration; `None` runs without either.
    ckpt: Option<CheckpointOpts>,
    /// Visits of checkpoint-safe sync points so far, including those
    /// replayed into a restored run (the snapshot's epoch).
    visits: u64,
    /// The last `acf_*` call site the engine reported at depth 0.
    site: Option<(StmtId, Vec<DoProgress>)>,
    /// Set on resume: the first checkpoint-safe visit is the re-executed
    /// snapshot sync itself and must not be counted (or written) again.
    resume_skip: bool,
}

impl<'a> SpmdHooks<'a> {
    /// Hook set for one rank; `overlap` enables compute/communication
    /// overlap at the plan's eligible sync points.
    pub fn new(plan: &'a SpmdPlan, comm: &'a Comm, overlap: bool) -> Self {
        Self {
            plan,
            comm,
            overlap,
            pending: None,
            in_split: false,
            ckpt: None,
            visits: 0,
            site: None,
            resume_skip: false,
        }
    }
}

/// Result of one rank's execution.
#[derive(Debug)]
pub struct RankResult {
    /// The rank's machine (arrays, output, op counts).
    pub machine: Machine,
    /// The rank's final main-program frame (array name bindings).
    pub frame: Frame,
    /// Communication statistics `(messages, f64 elements, barriers,
    /// reductions)` — real measured traffic, used by the ablation
    /// benches.
    pub comm_stats: (u64, u64, u64, u64),
    /// Wire-level counters from the transport: messages and bytes
    /// actually moved (framed size over TCP, payload size in-process).
    pub wire_stats: WireStats,
    /// Phase names in index order; `trace` events refer to these via
    /// their `phase` field.
    pub phases: Vec<String>,
    /// The rank's communication trace (see
    /// [`autocfd_runtime::trace`]): every send/recv/collective with
    /// wall-clock timestamps, renderable as a timeline.
    pub trace: Vec<autocfd_runtime::TraceEvent>,
}

impl Hooks for SpmdHooks<'_> {
    fn call(&mut self, m: &mut Machine, frame: &mut Frame, name: &str) -> Result<bool, RunError> {
        if name == "acf_init" {
            // `acf_init` only seeds the frame's subgrid bound scalars —
            // it reads no arrays, so it is exempt from the completion
            // fallback below. It is exactly the hook that runs between
            // a sync and a called subroutine's leading nest, and
            // draining there would forfeit every call-carried overlap
            // (see the restructurer's `overlap_spec`).
            self.init(frame)?;
            return Ok(true);
        }
        // Complete any exchange still in flight before handling a new
        // runtime call. Normally the split nest's `finish_split` already
        // did; this covers degraded paths where another hook runs first
        // (the receives then land in the phase of the sync that posted
        // them, keeping per-phase traffic identical to blocking mode).
        self.complete_pending(m)?;
        if let Some(rest) = name.strip_prefix("acf_sync_") {
            let id: u32 = rest
                .parse()
                .map_err(|_| RunError::new(format!("bad sync id in `{name}`")))?;
            let spec = self
                .plan
                .syncs
                .get(&id)
                .ok_or_else(|| RunError::new(format!("unknown sync id {id}")))?;
            // With `complete_pending` done and the exchange not yet
            // started, no request is in flight anywhere in this rank —
            // the consistent cut the snapshot is defined at.
            self.maybe_checkpoint(m, frame, id)?;
            self.comm.enter_phase(&format!("sync_{id}"));
            self.sync(m, frame, spec)?;
            return Ok(true);
        }
        if let Some(rest) = name.strip_prefix("acf_pre_") {
            let id: u32 = rest
                .parse()
                .map_err(|_| RunError::new(format!("bad self-loop id in `{name}`")))?;
            let spec = self.self_spec(id)?;
            self.comm.enter_phase(&format!("pre_{id}"));
            self.pre(m, frame, &spec)?;
            return Ok(true);
        }
        if let Some(rest) = name.strip_prefix("acf_post_") {
            let id: u32 = rest
                .parse()
                .map_err(|_| RunError::new(format!("bad self-loop id in `{name}`")))?;
            let spec = self.self_spec(id)?;
            self.comm.enter_phase(&format!("post_{id}"));
            self.post(m, frame, &spec)?;
            return Ok(true);
        }
        if let Some(rest) = name.strip_prefix("acf_fill_") {
            let id: u32 = rest
                .parse()
                .map_err(|_| RunError::new(format!("bad fill id in `{name}`")))?;
            let arrays = self
                .plan
                .fills
                .get(&id)
                .cloned()
                .ok_or_else(|| RunError::new(format!("unknown fill id {id}")))?;
            self.comm.enter_phase(&format!("fill_{id}"));
            self.fill(m, frame, id, &arrays)?;
            return Ok(true);
        }
        if let Some(rest) = name.strip_prefix("acf_reduce_") {
            let (op, var) = rest
                .split_once('_')
                .ok_or_else(|| RunError::new(format!("bad reduce call `{name}`")))?;
            let op = match op {
                "max" => ReduceOp::Max,
                "min" => ReduceOp::Min,
                "sum" => ReduceOp::Sum,
                other => return Err(RunError::new(format!("bad reduce op `{other}`"))),
            };
            let local = frame.get_scalar(var).as_f64()?;
            self.comm.enter_phase(&format!("reduce_{rest}"));
            let global = self
                .comm
                .allreduce(local, op)
                .map_err(|e| RunError::new(e.to_string()))?;
            frame.set_scalar(var, Value::Real(global))?;
            return Ok(true);
        }
        Ok(false)
    }

    fn split_loop(&mut self, m: &mut Machine, stmt: &Stmt) -> Result<Option<LoopSplit>, RunError> {
        if self.in_split {
            return Ok(None); // a loop inside the nest being split
        }
        let Some(p) = self.pending.as_ref() else {
            return Ok(None);
        };
        if p.stmt == stmt.id {
            self.in_split = true;
            return Ok(Some(p.split.clone()));
        }
        // A different loop runs before the overlapped nest (the nest was
        // the first statement of a loop body whose final iteration just
        // ended, or control took an unforeseen path): complete the
        // exchange now so no statement can observe stale ghost cells.
        self.complete_pending(m)?;
        Ok(None)
    }

    fn finish_split(&mut self, m: &mut Machine, _frame: &mut Frame) -> Result<(), RunError> {
        self.in_split = false;
        self.complete_pending(m)
    }

    fn recorder(&self) -> Option<&dyn Recorder> {
        Some(self.comm)
    }

    fn wants_cursor(&self) -> bool {
        self.ckpt.is_some()
    }

    fn hook_site(&mut self, stmt: StmtId, cursor: &[DoProgress]) {
        self.site = Some((stmt, cursor.to_vec()));
    }
}

impl SpmdHooks<'_> {
    fn self_spec(&self, id: u32) -> Result<SelfLoopSpec, RunError> {
        self.plan
            .self_loops
            .get(&id)
            .cloned()
            .ok_or_else(|| RunError::new(format!("unknown self-loop id {id}")))
    }

    fn init(&self, frame: &mut Frame) -> Result<(), RunError> {
        let sg = self.plan.partition.subgrid(self.comm.rank() as u32);
        for a in 0..sg.lo.len() {
            frame.set_scalar(&format!("acflo{}", a + 1), Value::Int(sg.lo[a] as i64))?;
            frame.set_scalar(&format!("acfhi{}", a + 1), Value::Int(sg.hi[a] as i64))?;
        }
        Ok(())
    }

    fn array_id(&self, frame: &Frame, array: &str) -> Result<ArrayId, RunError> {
        frame.arrays.get(array).copied().ok_or_else(|| {
            RunError::new(format!(
                "status array `{array}` is not bound in unit `{}` at a communication \
                 point (status arrays must keep their names across units)",
                frame.unit()
            ))
        })
    }

    fn pack(&self, m: &Machine, id: ArrayId, region: &[(i64, i64)]) -> Vec<f64> {
        let arr = m.array(id);
        let mut out = Vec::new();
        let mut idx: Vec<i64> = region.iter().map(|&(lo, _)| lo).collect();
        loop {
            out.push(arr.get(&idx).expect("region inside bounds"));
            if !advance(&mut idx, region) {
                break;
            }
        }
        out
    }

    fn unpack(
        &self,
        m: &mut Machine,
        id: ArrayId,
        region: &[(i64, i64)],
        data: &[f64],
    ) -> Result<(), RunError> {
        let arr = m.array_mut(id);
        let mut idx: Vec<i64> = region.iter().map(|&(lo, _)| lo).collect();
        let mut k = 0usize;
        loop {
            let v = *data
                .get(k)
                .ok_or_else(|| RunError::new("halo payload shorter than region"))?;
            arr.set(&idx, v)?;
            k += 1;
            if !advance(&mut idx, region) {
                break;
            }
        }
        if k != data.len() {
            return Err(RunError::new("halo payload longer than region"));
        }
        Ok(())
    }

    /// Wait for and unpack every in-flight ghost receive. The `Recv`
    /// trace events are recorded here — at completion — which is what
    /// the profiler's "% comm hidden" figure measures the overlap span
    /// against.
    fn complete_pending(&mut self, m: &mut Machine) -> Result<(), RunError> {
        let Some(p) = self.pending.take() else {
            return Ok(());
        };
        for pr in p.recvs {
            // adaptive wait: a short test_recv spin catches messages that
            // already arrived during the interior chunk without the
            // blocking path's syscall, then parks properly
            let data = self
                .comm
                .wait_recv_adaptive(pr.req)
                .map_err(|e| RunError::new(e.to_string()))?;
            let mut off = 0usize;
            for (id, region) in &pr.regions {
                let len = region_len(region) as usize;
                let slice = data
                    .get(off..off + len)
                    .ok_or_else(|| RunError::new("aggregated halo payload shorter than regions"))?;
                self.unpack(m, *id, region, slice)?;
                off += len;
            }
            if off != data.len() {
                return Err(RunError::new("aggregated halo payload longer than regions"));
            }
        }
        Ok(())
    }

    /// Count a visit of a checkpoint-safe sync point and, when due,
    /// write this rank's snapshot. Runs at the *start* of the sync —
    /// after the universal `complete_pending` and before any exchange —
    /// so the cut is consistent by construction: every rank that reaches
    /// visit `E` has completed all communication of visits `< E` and
    /// started none of visit `E` (see [`autocfd_runtime::checkpoint`]).
    fn maybe_checkpoint(
        &mut self,
        m: &mut Machine,
        frame: &Frame,
        sync_id: u32,
    ) -> Result<(), RunError> {
        let Some(opts) = self.ckpt.clone() else {
            return Ok(());
        };
        // only syncs the plan marked checkpoint-safe (their call lives in
        // the main unit) count, and only when dispatched from that site —
        // the same sync id reached through a subroutine has no cursor
        let Some(&safe_stmt) = self.plan.checkpoint_syncs.get(&sync_id) else {
            return Ok(());
        };
        let Some((at, cursor)) = self.site.clone() else {
            return Ok(());
        };
        if at != safe_stmt {
            return Ok(());
        }
        if self.resume_skip {
            // the re-executed snapshot sync: its visit is already in
            // `visits` (the snapshot's epoch), and its snapshot exists
            self.resume_skip = false;
            return Ok(());
        }
        self.visits += 1;
        // the telemetry plane reports checkpoint lag as epochs-behind,
        // so every counted visit updates the rank's epoch counter
        self.comm.note_checkpoint_epoch(self.visits);
        if let Some(n) = opts.chaos_abort_after {
            if self.visits == n {
                return Err(RunError::new(format!(
                    "chaos-abort injected at checkpoint-safe sync visit {n}"
                )));
            }
        }
        if opts.every > 0 && self.visits.is_multiple_of(opts.every) {
            let snap = self.snapshot(m, frame, sync_id, self.visits, at, &cursor)?;
            write_snapshot(&opts.dir, &snap)
                .map_err(|e| RunError::new(format!("checkpoint write failed: {e}")))?;
        }
        Ok(())
    }

    /// Build this rank's snapshot: every live array (common blocks and
    /// main-frame locals), every main-frame scalar, the I/O queues, and
    /// the op counters, all bit-exact (f64 payloads travel as raw bits).
    fn snapshot(
        &self,
        m: &Machine,
        frame: &Frame,
        sync_id: u32,
        epoch: u64,
        at: StmtId,
        cursor: &[DoProgress],
    ) -> Result<Snapshot, RunError> {
        let array_snap = |name: &str, arr: &ArrayVal| ArraySnap {
            name: name.to_string(),
            bounds: arr.bounds.clone(),
            is_int: arr.is_int,
            data: arr.data.iter().map(|v| v.to_bits()).collect(),
        };
        let mut commons: Vec<(String, String, ArraySnap)> = m
            .commons
            .iter()
            .map(|((blk, name), id)| (blk.clone(), name.clone(), array_snap(name, m.array(*id))))
            .collect();
        commons.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let common_ids: std::collections::HashSet<usize> =
            m.commons.values().map(|id| id.0).collect();
        let mut arrays: Vec<ArraySnap> = frame
            .arrays
            .iter()
            .filter(|(_, id)| !common_ids.contains(&id.0))
            .map(|(name, id)| array_snap(name, m.array(*id)))
            .collect();
        arrays.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Snapshot {
            rank: self.comm.rank(),
            ranks: self.comm.size(),
            parts: self.plan.partition.spec.parts.clone(),
            epoch,
            sync_id,
            cursor: Cursor {
                stmt: at.0,
                dos: cursor.to_vec(),
            },
            cut: self.plan.checkpoint_sites.get(&sync_id).map(|s| {
                autocfd_runtime::checkpoint::CutSite {
                    list_kind: s.list_kind,
                    list_stmt: s.list_stmt,
                    arm: s.arm,
                    gap: s.gap,
                }
            }),
            arrays,
            commons,
            scalars: scalar_snaps(frame),
            input: m.input.iter().map(|v| v.to_bits()).collect(),
            output: m.output.clone(),
            ops: OpsSnap {
                flops: m.ops.flops,
                loads: m.ops.loads,
                stores: m.ops.stores,
                stmts: m.ops.stmts,
            },
        })
    }

    /// The combined halo exchange of one synchronization point. The
    /// paper's combining step "aggregates" the member communications:
    /// all arrays of the point travel in ONE message per neighbor per
    /// axis direction (verified by the `ablation_combine` bench, which
    /// counts real messages).
    ///
    /// With overlap enabled and this sync marked eligible, the *last*
    /// exchanged axis is posted nonblocking: sends complete at post
    /// (buffered), receives are left in flight for the following split
    /// nest to complete. Earlier axes still complete eagerly — their
    /// received corner layers widen the later axes' slabs.
    fn sync(&mut self, m: &mut Machine, frame: &Frame, spec: &SyncSpec) -> Result<(), RunError> {
        let mut gap = Instant::now();
        let me = self.comm.rank() as u32;
        let cut = self.plan.cut_axes();
        // the axis whose messages may stay in flight, with the split
        // geometry for the nest that will hide them
        let fly: Option<(usize, StmtId, LoopSplit)> = if self.overlap {
            self.plan.overlaps.get(&spec.id).map(|ov| {
                (
                    ov.axis,
                    ov.stmt,
                    LoopSplit {
                        var: ov.var.clone(),
                        low_width: ov.low_width,
                        high_width: ov.high_width,
                    },
                )
            })
        } else {
            None
        };
        let mut pending_recvs: Vec<PendingRecv> = Vec::new();
        // resolve ids/mappings once; per-array `done` widths track the
        // axes already exchanged (corner correctness)
        let mut ids = Vec::with_capacity(spec.arrays.len());
        let mut maps = Vec::with_capacity(spec.arrays.len());
        let mut done: Vec<Vec<[u64; 2]>> = Vec::with_capacity(spec.arrays.len());
        for sa in &spec.arrays {
            ids.push(self.array_id(frame, &sa.array)?);
            maps.push(self.dim_axis_of(&sa.array)?);
            done.push(vec![[0u64; 2]; sa.ghost.len()]);
        }
        for &axis in &cut {
            let in_flight = fly.as_ref().is_some_and(|&(a, _, _)| a == axis);
            // ---- sends: one aggregated message per neighbor direction
            for dir in [-1i32, 1] {
                let Some(nb) = self.plan.partition.neighbor(me, axis, dir) else {
                    continue;
                };
                let mut payload = Vec::new();
                for (ai, sa) in spec.arrays.iter().enumerate() {
                    let [gl, gh] = sa.ghost.get(axis).copied().unwrap_or([0, 0]);
                    // the neighbor in `dir` needs, from me, the layers it
                    // receives from its `-dir` side
                    let their_w = if dir > 0 { gl } else { gh };
                    if their_w == 0 {
                        continue;
                    }
                    if let Some(region) = ghost_region(
                        &self.plan.partition,
                        &m.array(ids[ai]).bounds,
                        &maps[ai],
                        nb,
                        axis,
                        -dir,
                        their_w,
                        &done[ai],
                    ) {
                        payload.extend(self.pack(m, ids[ai], &region));
                    }
                }
                if !payload.is_empty() {
                    let tag = tag_for(0, spec.id, 0, axis, -dir);
                    self.gap_send(&mut gap, nb as usize, tag, &payload)?;
                }
            }
            // ---- receives: split the aggregated message back apart
            for dir in [-1i32, 1] {
                let Some(nb) = self.plan.partition.neighbor(me, axis, dir) else {
                    continue;
                };
                // compute the regions first to know whether a message is
                // expected at all
                let mut regions: Vec<(usize, Vec<(i64, i64)>)> = Vec::new();
                for (ai, sa) in spec.arrays.iter().enumerate() {
                    let [gl, gh] = sa.ghost.get(axis).copied().unwrap_or([0, 0]);
                    let w = if dir < 0 { gl } else { gh };
                    if w == 0 {
                        continue;
                    }
                    if let Some(region) = ghost_region(
                        &self.plan.partition,
                        &m.array(ids[ai]).bounds,
                        &maps[ai],
                        me,
                        axis,
                        dir,
                        w,
                        &done[ai],
                    ) {
                        regions.push((ai, region));
                    }
                }
                if regions.is_empty() {
                    continue;
                }
                let tag = tag_for(0, spec.id, 0, axis, dir);
                if in_flight {
                    // leave the receive posted; the split nest (or the
                    // next hook call) waits for and unpacks it
                    let req = self.comm.irecv(nb as usize, tag);
                    pending_recvs.push(PendingRecv {
                        req,
                        regions: regions
                            .into_iter()
                            .map(|(ai, region)| (ids[ai], region))
                            .collect(),
                    });
                    continue;
                }
                let data = self.gap_recv(&mut gap, nb as usize, tag)?;
                let mut off = 0usize;
                for (ai, region) in regions {
                    let len = region_len(&region) as usize;
                    let slice = data.get(off..off + len).ok_or_else(|| {
                        RunError::new("aggregated halo payload shorter than regions")
                    })?;
                    self.unpack(m, ids[ai], &region, slice)?;
                    off += len;
                }
                if off != data.len() {
                    return Err(RunError::new("aggregated halo payload longer than regions"));
                }
            }
            for (ai, sa) in spec.arrays.iter().enumerate() {
                done[ai][axis] = sa.ghost.get(axis).copied().unwrap_or([0, 0]);
            }
        }
        if !pending_recvs.is_empty() {
            let (_, stmt, split) = fly.expect("in-flight receives imply an overlap spec");
            self.pending = Some(PendingOverlap {
                stmt,
                split,
                recvs: pending_recvs,
            });
        }
        self.gap_end(gap);
        Ok(())
    }

    /// Mirror-image `pre`: ship old boundary values, then block on the
    /// pipeline (updated values from upstream).
    fn pre(&self, m: &mut Machine, frame: &Frame, spec: &SelfLoopSpec) -> Result<(), RunError> {
        let mut gap = Instant::now();
        let me = self.comm.rank() as u32;
        // 1) all old-value sends (captured before any modification)
        for (ai, sa) in spec.arrays.iter().enumerate() {
            let id = self.array_id(frame, &sa.array)?;
            let dim_axis = self.dim_axis_of(&sa.array)?;
            for step in &sa.mirror {
                // data flows opposite to `step.dir`: I serve the neighbor
                // on my -dir side, which receives from its `dir` side.
                if let Some(nb) = self.plan.partition.neighbor(me, step.axis, -step.dir) {
                    if let Some(region) = ghost_region(
                        &self.plan.partition,
                        &m.array(id).bounds,
                        &dim_axis,
                        nb,
                        step.axis,
                        step.dir,
                        step.width,
                        &[],
                    ) {
                        let payload = self.pack(m, id, &region);
                        let tag = tag_for(1, spec.id, ai, step.axis, step.dir);
                        self.gap_send(&mut gap, nb as usize, tag, &payload)?;
                    }
                }
            }
        }
        // 2) old-value receives
        for (ai, sa) in spec.arrays.iter().enumerate() {
            let id = self.array_id(frame, &sa.array)?;
            let dim_axis = self.dim_axis_of(&sa.array)?;
            for step in &sa.mirror {
                if let Some(nb) = self.plan.partition.neighbor(me, step.axis, step.dir) {
                    if let Some(region) = ghost_region(
                        &self.plan.partition,
                        &m.array(id).bounds,
                        &dim_axis,
                        me,
                        step.axis,
                        step.dir,
                        step.width,
                        &[],
                    ) {
                        let tag = tag_for(1, spec.id, ai, step.axis, step.dir);
                        let data = self.gap_recv(&mut gap, nb as usize, tag)?;
                        self.unpack(m, id, &region, &data)?;
                    }
                }
            }
        }
        // 3) pipeline receives (updated values; serializes the sweep)
        for (ai, sa) in spec.arrays.iter().enumerate() {
            let id = self.array_id(frame, &sa.array)?;
            let dim_axis = self.dim_axis_of(&sa.array)?;
            for step in &sa.forward {
                if let Some(nb) = self.plan.partition.neighbor(me, step.axis, step.dir) {
                    if let Some(region) = ghost_region(
                        &self.plan.partition,
                        &m.array(id).bounds,
                        &dim_axis,
                        me,
                        step.axis,
                        step.dir,
                        step.width,
                        &[],
                    ) {
                        let tag = tag_for(2, spec.id, ai, step.axis, step.dir);
                        let data = self.gap_recv(&mut gap, nb as usize, tag)?;
                        self.unpack(m, id, &region, &data)?;
                    }
                }
            }
        }
        self.gap_end(gap);
        Ok(())
    }

    /// Mirror-image `post`: forward the freshly-updated boundary
    /// downstream (continuing the pipeline).
    fn post(&self, m: &mut Machine, frame: &Frame, spec: &SelfLoopSpec) -> Result<(), RunError> {
        let mut gap = Instant::now();
        let me = self.comm.rank() as u32;
        for (ai, sa) in spec.arrays.iter().enumerate() {
            let id = self.array_id(frame, &sa.array)?;
            let dim_axis = self.dim_axis_of(&sa.array)?;
            for step in &sa.forward {
                if let Some(nb) = self.plan.partition.neighbor(me, step.axis, -step.dir) {
                    if let Some(region) = ghost_region(
                        &self.plan.partition,
                        &m.array(id).bounds,
                        &dim_axis,
                        nb,
                        step.axis,
                        step.dir,
                        step.width,
                        &[],
                    ) {
                        let payload = self.pack(m, id, &region);
                        let tag = tag_for(2, spec.id, ai, step.axis, step.dir);
                        self.gap_send(&mut gap, nb as usize, tag, &payload)?;
                    }
                }
            }
        }
        self.gap_end(gap);
        Ok(())
    }

    /// Allgather: every rank broadcasts its owned region of each array so
    /// all ranks hold the complete field (inserted before `write`
    /// statements that print status-array elements).
    fn fill(
        &self,
        m: &mut Machine,
        frame: &Frame,
        id: u32,
        arrays: &[String],
    ) -> Result<(), RunError> {
        let me = self.comm.rank() as u32;
        let ranks = self.plan.ranks();
        if ranks <= 1 {
            return Ok(());
        }
        let mut gap = Instant::now();
        for (ai, array) in arrays.iter().enumerate() {
            let aid = self.array_id(frame, array)?;
            let dim_axis = self.dim_axis_of(array)?;
            // send my owned region to everyone
            if let Some(region) =
                owned_region(&self.plan.partition, &m.array(aid).bounds, &dim_axis, me)
            {
                let payload = self.pack(m, aid, &region);
                let tag = tag_for(3, id, ai, 0, 1);
                for peer in 0..ranks {
                    if peer != me {
                        self.gap_send(&mut gap, peer as usize, tag, &payload)?;
                    }
                }
            }
            // receive every peer's owned region
            for peer in 0..ranks {
                if peer == me {
                    continue;
                }
                if let Some(region) =
                    owned_region(&self.plan.partition, &m.array(aid).bounds, &dim_axis, peer)
                {
                    let tag = tag_for(3, id, ai, 0, 1);
                    let data = self.gap_recv(&mut gap, peer as usize, tag)?;
                    self.unpack(m, aid, &region, &data)?;
                }
            }
        }
        self.gap_end(gap);
        Ok(())
    }

    fn dim_axis_of(&self, array: &str) -> Result<Vec<Option<usize>>, RunError> {
        self.plan
            .dim_axis
            .get(array)
            .cloned()
            .ok_or_else(|| RunError::new(format!("no mapping for `{array}`")))
    }

    /// Record the compute gap since `*gap` (packing and region math
    /// between communication calls), send, and restart the gap clock.
    fn gap_send(
        &self,
        gap: &mut Instant,
        to: usize,
        tag: u64,
        payload: &[f64],
    ) -> Result<(), RunError> {
        self.comm
            .record_span(EventKind::Compute, *gap, Instant::now());
        let r = self
            .comm
            .send(to, tag, payload)
            .map_err(|e| RunError::new(e.to_string()));
        *gap = Instant::now();
        r
    }

    /// Record the compute gap since `*gap`, receive, and restart the gap
    /// clock.
    fn gap_recv(&self, gap: &mut Instant, from: usize, tag: u64) -> Result<Vec<f64>, RunError> {
        self.comm
            .record_span(EventKind::Compute, *gap, Instant::now());
        let r = self
            .comm
            .recv(from, tag)
            .map_err(|e| RunError::new(e.to_string()));
        *gap = Instant::now();
        r
    }

    /// Record the trailing compute gap of a communication handler.
    fn gap_end(&self, gap: Instant) {
        self.comm
            .record_span(EventKind::Compute, gap, Instant::now());
    }
}

/// The global index region (one inclusive `(lo, hi)` per array
/// dimension) of the ghost slab that `recv_rank` receives from direction
/// `dir` along `axis`, for an array with declared `bounds` and
/// dimension→axis map `dim_axis`. `done` gives the ghost widths of axes
/// already exchanged (corner correctness: the slab widens to cover ghost
/// layers filled by earlier axes). `None` when clipping against the
/// declared bounds empties the slab.
///
/// This is the single source of truth for halo-slab geometry: both the
/// live SPMD handlers and the traffic forecast ([`crate::forecast()`]) call
/// it, so predicted and measured payload sizes agree by construction.
#[allow(clippy::too_many_arguments)] // a slab is genuinely 7-dimensional
pub fn ghost_region(
    partition: &Partition,
    bounds: &[(i64, i64)],
    dim_axis: &[Option<usize>],
    recv_rank: u32,
    axis: usize,
    dir: i32,
    width: u64,
    done: &[[u64; 2]],
) -> Option<Vec<(i64, i64)>> {
    let sg = partition.subgrid(recv_rank);
    let mut region = Vec::with_capacity(bounds.len());
    for (d, &(blo, bhi)) in bounds.iter().enumerate() {
        let (lo, hi) = match dim_axis.get(d).copied().flatten() {
            Some(a) if a == axis => {
                let w = width as i64;
                if dir < 0 {
                    (sg.lo[a] as i64 - w, sg.lo[a] as i64 - 1)
                } else {
                    (sg.hi[a] as i64 + 1, sg.hi[a] as i64 + w)
                }
            }
            Some(a) => {
                let g = done.get(a).copied().unwrap_or([0, 0]);
                (sg.lo[a] as i64 - g[0] as i64, sg.hi[a] as i64 + g[1] as i64)
            }
            None => (blo, bhi), // packed dimension: full extent
        };
        let (lo, hi) = (lo.max(blo), hi.min(bhi));
        if hi < lo {
            return None;
        }
        region.push((lo, hi));
    }
    Some(region)
}

/// The region of an array that `rank` owns: its subgrid slice on
/// distributed dimensions, full declared extent on packed ones. `None`
/// when the rank's subgrid misses the declared bounds entirely. Shared by
/// the allgather fill, the owned-region verifier, and the traffic
/// forecast.
pub fn owned_region(
    partition: &Partition,
    bounds: &[(i64, i64)],
    dim_axis: &[Option<usize>],
    rank: u32,
) -> Option<Vec<(i64, i64)>> {
    let sg = partition.subgrid(rank);
    let mut region = Vec::with_capacity(bounds.len());
    for (d, &(blo, bhi)) in bounds.iter().enumerate() {
        let (lo, hi) = match dim_axis.get(d).copied().flatten() {
            Some(a) => ((sg.lo[a] as i64).max(blo), (sg.hi[a] as i64).min(bhi)),
            None => (blo, bhi),
        };
        if hi < lo {
            return None;
        }
        region.push((lo, hi));
    }
    Some(region)
}

/// Number of points in an inclusive region.
pub fn region_len(region: &[(i64, i64)]) -> u64 {
    region
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1) as u64)
        .product()
}

/// Odometer increment over inclusive ranges; false when exhausted.
fn advance(idx: &mut [i64], region: &[(i64, i64)]) -> bool {
    for d in 0..idx.len() {
        idx[d] += 1;
        if idx[d] <= region[d].1 {
            return true;
        }
        idx[d] = region[d].0;
    }
    false
}

/// Unique message tags: `kind` ∈ {0 sync, 1 mirror, 2 pipeline, 3 fill}.
fn tag_for(kind: u64, id: u32, array_idx: usize, axis: usize, dir: i32) -> u64 {
    let dirbit = u64::from(dir > 0);
    ((((kind * 1_000_000 + id as u64) * 64 + array_idx as u64) * 8 + axis as u64) * 2 + dirbit)
        + 1000
}

/// Everything a traced rank execution produces — statistics, phases, the
/// trace, and the journal epoch are returned even when the program
/// itself failed, so a partial trace can still be rendered and journaled
/// after a communication error.
#[derive(Debug)]
pub struct RankRun {
    /// The execution outcome: machine + final main-program frame, or the
    /// error that stopped the rank.
    pub outcome: Result<(Machine, Frame), RunError>,
    /// Communication statistics `(messages, f64 elements, barriers,
    /// reductions)`.
    pub comm_stats: (u64, u64, u64, u64),
    /// Wire-level counters from the transport.
    pub wire_stats: WireStats,
    /// Phase names in index order; `trace` events refer to these via
    /// their `phase` field.
    pub phases: Vec<String>,
    /// The rank's full trace: communication events *and* compute spans.
    pub trace: Vec<TraceEvent>,
    /// The communicator epoch as unix nanoseconds — journal headers
    /// carry it so the merger can align ranks that ran in different
    /// processes.
    pub epoch_unix_ns: i128,
}

impl RankRun {
    /// The completed rank's [`RankResult`], or the error that stopped it
    /// (dropping the partial trace a failed run still carries).
    pub fn into_result(self) -> Result<RankResult, RunError> {
        let (machine, frame) = self.outcome?;
        Ok(RankResult {
            machine,
            frame,
            comm_stats: self.comm_stats,
            wire_stats: self.wire_stats,
            phases: self.phases,
            trace: self.trace,
        })
    }
}

/// Every scalar bound in `frame`, by name, bit-exact.
fn scalar_snaps(frame: &Frame) -> Vec<(String, ScalarSnap)> {
    let mut scalars: Vec<(String, ScalarSnap)> = frame
        .scalars
        .iter()
        .map(|(name, v)| {
            let s = match *v {
                Value::Int(i) => ScalarSnap::Int(i),
                Value::Real(r) => ScalarSnap::Real(r.to_bits()),
                Value::Logical(b) => ScalarSnap::Logical(b),
            };
            (name.to_string(), s)
        })
        .collect();
    scalars.sort_by(|a, b| a.0.cmp(&b.0));
    scalars
}

/// Overwrite a freshly built main-program machine/frame with a
/// snapshot's state: common-block arrays, main-frame local arrays,
/// scalars, the I/O queues, and the op counters. Every array the
/// snapshot names must exist with identical bounds — the snapshot only
/// restores correctly into the *same* compiled program.
pub fn restore_into(m: &mut Machine, frame: &mut Frame, snap: &Snapshot) -> Result<(), RunError> {
    fn restore_array(arr: &mut ArrayVal, s: &ArraySnap, what: &str) -> Result<(), RunError> {
        if arr.bounds != s.bounds {
            return Err(RunError::new(format!(
                "checkpoint mismatch: {what} `{}` has bounds {:?}, snapshot has {:?}",
                s.name, arr.bounds, s.bounds
            )));
        }
        arr.data = s.data.iter().map(|&b| f64::from_bits(b)).collect();
        Ok(())
    }
    for (blk, name, s) in &snap.commons {
        let id = *m.commons.get(&(blk.clone(), name.clone())).ok_or_else(|| {
            RunError::new(format!(
                "checkpoint mismatch: common /{blk}/ `{name}` not in program"
            ))
        })?;
        restore_array(m.array_mut(id), s, "common array")?;
    }
    for s in &snap.arrays {
        let id = *frame.arrays.get(&s.name).ok_or_else(|| {
            RunError::new(format!(
                "checkpoint mismatch: array `{}` not in main program",
                s.name
            ))
        })?;
        restore_array(m.array_mut(id), s, "array")?;
    }
    for (name, s) in &snap.scalars {
        let v = match s {
            ScalarSnap::Int(i) => Value::Int(*i),
            ScalarSnap::Real(bits) => Value::Real(f64::from_bits(*bits)),
            ScalarSnap::Logical(b) => Value::Logical(*b),
            ScalarSnap::Str(_) => {
                return Err(RunError::new(format!(
                    "checkpoint mismatch: scalar `{name}` holds a character value"
                )))
            }
        };
        frame.set_scalar(name, v)?;
    }
    m.input = snap.input.iter().map(|&b| f64::from_bits(b)).collect();
    m.output = snap.output.clone();
    m.ops.flops = snap.ops.flops;
    m.ops.loads = snap.ops.loads;
    m.ops.stores = snap.ops.stores;
    m.ops.stmts = snap.ops.stmts;
    Ok(())
}

/// The full-featured rank runner: trace + statistics plus checkpointing
/// (`ckpt`), restart (`resume`), and an optional compiled-kernel set
/// (when `kernels` is `Some`, eligible comm-free loop nests execute as
/// compiled kernels, bit-exact with the tree walk).
///
/// With `resume` set, the program does not start from the top: the
/// machine is rebuilt, overwritten from the snapshot, and execution
/// re-enters the main body at the snapshot's cursor — the start of the
/// checkpoint-safe sync the snapshot was written at. Re-executing that
/// sync regenerates its exchange over the fresh connections, after
/// which the run is statement-for-statement identical to one that was
/// never interrupted (every rank must resume from the *same* epoch).
///
/// The [`crate::engine::RunConfig`] executors are the public way in;
/// this stays crate-internal so kernel compilation and resume have
/// exactly one surface.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rank_traced_impl(
    file: &SourceFile,
    plan: &SpmdPlan,
    input: Vec<f64>,
    stmt_limit: u64,
    comm: &Comm,
    overlap: bool,
    ckpt: Option<CheckpointOpts>,
    resume: Option<&Snapshot>,
    kernels: Option<&KernelSet>,
) -> RankRun {
    let mut hooks = SpmdHooks::new(plan, comm, overlap);
    hooks.ckpt = ckpt;
    let mut outcome = match resume {
        None => run_program(file, input, &mut hooks, stmt_limit, kernels),
        Some(snap) => {
            hooks.visits = snap.epoch;
            // After an elastic repartition the cursor may have been
            // translated to a *statement* (not a checkpoint sync call) of
            // the new plan; the first sync visit is then a genuinely new
            // visit, not the re-executed snapshot sync.
            hooks.resume_skip =
                plan.checkpoint_syncs.get(&snap.sync_id) == Some(&StmtId(snap.cursor.stmt));
            // the cursor only makes sense with tracking on; a resumed run
            // that doesn't checkpoint further still needs the machinery
            if hooks.ckpt.is_none() {
                hooks.ckpt = Some(CheckpointOpts {
                    every: 0,
                    dir: PathBuf::new(),
                    chaos_abort_after: None,
                });
            }
            run_program_from(
                file,
                input,
                &mut hooks,
                stmt_limit,
                Some((StmtId(snap.cursor.stmt), &snap.cursor.dos)),
                |m, frame| restore_into(m, frame, snap),
                kernels,
            )
        }
    };
    // Safety net: a program that ends with an exchange still in flight
    // (its overlapped nest never ran) completes it here so receive
    // counters and traces stay consistent with blocking mode.
    if let Ok((m, _)) = &mut outcome {
        if let Err(e) = hooks.complete_pending(m) {
            outcome = Err(e);
        }
    } else {
        hooks.pending = None;
    }
    RankRun {
        outcome,
        comm_stats: comm.stats().snapshot(),
        wire_stats: comm.wire_stats(),
        phases: comm.phase_names(),
        trace: comm.take_trace(),
        epoch_unix_ns: autocfd_runtime::epoch_unix_ns(comm.epoch()),
    }
}

/// Verify that a *single* rank's owned region of every status array
/// equals the sequential run's values within `tol`. Returns the maximum
/// absolute difference observed on that rank. Multi-process workers use
/// this to check their own slice without shipping whole machines around.
pub fn verify_rank_owned_region(
    seq: &(Machine, Frame),
    rr: &RankResult,
    rank: usize,
    plan: &SpmdPlan,
    tol: f64,
) -> Result<f64, String> {
    let mut max_diff = 0.0f64;
    for (array, dim_axis) in &plan.dim_axis {
        let seq_id = match seq.1.arrays.get(array) {
            Some(id) => *id,
            None => continue, // not bound in main (e.g. subroutine-local)
        };
        let seq_arr = seq.0.array(seq_id);
        let par_id = rr
            .frame
            .arrays
            .get(array)
            .ok_or_else(|| format!("rank {rank}: array `{array}` missing"))?;
        let par_arr = rr.machine.array(*par_id);
        // iterate the rank's owned region (full extent on packed dims)
        let Some(region) = owned_region(&plan.partition, &seq_arr.bounds, dim_axis, rank as u32)
        else {
            continue;
        };
        let mut idx: Vec<i64> = region.iter().map(|&(lo, _)| lo).collect();
        loop {
            let s = seq_arr.get(&idx).map_err(|e| e.to_string())?;
            let p = par_arr.get(&idx).map_err(|e| e.to_string())?;
            let d = (s - p).abs();
            if d > max_diff {
                max_diff = d;
            }
            if d > tol {
                return Err(format!(
                    "array `{array}` rank {rank} at {idx:?}: sequential {s} vs parallel {p}"
                ));
            }
            if !advance(&mut idx, &region) {
                break;
            }
        }
    }
    Ok(max_diff)
}

/// Verify that every rank's *owned* region of every status array equals
/// the sequential run's values within `tol`. Returns the maximum absolute
/// difference observed.
pub fn verify_owned_regions(
    seq: &(Machine, Frame),
    par: &[RankResult],
    plan: &SpmdPlan,
    tol: f64,
) -> Result<f64, String> {
    let mut max_diff = 0.0f64;
    for (r, rr) in par.iter().enumerate() {
        let d = verify_rank_owned_region(seq, rr, r, plan, tol)?;
        if d > max_diff {
            max_diff = d;
        }
    }
    Ok(max_diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{build_frame, Names};
    use std::sync::Arc;

    /// The main frame of `src` and its machine, freshly built.
    fn main_frame(src: &str) -> (Machine, Frame) {
        let file = autocfd_fortran::parse(src).unwrap();
        let main = file.main_unit().unwrap();
        let mut m = Machine::default();
        let frame = build_frame(&mut m, main, &Arc::new(Names::of(main)), Vec::new()).unwrap();
        (m, frame)
    }

    fn snapshot_of(scalars: Vec<(String, ScalarSnap)>) -> Snapshot {
        Snapshot {
            rank: 0,
            ranks: 1,
            parts: vec![1],
            epoch: 1,
            sync_id: 0,
            cursor: Cursor {
                stmt: 0,
                dos: Vec::new(),
            },
            cut: None,
            arrays: Vec::new(),
            commons: Vec::new(),
            scalars,
            input: Vec::new(),
            output: Vec::new(),
            ops: OpsSnap::default(),
        }
    }

    const SRC: &str = "      program p\n      x = 1.5\n      y = 2.0\n      end\n";

    #[test]
    fn unmentioned_hook_scalar_survives_snapshot_and_restore() {
        // the rank's init hook sets bounds of every axis; a unit that
        // never mentions one keeps it beside its slots (implicitly real)
        let (_, mut frame) = main_frame(SRC);
        frame.set_scalar("acfhi2", Value::Int(7)).unwrap();
        frame.set_scalar("x", Value::Real(1.5)).unwrap();
        let snaps = scalar_snaps(&frame);
        assert_eq!(
            snaps,
            vec![
                ("acfhi2".to_string(), ScalarSnap::Real(7f64.to_bits())),
                ("x".to_string(), ScalarSnap::Real(1.5f64.to_bits())),
            ]
        );
        let (mut m, mut fresh) = main_frame(SRC);
        restore_into(&mut m, &mut fresh, &snapshot_of(snaps.clone())).unwrap();
        assert_eq!(fresh.get_scalar("acfhi2"), Value::Real(7.0));
        assert_eq!(scalar_snaps(&fresh), snaps);
    }

    #[test]
    fn restore_refuses_a_character_scalar() {
        let (mut m, mut frame) = main_frame(SRC);
        let snap = snapshot_of(vec![("x".into(), ScalarSnap::Str("abc".into()))]);
        let e = restore_into(&mut m, &mut frame, &snap).unwrap_err();
        assert_eq!(
            e.to_string(),
            "runtime error: checkpoint mismatch: scalar `x` holds a character value"
        );
    }

    #[test]
    fn advance_odometer() {
        let region = [(1i64, 2), (5, 6)];
        let mut idx = vec![1i64, 5];
        let mut seen = vec![idx.clone()];
        while advance(&mut idx, &region) {
            seen.push(idx.clone());
        }
        assert_eq!(
            seen,
            vec![vec![1, 5], vec![2, 5], vec![1, 6], vec![2, 6]],
            "first index varies fastest (column-major order)"
        );
    }

    #[test]
    fn tags_unique() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        for kind in 0..4u64 {
            for id in 0..4u32 {
                for ai in 0..3usize {
                    for axis in 0..3usize {
                        for dir in [-1, 1] {
                            assert!(set.insert(tag_for(kind, id, ai, axis, dir)));
                        }
                    }
                }
            }
        }
    }
}
