//! The executable SPMD plan: what each `acf_*` call must do.

use autocfd_fortran::ast::StmtId;
use autocfd_grid::Partition;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use autocfd_depend::PipeStep;

/// Ghost requirements of one array at a synchronization point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncArray {
    /// Array name.
    pub array: String,
    /// Per grid axis `[from_lower, from_upper]` ghost layers to receive.
    pub ghost: Vec<[u64; 2]>,
}

/// One combined synchronization point (a halo exchange of one or more
/// arrays).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncSpec {
    /// Plan-unique id; the generated call is `acf_sync_<id>`.
    pub id: u32,
    /// Arrays to exchange, with ghost widths.
    pub arrays: Vec<SyncArray>,
    /// How many upper-bound regions were merged here (reporting).
    pub merged: usize,
}

/// The mirror-image schedule of one array within a self-dependent loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelfArraySpec {
    /// Array name.
    pub array: String,
    /// Forward-subgraph obligations: receive *updated* slabs before
    /// computing (pipeline; `dir` is the source direction).
    pub forward: Vec<PipeStep>,
    /// Mirror-subgraph obligations: receive *old* (pre-sweep) slabs.
    pub mirror: Vec<PipeStep>,
}

/// One self-dependent field loop with its decomposition schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelfLoopSpec {
    /// Plan-unique id; the generated calls are `acf_pre_<id>` and
    /// `acf_post_<id>`.
    pub id: u32,
    /// Per-array schedules.
    pub arrays: Vec<SelfArraySpec>,
}

/// A recognized reduction to make global after a localized field loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReduceSpec {
    /// Scalar variable name.
    pub var: String,
    /// `"max"`, `"min"` or `"sum"` — the generated call is
    /// `acf_reduce_<op>_<var>`.
    pub op: String,
}

/// Compute/communication overlap opportunity at one synchronization
/// point: the loop nest immediately after the `acf_sync_<id>` call may
/// run its interior (cells whose stencil stays inside the rank's owned
/// region on the overlapped axis) while the last-axis halo exchange is
/// in flight, then complete the receives and run the two boundary
/// strips. Emitted only for nests the restructurer proved safe to
/// split: perfect prefix down to the overlapped loop, unit step, no
/// scalar writes, written arrays disjoint from read and synced arrays,
/// and no cross-loop bound dependences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlapSpec {
    /// The top `do` statement of the nest that immediately follows the
    /// sync call (statement ids survive restructuring).
    pub stmt: StmtId,
    /// Loop variable of the nest loop iterating the overlapped axis;
    /// the interior/boundary split clamps this variable's range.
    pub var: String,
    /// The overlapped grid axis: the *last* cut axis the sync
    /// exchanges. Earlier axes complete eagerly because later axes'
    /// sends include corner data received from them.
    pub axis: usize,
    /// Boundary width at the low end of the loop range (max ghost
    /// layers any synced array receives from the lower neighbor).
    pub low_width: u64,
    /// Boundary width at the high end (max upper ghost layers).
    pub high_width: u64,
}

/// Compatibility shim: the one execution engine, named by the benchmark
/// crate's `CompileOptions`/`SpmdPlan` literals. Every run executes
/// eligible comm-free loop nests as compiled kernels and tree-walks the
/// rest; nothing reads this value. Removed with ROADMAP item 1's
/// `[benchmark]` PR.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EnginePref {
    /// The compiled-kernel executor (the only one).
    #[default]
    Kernel,
}

/// Plan-independent source coordinates of a sync insertion gap: which
/// statement list of the main unit it sits in (identified by the
/// *parser-minted* id of the owning `do`/`if` statement, stable across
/// partitions) and the source-statement gap index within that list.
/// Mirrors the runtime checkpoint schema's cut-site record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CutSite {
    /// List discriminant: 0 = unit body, 1 = `do` body, 2 = `then` arm,
    /// 3 = `else if` arm, 4 = `else` arm.
    pub list_kind: u8,
    /// Source id of the statement owning the list (0 for the unit body).
    pub list_stmt: u32,
    /// `else if` arm ordinal (0 otherwise).
    pub arm: u32,
    /// Source-statement gap index within the list.
    pub gap: u64,
}

/// Everything the SPMD hook set needs at run time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmdPlan {
    /// The grid partition (per-rank subgrid bounds, neighbors).
    pub partition: Partition,
    /// Status-array dimension→axis mappings (needed to slice slabs out of
    /// arbitrary-rank arrays), keyed by array name.
    pub dim_axis: BTreeMap<String, Vec<Option<usize>>>,
    /// Synchronization points by id.
    pub syncs: BTreeMap<u32, SyncSpec>,
    /// Overlap opportunities by sync id (subset of `syncs`): halo
    /// exchanges whose following loop nest can hide the last-axis
    /// exchange behind interior computation.
    pub overlaps: BTreeMap<u32, OverlapSpec>,
    /// Self-dependent loops by id.
    pub self_loops: BTreeMap<u32, SelfLoopSpec>,
    /// Reductions (also encoded in the call names; kept for reporting).
    pub reduces: Vec<ReduceSpec>,
    /// Output fills by id: before a `write` that references status-array
    /// elements, `acf_fill_<id>` allgathers the listed arrays so every
    /// rank holds the complete field (ranks otherwise only own their
    /// subgrid).
    pub fills: BTreeMap<u32, Vec<String>>,
    /// Checkpoint-safe synchronization points: sync id → the id of its
    /// `call acf_sync_<id>` statement *in the main program unit*. At the
    /// start of such a call every rank has drained its pending requests
    /// (the hook set completes in-flight receives before dispatching any
    /// sync) and the control stack is just the main unit, so the
    /// interpreter state is fully restorable from a per-rank snapshot.
    /// Syncs hoisted into subroutines are excluded — their call-stack
    /// context cannot be re-entered from a flat cursor.
    pub checkpoint_syncs: BTreeMap<u32, StmtId>,
    /// Source coordinates of each checkpoint-safe sync's insertion gap
    /// (same keys as [`SpmdPlan::checkpoint_syncs`]). Statement ids in
    /// here are *parser-minted* — stable across compiles of the same
    /// source regardless of partition — so an elastic resume can map a
    /// cut taken under one partition onto this plan's statement ids.
    /// Empty on plan artifacts that predate elastic resume.
    #[serde(default)]
    pub checkpoint_sites: BTreeMap<u32, CutSite>,
    /// Table-1 statistics carried through from the sync plan.
    pub sync_before: u64,
    /// See [`SpmdPlan::sync_before`].
    pub sync_after: u64,
    /// Compatibility shim, neither serialized nor read. Removed with
    /// ROADMAP item 1's `[benchmark]` PR.
    #[doc(hidden)]
    pub engine: EnginePref,
    /// Worker threads per rank for the compiled kernels' interior split
    /// (1 = sequential kernels).
    pub threads: u32,
    /// Statement ids of outermost comm-free loop nests in the
    /// *transformed* program that the kernel compiler proved eligible.
    /// Runs compile exactly these; an empty list means "discover at
    /// load time".
    pub kernel_nests: Vec<StmtId>,
}

impl SpmdPlan {
    /// Number of ranks the plan targets.
    pub fn ranks(&self) -> u32 {
        self.partition.spec.tasks()
    }

    /// Axes with more than one part.
    pub fn cut_axes(&self) -> Vec<usize> {
        self.partition
            .spec
            .parts
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 1)
            .map(|(a, _)| a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_grid::{partition, GridShape, PartitionSpec};

    #[test]
    fn cut_axes_from_spec() {
        let p = partition(&GridShape::d3(40, 40, 10), &PartitionSpec::new(&[2, 1, 2]));
        let plan = SpmdPlan {
            partition: p,
            dim_axis: BTreeMap::new(),
            syncs: BTreeMap::new(),
            overlaps: BTreeMap::new(),
            self_loops: BTreeMap::new(),
            reduces: vec![],
            fills: BTreeMap::new(),
            checkpoint_syncs: BTreeMap::new(),
            checkpoint_sites: BTreeMap::new(),
            sync_before: 0,
            sync_after: 0,
            engine: Default::default(),
            threads: 1,
            kernel_nests: vec![],
        };
        assert_eq!(plan.cut_axes(), vec![0, 2]);
        assert_eq!(plan.ranks(), 4);
    }

    #[test]
    fn plan_serializes() {
        let p = partition(&GridShape::d2(10, 10), &PartitionSpec::new(&[2, 1]));
        let plan = SpmdPlan {
            partition: p,
            dim_axis: BTreeMap::from([("v".into(), vec![Some(0), Some(1)])]),
            syncs: BTreeMap::from([(
                0,
                SyncSpec {
                    id: 0,
                    arrays: vec![SyncArray {
                        array: "v".into(),
                        ghost: vec![[1, 1], [0, 0]],
                    }],
                    merged: 2,
                },
            )]),
            overlaps: BTreeMap::from([(
                0,
                OverlapSpec {
                    stmt: StmtId(7),
                    var: "i".into(),
                    axis: 0,
                    low_width: 1,
                    high_width: 1,
                },
            )]),
            self_loops: BTreeMap::new(),
            reduces: vec![ReduceSpec {
                var: "err".into(),
                op: "max".into(),
            }],
            fills: BTreeMap::new(),
            checkpoint_syncs: BTreeMap::from([(0, StmtId(3))]),
            checkpoint_sites: BTreeMap::from([(
                0,
                CutSite {
                    list_kind: 1,
                    list_stmt: 2,
                    arm: 0,
                    gap: 1,
                },
            )]),
            sync_before: 5,
            sync_after: 1,
            engine: Default::default(),
            threads: 4,
            kernel_nests: vec![StmtId(7)],
        };
        let dbg = format!("{plan:?}");
        assert!(dbg.contains("err"));
        assert!(dbg.contains("SyncSpec"));
    }
}
