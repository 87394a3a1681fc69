//! Elastic repartitioning: re-decompose a consistent checkpoint cut
//! onto a different rank count.
//!
//! PR 4's snapshots are cut at checkpoint-safe syncs, where no message
//! is in flight anywhere in the mesh — so the only rank-count-specific
//! state they carry is *geometry*: which slice of each globally-indexed
//! array the rank owns, and the `acflo<a>`/`acfhi<a>` subgrid-bound
//! scalars `acf_init` seeded. Everything else (the loop cursor, the
//! reduced convergence scalars, the I/O queues) is identical on every
//! rank of the cut.
//!
//! [`repartition`] exploits that:
//!
//! 1. **Regather** — for every status array, stitch the true global
//!    field by copying each old rank's *owned region* (the same
//!    [`crate::spmd::owned_region`] geometry the live handlers and the
//!    traffic forecast use) out of its snapshot into one full-size
//!    buffer. Owned regions tile the distributed extents, so the stitch
//!    covers every point some rank owns; points outside (boundary
//!    layers on packed dimensions) agree on all ranks and come from
//!    rank 0's copy.
//! 2. **Scatter** — give every new rank the full stitched field (every
//!    rank holds full-size globally-indexed arrays, so scatter is a
//!    whole-array copy) and rewrite its `acflo<a>`/`acfhi<a>` scalars
//!    from the *new* partition's subgrid. Ghost values need no special
//!    handling: a resumed run re-executes the cut sync, which exchanges
//!    every ghost slab the downstream statements read (any ghost cell
//!    read *without* an intervening sync was last synced before the
//!    cut, and its owner cannot have rewritten it since — otherwise the
//!    dependence analysis would have placed a sync — so the stitched
//!    owner value it now holds is the value the stale copy had).
//!
//! 3. **Cursor translation** — the snapshot cursor names the *plan's*
//!    statement id of the cut sync call, and sync ids and inserted
//!    statement ids are partition-specific (different cut axes produce
//!    different sync sets). What IS stable across partitions are the
//!    *source* statement ids the parser minted, so each snapshot also
//!    carries its [`CutSite`]: which source statement list the cut gap
//!    sits in and how many source statements precede it. The target
//!    plan's [`SpmdPlan::checkpoint_sites`] inverts that: same sync id
//!    at the same site keeps the cut verbatim (the `M == N` identity
//!    path); a different sync at the same site re-enters there
//!    (re-executing a sync post-scatter is a no-op — every ghost
//!    already holds its owner's value); and a site with no target-plan
//!    sync at all re-enters at the first statement after the gap
//!    (skipping an exchange is equally a no-op, for the same reason).
//!
//! The result is a set of snapshots indistinguishable from a cut taken
//! by an uninterrupted run on the new partition, which is why `acfc
//! resume --ranks M` holds bit-exact against such a run.

use autocfd_codegen::{CutSite, SpmdPlan};
use autocfd_fortran::ast::{SourceFile, Stmt, StmtId, StmtKind};
use autocfd_grid::{partition, Partition, PartitionSpec};
use autocfd_runtime::checkpoint::{copy_region, ArraySnap, Cursor, ScalarSnap, Snapshot};

use crate::spmd::owned_region;

/// Reconstruct the partition a set of snapshots was cut for, on the
/// grid shape of the target `plan` (the grid directive is part of the
/// source, so old and new runs share it).
fn source_partition(snaps: &[Snapshot], plan: &SpmdPlan) -> Result<Partition, String> {
    let parts = &snaps[0].parts;
    if parts.is_empty() {
        return Err(
            "snapshots record no partition geometry (`parts` is empty): \
             they can resume on their original rank count but not repartition"
                .to_string(),
        );
    }
    let shape = &plan.partition.shape;
    if parts.len() != shape.extents.len() {
        return Err(format!(
            "snapshot partition {:?} has {} axes but the grid has {}",
            parts,
            parts.len(),
            shape.extents.len()
        ));
    }
    let tasks: u64 = parts.iter().map(|&p| u64::from(p)).product();
    if tasks as usize != snaps.len() {
        return Err(format!(
            "snapshot partition {:?} implies {tasks} ranks but the epoch has {}",
            parts,
            snaps.len()
        ));
    }
    for (a, (&p, &e)) in parts.iter().zip(&shape.extents).enumerate() {
        if u64::from(p) > e {
            return Err(format!(
                "snapshot partition {parts:?} axis {a} splits {e} points into {p} parts"
            ));
        }
    }
    Ok(partition(shape, &PartitionSpec::new(parts)))
}

/// Find a statement by parser-minted id anywhere under `list`.
fn find_stmt(list: &[Stmt], id: u32) -> Option<&Stmt> {
    for s in list {
        if s.id.0 == id {
            return Some(s);
        }
        for body in s.child_bodies() {
            if let Some(f) = find_stmt(body, id) {
                return Some(f);
            }
        }
    }
    None
}

/// Resolve a cut site's owning statement list in the target plan's
/// (transformed) main unit. Source nesting is identical across plans —
/// restructuring only inserts `acf_*` calls — so the owning statement
/// exists with the same id and the same arm structure.
fn cut_list<'a>(main_body: &'a [Stmt], cut: &CutSite) -> Result<&'a [Stmt], String> {
    if cut.list_kind == 0 {
        return Ok(main_body);
    }
    let owner = find_stmt(main_body, cut.list_stmt).ok_or_else(|| {
        format!(
            "cut site: owning statement {} is not in the main unit",
            cut.list_stmt
        )
    })?;
    let err = || {
        format!(
            "cut site: statement {} does not own a kind-{} list",
            cut.list_stmt, cut.list_kind
        )
    };
    match (&owner.kind, cut.list_kind) {
        (StmtKind::Do { body, .. }, 1) | (StmtKind::DoWhile { body, .. }, 1) => Ok(body.as_slice()),
        (StmtKind::If { then, .. }, 2) => Ok(then.as_slice()),
        (StmtKind::If { else_ifs, .. }, 3) => else_ifs
            .get(cut.arm as usize)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(err),
        (StmtKind::If { els, .. }, 4) => els.as_deref().ok_or_else(err),
        _ => Err(err()),
    }
}

/// The statement a cursor anchored `gap` source statements into `list`
/// re-enters when the target plan has no sync call in that gap: the
/// gap's own `acf_fill`/`acf_pre` prologue if present, else the source
/// statement itself. Trailing calls of the *previous* gap (`acf_post`,
/// reduces) and stray sync calls are stepped over — they already ran
/// before the cut, respectively exchange data every rank already holds.
fn first_after_gap(list: &[Stmt], gap: u64) -> Option<StmtId> {
    let mut seen = 0u64;
    for s in list {
        let inserted = match &s.kind {
            StmtKind::Call { name, .. } => name.starts_with("acf_"),
            _ => false,
        };
        if seen >= gap {
            if !inserted {
                return Some(s.id);
            }
            if let StmtKind::Call { name, .. } = &s.kind {
                if name.starts_with("acf_fill_") || name.starts_with("acf_pre_") {
                    return Some(s.id);
                }
            }
        } else if !inserted {
            seen += 1;
        }
    }
    None
}

/// Map the cut's `(sync id, cursor statement)` onto the target plan via
/// the recorded source-coordinate [`CutSite`].
fn translate_cursor(
    first: &Snapshot,
    plan: &SpmdPlan,
    file: &SourceFile,
) -> Result<(u32, u32), String> {
    let cut = first.cut.ok_or_else(|| {
        "snapshots record no cut site: \
         they can resume on their original rank count but not repartition"
            .to_string()
    })?;
    let site = CutSite {
        list_kind: cut.list_kind,
        list_stmt: cut.list_stmt,
        arm: cut.arm,
        gap: cut.gap,
    };
    // The same sync id anchoring the same source gap: keep the cut
    // verbatim (this is the M == N identity path).
    if plan.checkpoint_sites.get(&first.sync_id) == Some(&site) {
        return Ok((first.sync_id, plan.checkpoint_syncs[&first.sync_id].0));
    }
    // A different sync of the target plan sits in the same gap: re-enter
    // at it.
    if let Some((&id, _)) = plan.checkpoint_sites.iter().find(|&(_, s)| *s == site) {
        return Ok((id, plan.checkpoint_syncs[&id].0));
    }
    // The target plan has no sync in this gap at all: re-enter at the
    // first statement after it.
    let main = file
        .main_unit()
        .ok_or_else(|| "cut site: parallel program has no main unit".to_string())?;
    let list = cut_list(&main.body, &site)?;
    let stmt = first_after_gap(list, site.gap).ok_or_else(|| {
        format!(
            "cut site: gap {} is past the end of its statement list in the target plan",
            cut.gap
        )
    })?;
    Ok((first.sync_id, stmt.0))
}

/// Stitch the global field of one array from every old rank's owned
/// region. `pick` selects the array's snapshot on a given rank.
fn stitch<'a>(
    snaps: &'a [Snapshot],
    old: &Partition,
    dim_axis: Option<&[Option<usize>]>,
    what: &str,
    pick: impl Fn(&'a Snapshot) -> Option<&'a ArraySnap>,
) -> Result<ArraySnap, String> {
    let first = pick(&snaps[0]).ok_or_else(|| format!("{what}: missing on rank 0"))?;
    let mut global = first.clone();
    // Arrays without a dimension→axis mapping are not distributed:
    // every rank executed the same statements on them, rank 0's copy
    // *is* the global field.
    let Some(axes) = dim_axis else {
        return Ok(global);
    };
    for (r, snap) in snaps.iter().enumerate() {
        let arr = pick(snap).ok_or_else(|| format!("{what}: missing on rank {r}"))?;
        if arr.bounds != first.bounds || arr.is_int != first.is_int {
            return Err(format!(
                "{what}: rank {r} declares bounds {:?}, rank 0 declares {:?}",
                arr.bounds, first.bounds
            ));
        }
        let Some(region) = owned_region(old, &arr.bounds, axes, r as u32) else {
            continue; // this rank's subgrid misses the array entirely
        };
        copy_region(&arr.bounds, &region, &arr.data, &mut global.data)
            .map_err(|e| format!("{what}: {e}"))?;
    }
    Ok(global)
}

/// Re-decompose the consistent cut `snaps` (one snapshot per old rank,
/// as returned by [`autocfd_runtime::checkpoint::load_epoch`]) onto the
/// partition of `plan`, producing one snapshot per new rank. The old
/// geometry comes from the snapshots themselves (recorded since schema
/// 2); the new geometry — partition, dimension→axis mapping, and the
/// transformed AST `file` the cursor is translated against — from the
/// target compile, which must be of the same source (same grid
/// directive, same status arrays).
///
/// At `M == N` with the same parts this is the identity on every owned
/// region, scalar (the subgrid bounds are recomputed to the same
/// values), cursor, and I/O queue — property-tested on both case
/// studies.
pub fn repartition(
    snaps: &[Snapshot],
    plan: &SpmdPlan,
    file: &SourceFile,
) -> Result<Vec<Snapshot>, String> {
    if snaps.is_empty() {
        return Err("repartition: no snapshots".to_string());
    }
    let first = &snaps[0];
    for (r, s) in snaps.iter().enumerate() {
        if s.rank != r || s.ranks != snaps.len() {
            return Err(format!(
                "repartition: slot {r} holds rank {}/{}",
                s.rank, s.ranks
            ));
        }
        if s.epoch != first.epoch || s.sync_id != first.sync_id || s.cursor != first.cursor {
            return Err(format!("repartition: rank {r} is from a different cut"));
        }
        if s.parts != first.parts {
            return Err(format!("repartition: rank {r} has different geometry"));
        }
    }
    let old = source_partition(snaps, plan)?;
    let (sync_id, cursor_stmt) = translate_cursor(first, plan, file)?;
    let new = &plan.partition;
    let m = plan.ranks() as usize;

    // ---- regather: one global stitch per array and common member
    let axes_of = |name: &str| plan.dim_axis.get(name).map(Vec::as_slice);
    let arrays: Vec<ArraySnap> = first
        .arrays
        .iter()
        .map(|a| {
            stitch(
                snaps,
                &old,
                axes_of(&a.name),
                &format!("array `{}`", a.name),
                |s| s.arrays.iter().find(|x| x.name == a.name),
            )
        })
        .collect::<Result<_, _>>()?;
    let commons: Vec<(String, String, ArraySnap)> = first
        .commons
        .iter()
        .map(|(blk, name, _)| {
            let stitched = stitch(
                snaps,
                &old,
                axes_of(name),
                &format!("common /{blk}/ `{name}`"),
                |s| {
                    s.commons
                        .iter()
                        .find(|(b, n, _)| b == blk && n == name)
                        .map(|(_, _, a)| a)
                },
            )?;
            Ok::<_, String>((blk.clone(), name.clone(), stitched))
        })
        .collect::<Result<_, _>>()?;

    // ---- scatter: every new rank gets the full global field plus its
    // own subgrid-bound scalars
    let out = (0..m)
        .map(|rank| {
            let sg = new.subgrid(rank as u32);
            let mut scalars = first.scalars.clone();
            for a in 0..sg.lo.len() {
                for (name, val) in [
                    (format!("acflo{}", a + 1), sg.lo[a] as i64),
                    (format!("acfhi{}", a + 1), sg.hi[a] as i64),
                ] {
                    match scalars.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, v)) => *v = ScalarSnap::Int(val),
                        None => scalars.push((name, ScalarSnap::Int(val))),
                    }
                }
            }
            scalars.sort_by(|a, b| a.0.cmp(&b.0));
            Snapshot {
                rank,
                ranks: m,
                parts: new.spec.parts.clone(),
                epoch: first.epoch,
                sync_id,
                cursor: Cursor {
                    stmt: cursor_stmt,
                    dos: first.cursor.dos.clone(),
                },
                cut: first.cut,
                arrays: arrays.clone(),
                commons: commons.clone(),
                scalars,
                input: first.input.clone(),
                output: first.output.clone(),
                ops: first.ops,
            }
        })
        .collect();
    Ok(out)
}
