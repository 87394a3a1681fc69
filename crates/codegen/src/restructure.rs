//! The restructuring pass: sequential AST → parallel SPMD AST + plan.

use crate::analyze::{detect_reductions, loop_axis, ReduceOpKind};
use crate::plan::{
    OverlapSpec, ReduceSpec, SelfArraySpec, SelfLoopSpec, SpmdPlan, SyncArray, SyncSpec,
};
use autocfd_depend::{loop_stencil, mirror_decompose, DecomposeError};
use autocfd_fortran::ast::{Expr, SourceFile, Stmt, StmtId, StmtKind, Unit};
use autocfd_fortran::BinOp;
use autocfd_grid::Partition;
use autocfd_ir::{LoopId, ProgramIr, UnitIr};
use autocfd_syncopt::{ListKey, SyncPlan, SyncPoint};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Why a program cannot be restructured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// A self-dependent loop with undecodable accesses.
    OpaqueSelfDependence {
        /// Unit name.
        unit: String,
        /// Source line of the loop.
        line: u32,
    },
    /// A self-dependent loop crosses a cut axis along which its nest is
    /// not localized (the loop over that axis has a step that does not
    /// fold to a constant, or no loop spans that axis alone): its sweep
    /// direction is unknown and it would run over the whole grid on every
    /// rank.
    UnlocalizedSweep {
        /// Unit name.
        unit: String,
        /// Source line of the unlocalized loop.
        line: u32,
        /// Its loop variable.
        var: String,
    },
    /// A self-dependent loop nest sweeps a cut axis in both directions
    /// (e.g. a forward and a backward substitution in one nest): one
    /// pipeline direction cannot serve both sweeps.
    OpposedSweeps {
        /// Unit name.
        unit: String,
        /// Source line of the first loop running against the nest's first
        /// sweep over that axis.
        line: u32,
        /// Its loop variable.
        var: String,
    },
    /// A sum reduction in a loop nest not localized on every cut axis
    /// (the partial sums would double-count).
    UnlocalizedSum {
        /// Unit name.
        unit: String,
        /// The reduced variable.
        var: String,
    },
    /// A status array is read at a fixed (constant or scalar) subscript
    /// on a cut axis outside boundary code or output statements: the
    /// value is only correct on the owning rank, so other ranks would
    /// silently compute with stale data.
    RemoteConstantRead {
        /// Unit name.
        unit: String,
        /// Source line of the read.
        line: u32,
        /// The array read.
        array: String,
    },
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::OpaqueSelfDependence { unit, line } => write!(
                f,
                "cannot parallelize self-dependent loop with undecodable subscripts \
                 (unit `{unit}`, line {line})"
            ),
            TransformError::UnlocalizedSweep { unit, line, var } => write!(
                f,
                "cannot parallelize self-dependent loop: the `{var}` loop crosses a \
                 partition cut but is not localized, so its sweep direction is unknown \
                 (unit `{unit}`, line {line}); give it a literal or `parameter` step"
            ),
            TransformError::OpposedSweeps { unit, line, var } => write!(
                f,
                "cannot parallelize self-dependent loop nest: the `{var}` loop sweeps a \
                 partitioned axis against an earlier loop of the same nest (unit `{unit}`, \
                 line {line}); split the two sweeps into separate nests"
            ),
            TransformError::UnlocalizedSum { unit, var } => write!(
                f,
                "sum reduction over `{var}` in unit `{unit}` is not localized on every \
                 cut axis; the parallel partial sums would double-count"
            ),
            TransformError::RemoteConstantRead { unit, line, array } => write!(
                f,
                "`{array}` is read at a fixed subscript on a partitioned axis (unit \
                 `{unit}`, line {line}); only the owning rank holds that value — move \
                 the read into a write statement (which gathers the field) or index it \
                 with the loop variables"
            ),
        }
    }
}

impl std::error::Error for TransformError {}

/// Transform the program into its SPMD form.
///
/// `distance` is the `!$acf distance` fallback for opaque accesses.
pub fn transform(
    ir: &ProgramIr,
    part: &Partition,
    plan: &SyncPlan,
    distance: u64,
) -> Result<(SourceFile, SpmdPlan), TransformError> {
    let cut_axes = plan.cut_axes.clone();
    let mut edit = Edits::new(&ir.file);

    // ---- synchronization points → acf_sync_<k> calls -------------------
    let mut syncs = BTreeMap::new();
    for (k, pt) in plan.sync_points.iter().enumerate() {
        let id = k as u32;
        let arrays = pt
            .deps
            .iter()
            .map(|(a, d)| SyncArray {
                array: a.clone(),
                ghost: d.ghost.clone(),
            })
            .collect();
        syncs.insert(
            id,
            SyncSpec {
                id,
                arrays,
                merged: pt.merged,
            },
        );
        edit.insert(
            &pt.unit,
            pt.list,
            pt.gap,
            call_stmt(&format!("acf_sync_{id}")),
        );
    }

    // ---- localization: loops whose variable spans a cut axis ------------
    let axis_loops: Vec<BTreeMap<LoopId, AxisLoop>> = ir
        .file
        .units
        .iter()
        .zip(&ir.units)
        .map(|(uast, u)| axis_loops(ir, uast, u, &cut_axes))
        .collect();
    let mut units_with_localized: Vec<String> = Vec::new();
    for (u, loops) in ir.units.iter().zip(&axis_loops) {
        let mut any = false;
        for (&id, al) in loops {
            if let Some(step) = al.step {
                edit.localize(&u.name, u.loop_info(id).stmt, al.axis, step);
                any = true;
            }
        }
        if any {
            units_with_localized.push(u.name.clone());
        }
    }

    // ---- self-dependent loops → acf_pre/post_<k> ------------------------
    let mut self_loops = BTreeMap::new();
    let mut next_self = 0u32;
    for (u, loops) in ir.units.iter().zip(&axis_loops) {
        for pair in plan
            .self_pairs
            .get(&u.name)
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            let l = pair.l_a;
            let info = u.loop_info(l);
            let sweep = |axis| nest_sweep(u, loops, l, axis).ok();
            let mut arrays = Vec::new();
            for array in pair.deps.keys() {
                let st = loop_stencil(ir, u, l, array);
                match mirror_decompose(&st, &cut_axes, sweep) {
                    Ok(Some(d)) => arrays.push(SelfArraySpec {
                        array: array.clone(),
                        forward: d.forward,
                        mirror: d.mirror,
                    }),
                    Ok(None) => {}
                    Err(DecomposeError::Opaque) => {
                        return Err(TransformError::OpaqueSelfDependence {
                            unit: u.name.clone(),
                            line: info.line_start,
                        })
                    }
                    Err(DecomposeError::UnknownSweep { axis }) => {
                        return Err(nest_sweep(u, loops, l, axis)
                            .expect_err("mirror_decompose asks only for missing sweeps"))
                    }
                }
            }
            if arrays.is_empty() {
                continue;
            }
            let id = next_self;
            next_self += 1;
            self_loops.insert(id, SelfLoopSpec { id, arrays });
            edit.wrap(
                &u.name,
                info.stmt,
                call_stmt(&format!("acf_pre_{id}")),
                call_stmt(&format!("acf_post_{id}")),
            );
        }
    }

    // ---- reductions ------------------------------------------------------
    let mut reduces = Vec::new();
    for ((uast, u), loops) in ir.file.units.iter().zip(&ir.units).zip(&axis_loops) {
        for root in u.field_roots() {
            let body =
                find_loop_body(&uast.body, root.stmt).expect("field root loop exists in AST");
            let rs = detect_reductions(body);
            if rs.is_empty() {
                continue;
            }
            let localized_axes: Vec<usize> = cut_axes
                .iter()
                .copied()
                .filter(|&a| {
                    loops.iter().any(|(&id, al)| {
                        al.axis == a && al.step.is_some() && u.is_in_loop(id, root.id)
                    })
                })
                .collect();
            if localized_axes.is_empty() {
                continue; // loop runs redundantly on all ranks: no reduce
            }
            for r in rs {
                if r.op == ReduceOpKind::Sum && localized_axes.len() != cut_axes.len() {
                    return Err(TransformError::UnlocalizedSum {
                        unit: u.name.clone(),
                        var: r.var,
                    });
                }
                reduces.push(ReduceSpec {
                    var: r.var.clone(),
                    op: r.op.name().to_string(),
                });
                edit.insert_after_stmt(
                    &u.name,
                    root.stmt,
                    call_stmt(&format!("acf_reduce_{}_{}", r.op.name(), r.var)),
                );
            }
        }
    }

    // ---- soundness: remote constant reads -----------------------------
    check_remote_constant_reads(ir, &cut_axes)?;

    // ---- output fills: a `write` that prints status-array elements
    // needs the full field, not just the rank's subgrid ----------------
    let mut fills: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut next_fill = 0u32;
    for (uast, u) in ir.file.units.iter().zip(&ir.units) {
        let mut sites: Vec<(StmtId, Vec<String>)> = Vec::new();
        autocfd_fortran::ast::walk_stmts(&uast.body, &mut |st| {
            if let StmtKind::Write { items, .. } = &st.kind {
                let mut arrays: Vec<String> = Vec::new();
                for e in items {
                    e.walk(&mut |x| {
                        if let Expr::Index { name, .. } = x {
                            if ir.status_arrays.contains_key(name) && !arrays.contains(name) {
                                arrays.push(name.clone());
                            }
                        }
                    });
                }
                if !arrays.is_empty() {
                    sites.push((st.id, arrays));
                }
            }
        });
        for (stmt, arrays) in sites {
            let id = next_fill;
            next_fill += 1;
            fills.insert(id, arrays);
            edit.insert_before_stmt(&u.name, stmt, call_stmt(&format!("acf_fill_{id}")));
        }
    }

    // ---- acf_init at the top of every unit that needs the rank's
    // subgrid bounds (the `acflo`/`acfhi` scalars are frame-local) -------
    let mut init_units = units_with_localized;
    if let Some(main) = ir.file.main_unit() {
        if !init_units.contains(&main.name) {
            init_units.push(main.name.clone());
        }
    }
    let rank = ir.grid_rank();
    for unit in init_units {
        edit.insert(&unit, ListKey::UnitBody, 0, call_stmt("acf_init"));
        edit.declare_bounds(&unit, rank);
    }

    // ---- compute/communication overlap opportunities -------------------
    // A sync immediately followed by a provably splittable loop nest can
    // leave its last-axis exchange in flight while the interpreter runs
    // the nest's interior iterations (see `OverlapSpec`).
    let mut overlaps = BTreeMap::new();
    {
        // When several syncs insert at one gap, only the last call is
        // adjacent to the nest; the earlier ones complete eagerly.
        let mut last_at_site: BTreeMap<(&str, ListKey, usize), u32> = BTreeMap::new();
        for (k, pt) in plan.sync_points.iter().enumerate() {
            last_at_site.insert((pt.unit.as_str(), pt.list, pt.gap), k as u32);
        }
        for (k, pt) in plan.sync_points.iter().enumerate() {
            let id = k as u32;
            if last_at_site[&(pt.unit.as_str(), pt.list, pt.gap)] != id {
                continue;
            }
            if let Some(spec) = overlap_spec(ir, &cut_axes, pt, &edit) {
                overlaps.insert(id, spec);
            }
        }
    }

    // ---- rebuild the AST -------------------------------------------------
    let file = edit.apply(&ir.file, &cut_axes);

    // ---- checkpoint-safe sync points ------------------------------------
    // A sync whose `call acf_sync_<k>` statement sits in the rebuilt
    // *main* unit can be re-entered on resume from a flat loop cursor;
    // record its statement id so the checkpoint layer knows where a
    // snapshot cut is legal. Syncs hoisted into subroutines are excluded
    // (their call-stack context cannot be reconstructed from a cursor).
    let mut checkpoint_syncs = BTreeMap::new();
    if let Some(main) = file.main_unit() {
        autocfd_fortran::ast::walk_stmts(&main.body, &mut |st| {
            if let StmtKind::Call { name, .. } = &st.kind {
                if let Some(id) = name
                    .strip_prefix("acf_sync_")
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    checkpoint_syncs.insert(id, st.id);
                }
            }
        });
    }

    // Record each checkpoint-safe sync's insertion gap in *source*
    // coordinates (parser-minted owning-statement id + gap index), which
    // are stable across partitions — elastic resume uses these to map a
    // cut taken under a different partition onto this plan.
    let checkpoint_sites = checkpoint_syncs
        .keys()
        .map(|&id| {
            let pt = &plan.sync_points[id as usize];
            let (list_kind, list_stmt, arm) = match pt.list {
                ListKey::UnitBody => (0u8, 0u32, 0u32),
                ListKey::DoBody(s) => (1, s.0, 0),
                ListKey::ThenArm(s) => (2, s.0, 0),
                ListKey::ElseIfArm(s, a) => (3, s.0, a),
                ListKey::ElseArm(s) => (4, s.0, 0),
            };
            (
                id,
                crate::plan::CutSite {
                    list_kind,
                    list_stmt,
                    arm,
                    gap: pt.gap as u64,
                },
            )
        })
        .collect();

    let spmd = SpmdPlan {
        partition: part.clone(),
        dim_axis: ir
            .status_arrays
            .iter()
            .map(|(n, i)| (n.clone(), i.dim_axis.clone()))
            .collect(),
        syncs,
        overlaps,
        self_loops,
        reduces,
        fills,
        checkpoint_syncs,
        checkpoint_sites,
        sync_before: plan.stats.before,
        sync_after: plan.stats.after,
        // The driver overwrites `threads` from its options and fills
        // `kernel_nests` by running the kernel compiler over the
        // transformed program.
        engine: Default::default(),
        threads: 1,
        kernel_nests: Vec::new(),
    };
    let _ = distance;
    Ok((file, spmd))
}

/// Reject reads of status arrays at fixed subscripts on cut axes, except
/// (a) inside `write` statements (the generated `acf_fill` gathers the
/// field first) and (b) in boundary code whose *writes* are also at
/// fixed subscripts on a cut axis (the owner computes correct values and
/// non-owners' garbage is confined to rows they never legitimately read;
/// subsequent halo exchanges deliver the owner's values).
fn check_remote_constant_reads(ir: &ProgramIr, cut_axes: &[usize]) -> Result<(), TransformError> {
    use std::collections::HashSet;
    // Scalar-variable subscripts (e.g. multigrid level indices) are the
    // paper's §4.2 case 5 and stay covered by the user's `!$acf distance`
    // promise; only compile-time-constant subscripts — statically a fixed
    // global position — are flagged.
    let fixed_on_cut = |acc: &autocfd_ir::ArrayAccess| -> bool {
        let Some(info) = ir.status_arrays.get(&acc.array) else {
            return false;
        };
        acc.patterns.iter().enumerate().any(|(d, p)| {
            matches!(p, autocfd_ir::IndexPattern::Constant(_))
                && info
                    .dim_axis
                    .get(d)
                    .copied()
                    .flatten()
                    .is_some_and(|a| cut_axes.contains(&a))
        })
    };
    for (uast, u) in ir.file.units.iter().zip(&ir.units) {
        // statement ids of `write` statements (exempt)
        let mut write_stmts: HashSet<StmtId> = HashSet::new();
        autocfd_fortran::ast::walk_stmts(&uast.body, &mut |st| {
            if matches!(st.kind, StmtKind::Write { .. }) {
                write_stmts.insert(st.id);
            }
        });
        for acc in &u.accesses {
            if acc.is_assign || !fixed_on_cut(acc) || write_stmts.contains(&acc.stmt) {
                continue;
            }
            // boundary-code exemption: the same statement writes a status
            // array at a fixed subscript on a cut axis
            let boundary = u
                .accesses
                .iter()
                .any(|w| w.stmt == acc.stmt && w.is_assign && fixed_on_cut(w));
            if !boundary {
                return Err(TransformError::RemoteConstantRead {
                    unit: u.name.clone(),
                    line: acc.line,
                    array: acc.array.clone(),
                });
            }
        }
    }
    Ok(())
}

/// The signed constant offset `c` when `e` is `var`, `var ± c`, or
/// `c + var`; `None` for any other shape.
fn var_offset(e: &Expr, var: &str) -> Option<i64> {
    match e {
        Expr::Var(n) if n == var => Some(0),
        Expr::Bin { op, lhs, rhs } => match (op, lhs.as_ref(), rhs.as_ref()) {
            (BinOp::Add, Expr::Var(n), Expr::IntLit(c)) if n == var => Some(*c),
            (BinOp::Add, Expr::IntLit(c), Expr::Var(n)) if n == var => Some(*c),
            (BinOp::Sub, Expr::Var(n), Expr::IntLit(c)) if n == var => Some(-c),
            _ => None,
        },
        _ => None,
    }
}

/// Check the overlap-safety conditions for the statement following sync
/// point `pt` and build its [`OverlapSpec`] when every one holds.
///
/// The nest may sit one call deep: real CFD programs keep each stencil
/// in its own subroutine, so a sync is typically followed by
/// `call relax(...)` rather than by the nest itself. When the statement
/// at the gap is a call whose every argument is a plain variable named
/// like its dummy (the subset's "status arrays keep their names across
/// units" rule), the callee's *first* body statement is checked as the
/// nest instead. The exchange then stays in flight across the call —
/// argument binding reads no array elements, and the callee's
/// `acf_init` prologue only sets frame scalars (the runtime exempts it
/// from the complete-on-hook fallback) — provided no other edit (a
/// fill, a pipeline pre-hook) lands between the call site and the nest.
///
/// The nest conditions (any failure returns `None`):
/// * a perfect-nest prefix reaches a unit-step loop iterating the
///   sync's last exchanged cut axis — that loop's variable is clamped
///   at run time;
/// * the nest contains only `do`/`if`/logical-`if`/assignment/`continue`
///   statements (no calls, gotos, I/O, or `do while`), with every
///   logical-`if` guarding an assignment or `continue`, so control flow
///   cannot escape a chunk;
/// * no scalar assignments, and no written array is itself synced by
///   this point: boundary strips never race the in-flight messages;
/// * reads of a written array stay inside the writer's own slice of the
///   clamped variable (subscripting the write dimension at the write's
///   own offset, e.g. `u(i,j) = u(i,j) + ...` relaxation updates):
///   chunks partition the clamped variable and preserve order within a
///   slice, so in-slice flow is safe while cross-slice flow is not;
/// * no nest loop bound references a nest loop variable (the bounds are
///   chunk-invariant);
/// * every read of a synced array indexes the overlapped axis as
///   `var ± c` with `c` inside the exchanged ghost widths, so interior
///   iterations never touch the cells the in-flight messages will fill;
/// * no other edit (sync, fill, reduce, self-loop wrap) lands inside
///   the nest — an `acf_*` call in the body would run once per chunk.
///
/// Statement ids survive the rebuild (statements are cloned with their
/// ids), so the spec addresses the post-edit AST.
fn overlap_spec(
    ir: &ProgramIr,
    cut_axes: &[usize],
    pt: &SyncPoint,
    edit: &Edits,
) -> Option<OverlapSpec> {
    // The overlapped axis is the last cut axis this sync exchanges: the
    // ascending exchange order folds earlier receives' corner data into
    // later sends, so only the final axis's messages may stay in flight.
    let axis = cut_axes
        .iter()
        .copied()
        .filter(|&a| {
            pt.deps
                .values()
                .any(|d| d.ghost.get(a).is_some_and(|g| g[0] > 0 || g[1] > 0))
        })
        .max()?;
    let low_width = pt
        .deps
        .values()
        .filter_map(|d| d.ghost.get(axis))
        .map(|g| g[0])
        .max()?;
    let high_width = pt
        .deps
        .values()
        .filter_map(|d| d.ghost.get(axis))
        .map(|g| g[1])
        .max()?;

    let u = ir.units.iter().find(|u| u.name == pt.unit)?;
    let uast = ir.file.unit(&pt.unit)?;
    let list: &[Stmt] = match pt.list {
        ListKey::UnitBody => &uast.body,
        ListKey::DoBody(sid) => find_loop_body(&uast.body, sid)?,
        // a sync parked in an `if` arm is not followed by a plain nest
        ListKey::ThenArm(_) | ListKey::ElseIfArm(..) | ListKey::ElseArm(_) => return None,
    };
    let top = match list.get(pt.gap) {
        Some(s) => s,
        // The sync sits at the end of a loop body (placed right after
        // the writer): the dynamically-next statement is the body's
        // *first* statement, reached at the next enclosing-loop
        // iteration. On the final iteration the armed overlap is a
        // no-op — the runtime falls back to a blocking completion
        // before any other loop runs.
        None if pt.gap == list.len() && matches!(pt.list, ListKey::DoBody(_)) => list.first()?,
        None => return None,
    };

    // Follow one call deep (see the function doc): the nest the
    // exchange will hide behind may be the leading statement of the
    // subroutine the gap statement calls.
    let (host_unit, host_u, top) = match &top.kind {
        StmtKind::Call { name, args } if !name.starts_with("acf_") => {
            let cast = ir.file.unit(name)?;
            let cu = ir.units.iter().find(|u| u.name == *name)?;
            if args.len() != cast.params.len() {
                return None;
            }
            // pure aliasing only: every actual a plain variable named
            // like its dummy, so the sync's array names mean the same
            // thing on both sides of the call
            for (p, a) in cast.params.iter().zip(args) {
                match a {
                    Expr::Var(n) if n == p => {}
                    _ => return None,
                }
            }
            let nest = cast.body.first()?;
            // nothing but the callee's `acf_init` may run before the
            // nest: any other leading insert or a hook ahead of the
            // call site would complete the exchange early
            let leading_ok = edit
                .inserts
                .get(&(name.clone(), ListKey::UnitBody))
                .is_none_or(|ins| {
                    ins.iter().all(|(gap, _, kind)| {
                        *gap > 0
                            || matches!(kind, StmtKind::Call { name, .. } if name == "acf_init")
                    })
                });
            if !leading_ok
                || edit.before_stmt.contains_key(&(name.clone(), nest.id))
                || edit.before_stmt.contains_key(&(pt.unit.clone(), top.id))
            {
                return None;
            }
            (name.as_str(), cu, nest)
        }
        _ => (pt.unit.as_str(), u, top),
    };

    // Self-dependent loops are pipelined by acf_pre/post instead.
    if edit.wraps.contains_key(&(host_unit.to_string(), top.id)) {
        return None;
    }

    // Perfect-nest prefix down to the loop iterating the overlapped axis.
    let mut cur = top;
    let var = loop {
        let StmtKind::Do {
            var, step, body, ..
        } = &cur.kind
        else {
            return None;
        };
        let on_axis = host_u
            .do_stmt_loop
            .get(&cur.id)
            .is_some_and(|&l| loop_axis(ir, host_u, l) == Some(axis));
        if on_axis {
            match step {
                None | Some(Expr::IntLit(1)) => {}
                Some(_) => return None,
            }
            break var.clone();
        }
        let [inner] = body.as_slice() else {
            return None;
        };
        cur = inner;
    };

    let mut nest_vars: Vec<&str> = Vec::new();
    let mut nest_ids: Vec<StmtId> = Vec::new();
    top.walk(&mut |s| {
        nest_ids.push(s.id);
        if let StmtKind::Do { var, .. } = &s.kind {
            nest_vars.push(var);
        }
    });

    // Whole-nest statement audit, collecting reads and written arrays.
    let mut ok = true;
    let mut written: Vec<&str> = Vec::new();
    let mut reads: Vec<&Expr> = Vec::new();
    // Chunks reorder iterations of the clamped variable, so two distinct
    // values of it must never write the same cell: every write must
    // subscript some dimension as `var ± c`, with a single (dim, offset)
    // pattern per array across all of its writes.
    let mut write_pat: HashMap<&str, (usize, i64)> = HashMap::new();
    top.walk(&mut |s| match &s.kind {
        StmtKind::Do { from, to, step, .. } => {
            for e in [from, to].into_iter().chain(step.as_ref()) {
                e.walk(&mut |x| {
                    if let Expr::Var(n) = x {
                        if nest_vars.iter().any(|v| v == n) {
                            ok = false; // triangular bound: chunk-variant
                        }
                    }
                });
                reads.push(e);
            }
        }
        StmtKind::If { cond, .. } => reads.push(cond),
        StmtKind::LogicalIf { cond, stmt } => {
            reads.push(cond);
            // the guarded statement is audited by this walk too; only
            // allow forms that cannot escape the nest
            if !matches!(stmt.kind, StmtKind::Assign { .. } | StmtKind::Continue) {
                ok = false;
            }
        }
        StmtKind::Assign { target, value } => {
            if target.indices.is_empty() {
                ok = false; // scalar write: carried across iterations
            }
            match target
                .indices
                .iter()
                .enumerate()
                .find_map(|(d, e)| var_offset(e, &var).map(|c| (d, c)))
            {
                Some(pat) => {
                    if *write_pat.entry(&target.name).or_insert(pat) != pat {
                        ok = false;
                    }
                }
                None => ok = false,
            }
            written.push(&target.name);
            for e in &target.indices {
                reads.push(e);
            }
            reads.push(value);
        }
        StmtKind::Continue => {}
        _ => ok = false, // call/goto/return/stop/I-O/do-while
    });
    if !ok {
        return None;
    }

    // A written array must not itself be in flight.
    if written.iter().any(|&w| pt.deps.contains_key(w)) {
        return None;
    }
    // Reads of a written array must stay inside the writer's own slice
    // of the clamped variable. Chunks partition `var` and preserve the
    // original iteration order *within* each value of it, so data may
    // flow freely inside a slice but never across slices, whose order
    // the split changes. A write with pattern `(d, c)` puts all of an
    // iteration's output in plane `var + c` of dimension `d`; a read at
    // the same `(d, c)` stays in-plane (e.g. `u(i,j) = u(i,j) + ...`),
    // any other subscript of that array may cross planes.
    for e in &reads {
        let mut bad = false;
        e.walk(&mut |x| {
            let Expr::Index { name, indices } = x else {
                return;
            };
            let Some(&(d, c)) = write_pat.get(name.as_str()) else {
                return;
            };
            match indices.get(d).and_then(|sub| var_offset(sub, &var)) {
                Some(off) if off == c => {}
                _ => bad = true,
            }
        });
        if bad {
            return None;
        }
    }

    // Reads of synced arrays must stay within the exchanged widths on
    // the overlapped axis, relative to the clamped variable.
    for e in &reads {
        let mut bad = false;
        e.walk(&mut |x| {
            let Expr::Index { name, indices } = x else {
                return;
            };
            if !pt.deps.contains_key(name) {
                return;
            }
            let Some(info) = ir.status_arrays.get(name) else {
                bad = true;
                return;
            };
            for (d, sub) in indices.iter().enumerate() {
                if info.dim_axis.get(d).copied().flatten() != Some(axis) {
                    continue;
                }
                match var_offset(sub, &var) {
                    Some(c) if -(low_width as i64) <= c && c <= high_width as i64 => {}
                    _ => bad = true,
                }
            }
        });
        if bad {
            return None;
        }
    }

    // No other edit may land inside the nest.
    let nest_set: HashSet<StmtId> = nest_ids.iter().copied().collect();
    if edit.inserts.keys().any(|(un, key)| {
        un.as_str() == host_unit
            && match key {
                ListKey::UnitBody => false,
                ListKey::DoBody(s)
                | ListKey::ThenArm(s)
                | ListKey::ElseIfArm(s, _)
                | ListKey::ElseArm(s) => nest_set.contains(s),
            }
    }) {
        return None;
    }
    if edit
        .wraps
        .keys()
        .any(|(un, id)| un.as_str() == host_unit && nest_set.contains(id))
    {
        return None;
    }
    if edit
        .after_stmt
        .keys()
        .chain(edit.before_stmt.keys())
        .any(|(un, id)| un.as_str() == host_unit && *id != top.id && nest_set.contains(id))
    {
        return None;
    }

    Some(OverlapSpec {
        stmt: top.id,
        var,
        axis,
        low_width,
        high_width,
    })
}

/// A loop whose variable spans a cut axis.
struct AxisLoop {
    axis: usize,
    /// The step folded through the unit's `parameter` constants (1 when
    /// omitted). `None` when it does not fold to a nonzero constant: the
    /// loop then stays global, every rank running all of its iterations.
    /// That is safe for a loop whose owned points come out right from
    /// exchanged data, which is every loop but a self-dependent one
    /// crossing the cut (refused as [`TransformError::UnlocalizedSweep`]);
    /// a sum reduction in a partly global nest is refused as
    /// [`TransformError::UnlocalizedSum`].
    step: Option<i64>,
}

/// The direction (±1) in which the nest of `root` sweeps cut `axis`, or
/// why it has none: a loop over `axis` that is not localized, or two that
/// run opposite ways.
fn nest_sweep(
    u: &UnitIr,
    loops: &BTreeMap<LoopId, AxisLoop>,
    root: LoopId,
    axis: usize,
) -> Result<i64, TransformError> {
    let refuse = |id: LoopId, opposed: bool| {
        let l = u.loop_info(id);
        let (unit, line, var) = (u.name.clone(), l.line_start, l.var.clone());
        if opposed {
            TransformError::OpposedSweeps { unit, line, var }
        } else {
            TransformError::UnlocalizedSweep { unit, line, var }
        }
    };
    let mut sign = None;
    for (&id, al) in loops {
        if al.axis != axis || !u.is_in_loop(id, root) {
            continue;
        }
        let s = al.step.ok_or_else(|| refuse(id, false))?.signum();
        if *sign.get_or_insert(s) != s {
            return Err(refuse(id, true));
        }
    }
    sign.ok_or_else(|| refuse(root, false))
}

/// The loops of unit `u` whose variable spans one of `cut_axes`.
fn axis_loops(
    ir: &ProgramIr,
    uast: &Unit,
    u: &UnitIr,
    cut_axes: &[usize],
) -> BTreeMap<LoopId, AxisLoop> {
    let params = uast.int_parameters();
    let mut steps: HashMap<StmtId, Option<i64>> = HashMap::new();
    autocfd_fortran::ast::walk_stmts(&uast.body, &mut |s| {
        if let StmtKind::Do { step, .. } = &s.kind {
            let folded = match step {
                None => Some(1),
                Some(e) => e.const_int(&|n| params.get(n).copied()),
            };
            steps.insert(s.id, folded.filter(|&v| v != 0));
        }
    });
    u.loops
        .iter()
        .filter_map(|l| {
            let axis = loop_axis(ir, u, l.id).filter(|a| cut_axes.contains(a))?;
            let step = steps.get(&l.stmt).copied().flatten();
            Some((l.id, AxisLoop { axis, step }))
        })
        .collect()
}

fn find_loop_body(stmts: &[Stmt], id: StmtId) -> Option<&[Stmt]> {
    for s in stmts {
        if s.id == id {
            if let StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } = &s.kind {
                return Some(body);
            }
        }
        for b in s.child_bodies() {
            if let Some(found) = find_loop_body(b, id) {
                return Some(found);
            }
        }
    }
    None
}

fn call_stmt(name: &str) -> StmtKind {
    StmtKind::Call {
        name: name.to_string(),
        args: vec![],
    }
}

/// Localized loop bounds for a nonzero constant `step`, preserving the stride
/// *phase*: the first executed index must stay congruent to the original
/// `from` modulo the step. For |step| = 1 this is the classic
/// `max(from, acflo)` / `min(to, acfhi)`; for larger strides the lower
/// bound advances by whole steps:
///
/// ```text
/// from' = from + ((max(0, acflo - from) + s - 1) / s) * s     (s > 0)
/// from' = from - ((max(0, from - acfhi) + s - 1) / s) * s     (s < 0, s = |step|)
/// ```
fn localized_bounds(from: &Expr, to: &Expr, step: i64, axis: usize) -> (Expr, Expr) {
    let lo = Expr::Var(format!("acflo{}", axis + 1));
    let hi = Expr::Var(format!("acfhi{}", axis + 1));
    let mag = step.unsigned_abs() as i64;
    if step > 0 {
        let new_from = if mag == 1 {
            Expr::Index {
                name: "max".into(),
                indices: vec![from.clone(), lo],
            }
        } else {
            // from + ((max(0, acflo - from) + (s-1)) / s) * s
            let deficit = Expr::Index {
                name: "max".into(),
                indices: vec![
                    Expr::IntLit(0),
                    Expr::bin(autocfd_fortran::BinOp::Sub, lo, from.clone()),
                ],
            };
            let steps_up = Expr::bin(
                autocfd_fortran::BinOp::Div,
                Expr::bin(autocfd_fortran::BinOp::Add, deficit, Expr::IntLit(mag - 1)),
                Expr::IntLit(mag),
            );
            Expr::bin(
                autocfd_fortran::BinOp::Add,
                from.clone(),
                Expr::bin(autocfd_fortran::BinOp::Mul, steps_up, Expr::IntLit(mag)),
            )
        };
        let new_to = Expr::Index {
            name: "min".into(),
            indices: vec![to.clone(), hi],
        };
        (new_from, new_to)
    } else {
        let new_from = if mag == 1 {
            Expr::Index {
                name: "min".into(),
                indices: vec![from.clone(), hi],
            }
        } else {
            // from - ((max(0, from - acfhi) + (s-1)) / s) * s
            let deficit = Expr::Index {
                name: "max".into(),
                indices: vec![
                    Expr::IntLit(0),
                    Expr::bin(autocfd_fortran::BinOp::Sub, from.clone(), hi),
                ],
            };
            let steps_down = Expr::bin(
                autocfd_fortran::BinOp::Div,
                Expr::bin(autocfd_fortran::BinOp::Add, deficit, Expr::IntLit(mag - 1)),
                Expr::IntLit(mag),
            );
            Expr::bin(
                autocfd_fortran::BinOp::Sub,
                from.clone(),
                Expr::bin(autocfd_fortran::BinOp::Mul, steps_down, Expr::IntLit(mag)),
            )
        };
        let new_to = Expr::Index {
            name: "max".into(),
            indices: vec![to.clone(), lo],
        };
        (new_from, new_to)
    }
}

/// Pending insertions for one statement list: `(gap, seq, stmt kind)`.
type ListInserts = Vec<(usize, usize, StmtKind)>;

/// Collected edits, applied in one rebuild pass.
struct Edits {
    /// Per `(unit, list)` pending insertions.
    inserts: BTreeMap<(String, ListKey), ListInserts>,
    /// `(unit, do-stmt) → (pre, post)` wrappers.
    wraps: HashMap<(String, StmtId), (StmtKind, StmtKind)>,
    /// `(unit, do-stmt) → (axis, step)` bound localization.
    localized: HashMap<(String, StmtId), (usize, i64)>,
    /// Gap-after-stmt inserts resolved lazily: `(unit, stmt) → kinds`.
    after_stmt: BTreeMap<(String, StmtId), Vec<StmtKind>>,
    /// Gap-before-stmt inserts resolved lazily.
    before_stmt: BTreeMap<(String, StmtId), Vec<StmtKind>>,
    /// Units that need `integer acflo*/acfhi*` declarations, with the
    /// grid rank (the bound scalars would otherwise be implicitly REAL,
    /// breaking the integer stride arithmetic of localized bounds).
    bound_decls: BTreeMap<String, usize>,
    seq: usize,
    next_id: u32,
}

impl Edits {
    fn new(file: &SourceFile) -> Self {
        // fresh StmtIds start above everything in the file
        let mut max_id = 0u32;
        for u in &file.units {
            autocfd_fortran::ast::walk_stmts(&u.body, &mut |s| max_id = max_id.max(s.id.0));
        }
        Self {
            inserts: BTreeMap::new(),
            wraps: HashMap::new(),
            localized: HashMap::new(),
            after_stmt: BTreeMap::new(),
            before_stmt: BTreeMap::new(),
            bound_decls: BTreeMap::new(),
            seq: 0,
            next_id: max_id + 1,
        }
    }

    fn insert(&mut self, unit: &str, list: ListKey, gap: usize, kind: StmtKind) {
        self.seq += 1;
        self.inserts
            .entry((unit.to_string(), list))
            .or_default()
            .push((gap, self.seq, kind));
    }

    fn insert_after_stmt(&mut self, unit: &str, stmt: StmtId, kind: StmtKind) {
        self.after_stmt
            .entry((unit.to_string(), stmt))
            .or_default()
            .push(kind);
    }

    fn insert_before_stmt(&mut self, unit: &str, stmt: StmtId, kind: StmtKind) {
        self.before_stmt
            .entry((unit.to_string(), stmt))
            .or_default()
            .push(kind);
    }

    fn wrap(&mut self, unit: &str, stmt: StmtId, pre: StmtKind, post: StmtKind) {
        self.wraps.insert((unit.to_string(), stmt), (pre, post));
    }

    fn localize(&mut self, unit: &str, stmt: StmtId, axis: usize, step: i64) {
        self.localized
            .insert((unit.to_string(), stmt), (axis, step));
    }

    fn declare_bounds(&mut self, unit: &str, rank: usize) {
        self.bound_decls.insert(unit.to_string(), rank);
    }

    fn fresh(&mut self, kind: StmtKind) -> Stmt {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        Stmt {
            label: None,
            line: 0,
            id,
            kind,
        }
    }

    fn apply(mut self, file: &SourceFile, cut_axes: &[usize]) -> SourceFile {
        let mut out = file.clone();
        for u in &mut out.units {
            let name = u.name.clone();
            if let Some(&rank) = self.bound_decls.get(&name) {
                let names = (0..rank)
                    .flat_map(|a| {
                        [
                            autocfd_fortran::VarDecl {
                                name: format!("acflo{}", a + 1),
                                dims: vec![],
                            },
                            autocfd_fortran::VarDecl {
                                name: format!("acfhi{}", a + 1),
                                dims: vec![],
                            },
                        ]
                    })
                    .collect();
                u.decls.push(autocfd_fortran::Decl {
                    kind: autocfd_fortran::DeclKind::Var {
                        ty: autocfd_fortran::Type::Integer,
                        names,
                    },
                    line: 0,
                });
            }
            u.body = self.rebuild_list(&name, ListKey::UnitBody, &u.body.clone(), cut_axes);
        }
        out
    }

    fn rebuild_list(
        &mut self,
        unit: &str,
        key: ListKey,
        stmts: &[Stmt],
        cut_axes: &[usize],
    ) -> Vec<Stmt> {
        let mut pending = self
            .inserts
            .remove(&(unit.to_string(), key))
            .unwrap_or_default();
        pending.sort_by_key(|&(gap, seq, _)| (gap, seq));
        let mut pi = 0usize;
        let mut out = Vec::with_capacity(stmts.len() + pending.len());
        for (idx, s) in stmts.iter().enumerate() {
            while pi < pending.len() && pending[pi].0 <= idx {
                let kind = pending[pi].2.clone();
                let st = self.fresh(kind);
                out.push(st);
                pi += 1;
            }
            if let Some(kinds) = self.before_stmt.remove(&(unit.to_string(), s.id)) {
                for k in kinds {
                    let st = self.fresh(k);
                    out.push(st);
                }
            }
            let wrapped = self.wraps.remove(&(unit.to_string(), s.id));
            if let Some((pre, _)) = &wrapped {
                let st = self.fresh(pre.clone());
                out.push(st);
            }
            out.push(self.rebuild_stmt(unit, s, cut_axes));
            if let Some((_, post)) = wrapped {
                let st = self.fresh(post);
                out.push(st);
            }
            if let Some(kinds) = self.after_stmt.remove(&(unit.to_string(), s.id)) {
                for k in kinds {
                    let st = self.fresh(k);
                    out.push(st);
                }
            }
        }
        while pi < pending.len() {
            let kind = pending[pi].2.clone();
            let st = self.fresh(kind);
            out.push(st);
            pi += 1;
        }
        out
    }

    fn rebuild_stmt(&mut self, unit: &str, s: &Stmt, cut_axes: &[usize]) -> Stmt {
        let mut s = s.clone();
        match &mut s.kind {
            StmtKind::Do {
                from,
                to,
                body,
                term_label,
                ..
            } => {
                if let Some(&(axis, step)) = self.localized.get(&(unit.to_string(), s.id)) {
                    (*from, *to) = localized_bounds(from, to, step, axis);
                }
                let inner = body.clone();
                let mut rebuilt = self.rebuild_list(unit, ListKey::DoBody(s.id), &inner, cut_axes);
                // Label-terminated `do NN … NN continue`: the terminal
                // labeled statement must stay LAST, or the printed source
                // would re-parse with trailing insertions outside the loop.
                if let Some(lbl) = term_label {
                    if let Some(pos) = rebuilt.iter().position(|st| st.label == Some(*lbl)) {
                        if pos + 1 != rebuilt.len() {
                            let term = rebuilt.remove(pos);
                            rebuilt.push(term);
                        }
                    }
                }
                *body = rebuilt;
            }
            StmtKind::DoWhile { body, .. } => {
                let inner = body.clone();
                *body = self.rebuild_list(unit, ListKey::DoBody(s.id), &inner, cut_axes);
            }
            StmtKind::If {
                then,
                else_ifs,
                els,
                ..
            } => {
                let t = then.clone();
                *then = self.rebuild_list(unit, ListKey::ThenArm(s.id), &t, cut_axes);
                for (k, (_, b)) in else_ifs.iter_mut().enumerate() {
                    let inner = b.clone();
                    *b = self.rebuild_list(
                        unit,
                        ListKey::ElseIfArm(s.id, k as u32),
                        &inner,
                        cut_axes,
                    );
                }
                if let Some(b) = els {
                    let inner = b.clone();
                    *b = self.rebuild_list(unit, ListKey::ElseArm(s.id), &inner, cut_axes);
                }
            }
            _ => {}
        }
        s
    }
}

#[cfg(test)]
mod localized_bounds_tests {
    use super::*;
    use autocfd_fortran::Expr;

    /// Evaluate a bound expression given acflo/acfhi values.
    fn eval(e: &Expr, lo: i64, hi: i64) -> i64 {
        match e {
            Expr::IntLit(v) => *v,
            Expr::Var(n) if n.starts_with("acflo") => lo,
            Expr::Var(n) if n.starts_with("acfhi") => hi,
            Expr::Index { name, indices } if name == "max" => {
                indices.iter().map(|x| eval(x, lo, hi)).max().unwrap()
            }
            Expr::Index { name, indices } if name == "min" => {
                indices.iter().map(|x| eval(x, lo, hi)).min().unwrap()
            }
            Expr::Bin { op, lhs, rhs } => {
                let (a, b) = (eval(lhs, lo, hi), eval(rhs, lo, hi));
                match op {
                    autocfd_fortran::BinOp::Add => a + b,
                    autocfd_fortran::BinOp::Sub => a - b,
                    autocfd_fortran::BinOp::Mul => a * b,
                    autocfd_fortran::BinOp::Div => a / b,
                    other => panic!("unexpected op {other:?}"),
                }
            }
            other => panic!("unexpected expr {other:?}"),
        }
    }

    /// The indices a Fortran `do f, t, s` executes.
    fn trip(f: i64, t: i64, s: i64) -> Vec<i64> {
        let mut out = Vec::new();
        let mut i = f;
        while (s > 0 && i <= t) || (s < 0 && i >= t) {
            out.push(i);
            i += s;
        }
        out
    }

    /// Exhaustive check: for every (from, to, step, rank range), the
    /// localized loop executes exactly the original iterations that fall
    /// inside [lo, hi].
    #[test]
    fn localized_iterations_equal_filtered_originals() {
        for from in 1..=6i64 {
            for to in from..=14 {
                for step in [1i64, 2, 3, -1, -2, -3] {
                    let (f0, t0) = if step > 0 { (from, to) } else { (to, from) };
                    for lo in 1..=10i64 {
                        for hi in lo..=14 {
                            let (nf, nt) =
                                localized_bounds(&Expr::IntLit(f0), &Expr::IntLit(t0), step, 0);
                            let got = trip(eval(&nf, lo, hi), eval(&nt, lo, hi), step);
                            let want: Vec<i64> = trip(f0, t0, step)
                                .into_iter()
                                .filter(|i| *i >= lo && *i <= hi)
                                .collect();
                            assert_eq!(got, want, "from={f0} to={t0} step={step} lo={lo} hi={hi}");
                        }
                    }
                }
            }
        }
    }

    /// Steps fold through the unit's `parameter`s; a step that does not
    /// fold to a nonzero constant leaves its loop global.
    #[test]
    fn non_constant_step_is_not_localized() {
        let ir = autocfd_ir::build_ir(
            autocfd_fortran::parse(
                "
!$acf grid(40, 40)
!$acf status v
      program p
      real v(40,40)
      integer i, j, k, down
      parameter (down = -2)
      k = 1
      do i = 40, 1, down
        v(i,1) = 1.0
      end do
      do i = 1, 40, k
        v(i,2) = 1.0
      end do
      do i = 1, 40, down + 2
        v(i,3) = 1.0
      end do
      do j = 1, 40
        v(1,j) = 1.0
      end do
      end
",
            )
            .unwrap(),
        )
        .unwrap();
        let loops = axis_loops(&ir, &ir.file.units[0], &ir.units[0], &[0, 1]);
        let got: Vec<_> = loops.values().map(|l| (l.axis, l.step)).collect();
        assert_eq!(got, [(0, Some(-2)), (0, None), (0, None), (1, Some(1))]);
    }
}
