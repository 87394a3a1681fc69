//! Statement execution and program driving.

use crate::eval::{find_unit, RExpr};
use crate::kernel::{KernelClamp, KernelSet};
use crate::machine::{build_frame, Binding, Frame, Machine, Names, RunError, OWN_NAME};
use crate::value::Value;
use autocfd_fortran::ast::{
    walk_stmts, Expr, LValue, SourceFile, Stmt, StmtId, StmtKind, Unit, UnitKind,
};
use autocfd_runtime::{DoProgress, EventKind, Recorder};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

/// Control flow outcome of executing a statement (list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// `goto` to a label, to be resolved by an enclosing statement list.
    Goto(u32),
    /// `return` from the current unit.
    Return,
    /// `stop` — terminate the whole program.
    Stop,
}

/// Interior/boundary split geometry for one overlapped loop nest (see
/// [`Hooks::split_loop`]). The widths clamp the named loop variable's
/// evaluated range `[from, to]` into three disjoint chunks that exactly
/// cover it: the interior `[from+low, to-high]`, the low strip
/// `[from, min(to, from+low-1)]`, and the high strip
/// `[max(from+low, to-high+1), to]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSplit {
    /// Loop variable to clamp — a loop inside the split `do` statement's
    /// perfect-nest prefix (possibly the split statement itself).
    pub var: String,
    /// Boundary width at the low end of the variable's range.
    pub low_width: u64,
    /// Boundary width at the high end.
    pub high_width: u64,
}

/// Hook interface for `call acf_*` statements inserted by the
/// restructurer. Return `Ok(true)` when the call was handled; `Ok(false)`
/// falls through to ordinary subroutine dispatch.
pub trait Hooks {
    /// Handle a runtime call in the current frame.
    fn call(&mut self, m: &mut Machine, frame: &mut Frame, name: &str) -> Result<bool, RunError>;

    /// When `Ok(Some(..))`, the engine executes this `do` statement in
    /// three chunks — interior first, then (after
    /// [`Hooks::finish_split`]) the low and high boundary strips — so
    /// messages a preceding hook call left in flight are hidden behind
    /// the interior computation. Called for every `do` statement with
    /// the machine borrowed mutably so an implementation can *complete*
    /// in-flight communication when a different loop runs first (the
    /// blocking fallback). The default never splits.
    fn split_loop(&mut self, m: &mut Machine, stmt: &Stmt) -> Result<Option<LoopSplit>, RunError> {
        let _ = (m, stmt);
        Ok(None)
    }

    /// Complete the communication an earlier hook call left in flight;
    /// runs between the interior chunk and the boundary strips of a
    /// split loop. The default has nothing to complete.
    fn finish_split(&mut self, m: &mut Machine, frame: &mut Frame) -> Result<(), RunError> {
        let _ = (m, frame);
        Ok(())
    }

    /// Where the engine should record compute spans (the time between
    /// communicator calls), or `None` (the default) to skip span tracking
    /// entirely. SPMD hooks return their rank's communicator so compute
    /// and communication land on one timeline.
    fn recorder(&self) -> Option<&dyn Recorder> {
        None
    }

    /// Whether the engine should maintain a resume cursor — the stack of
    /// top-level `do`-loop positions — and report it through
    /// [`Hooks::hook_site`]. Off by default (zero overhead); checkpoint
    /// hooks turn it on.
    fn wants_cursor(&self) -> bool {
        false
    }

    /// Called just before [`Hooks::call`] for every `acf_*` call at the
    /// main program's call depth, when [`Hooks::wants_cursor`] is on:
    /// `stmt` is the call statement's identity and `cursor` the enclosing
    /// top-level `do` loops outermost-first. Together they pin the exact
    /// execution point a checkpoint must restore to.
    fn hook_site(&mut self, stmt: StmtId, cursor: &[DoProgress]) {
        let _ = (stmt, cursor);
    }
}

/// The no-op hook set (sequential execution).
pub struct NoHooks;

impl Hooks for NoHooks {
    fn call(&mut self, _: &mut Machine, _: &mut Frame, _: &str) -> Result<bool, RunError> {
        Ok(false)
    }
}

/// What the tree walk resolves once per run: each unit's [`Names`], on
/// the unit's first entry, and each statement's expressions in slot form
/// ([`RStmt`]), on the statement's first tree-walk execution. Nests the
/// kernels run are never resolved.
pub(crate) struct Code<'p> {
    file: &'p SourceFile,
    /// By unit index.
    names: Vec<OnceCell<Arc<Names>>>,
    /// By `StmtId`, with the statement each was resolved from.
    stmts: Vec<OnceCell<(&'p Stmt, RStmt<'p>)>>,
}

impl<'p> Code<'p> {
    fn new(file: &'p SourceFile) -> Self {
        let mut ids = 0;
        for u in &file.units {
            walk_stmts(&u.body, &mut |s| ids = ids.max(s.id.0 as usize + 1));
        }
        Code {
            file,
            names: file.units.iter().map(|_| OnceCell::new()).collect(),
            stmts: (0..ids).map(|_| OnceCell::new()).collect(),
        }
    }

    /// The name table of unit `unit` (an index into the file's units).
    fn names(&self, unit: usize) -> &Arc<Names> {
        self.names[unit].get_or_init(|| Arc::new(Names::of(&self.file.units[unit])))
    }

    /// `s` resolved against `names`, the table of its unit. Cached by id;
    /// a statement whose id another statement already holds (parsed and
    /// restructured files never repeat one) is resolved afresh.
    fn stmt(&self, s: &'p Stmt, names: &Names) -> Cow<'_, RStmt<'p>> {
        if let Some(cell) = self.stmts.get(s.id.0 as usize) {
            let (at, r) = cell.get_or_init(|| (s, RStmt::new(self.file, names, s)));
            if std::ptr::eq(*at, s) {
                return Cow::Borrowed(r);
            }
        }
        Cow::Owned(RStmt::new(self.file, names, s))
    }
}

/// A statement's expressions with their names resolved to slots. The
/// statement lists nested in it stay the AST.
#[derive(Debug, Clone)]
enum RStmt<'p> {
    Assign {
        target: RLValue<'p>,
        value: RExpr<'p>,
    },
    /// The conditions of a block `if` (then its `else if`s) or of a
    /// logical `if`.
    Conds(Box<[RExpr<'p>]>),
    Do {
        var: u32,
        from: RExpr<'p>,
        to: RExpr<'p>,
        step: Option<RExpr<'p>>,
    },
    While(RExpr<'p>),
    Call {
        unit: Option<(usize, &'p Unit)>,
        args: Box<[RExpr<'p>]>,
    },
    Read(Box<[RLValue<'p>]>),
    Write(Box<[RItem<'p>]>),
    /// `goto`, `continue`, `return`, `stop`: nothing to resolve.
    Plain,
}

/// An assignment target by slot.
#[derive(Debug, Clone)]
struct RLValue<'p> {
    slot: u32,
    name: &'p str,
    indices: Box<[RExpr<'p>]>,
}

/// A `write` item: character literals print as they are.
#[derive(Debug, Clone)]
enum RItem<'p> {
    Text(&'p str),
    Value(RExpr<'p>),
}

impl<'p> RStmt<'p> {
    fn new(file: &'p SourceFile, names: &Names, s: &'p Stmt) -> RStmt<'p> {
        let expr = |e: &'p Expr| RExpr::new(file, names, e);
        let list = |es: &'p [Expr]| es.iter().map(expr).collect();
        let slot = |n: &str| names.mentioned(n);
        let lvalue = |lv: &'p LValue| RLValue {
            slot: slot(&lv.name),
            name: &lv.name,
            indices: list(&lv.indices),
        };
        match &s.kind {
            StmtKind::Assign { target, value } => RStmt::Assign {
                target: lvalue(target),
                value: expr(value),
            },
            StmtKind::If { cond, else_ifs, .. } => RStmt::Conds(
                std::iter::once(cond)
                    .chain(else_ifs.iter().map(|(c, _)| c))
                    .map(expr)
                    .collect(),
            ),
            StmtKind::LogicalIf { cond, .. } => RStmt::Conds(Box::new([expr(cond)])),
            StmtKind::Do {
                var,
                from,
                to,
                step,
                ..
            } => RStmt::Do {
                var: slot(var),
                from: expr(from),
                to: expr(to),
                step: step.as_ref().map(expr),
            },
            StmtKind::DoWhile { cond, .. } => RStmt::While(expr(cond)),
            StmtKind::Call { name, args } => RStmt::Call {
                unit: find_unit(file, name),
                args: list(args),
            },
            StmtKind::Read { items, .. } => RStmt::Read(items.iter().map(lvalue).collect()),
            StmtKind::Write { items, .. } => RStmt::Write(
                items
                    .iter()
                    .map(|e| match e {
                        Expr::StrLit(t) => RItem::Text(t),
                        e => RItem::Value(expr(e)),
                    })
                    .collect(),
            ),
            StmtKind::Goto { .. } | StmtKind::Continue | StmtKind::Return | StmtKind::Stop => {
                RStmt::Plain
            }
        }
    }
}

/// The execution engine: a program's resolved forms plus its hook set.
pub(crate) struct Exec<'p, H: Hooks> {
    code: &'p Code<'p>,
    hooks: &'p mut H,
    // Current call depth (Fortran 77 forbids recursion; a cycle in the
    // call graph is reported instead of overflowing the stack).
    depth: u32,
    // Start of the compute span in progress. Everything the engine does
    // between two communicator calls — loop nests, subroutine calls, the
    // statements between them — is one span, closed before every `acf_*`
    // hook dispatch (keeping the rank's trace chronological) and at end
    // of program. `None` when the hooks have no recorder.
    since: Option<Instant>,
    // Resume-cursor tracking (see [`Hooks::wants_cursor`]): the stack of
    // depth-0 `do` loops currently executing, outermost first. Only
    // maintained when `track` is set — sequential runs pay nothing.
    cursor: Vec<DoProgress>,
    track: bool,
    // Compiled kernels for eligible loop nests.
    // `None` tree-walks everything. A `do` statement with a compiled
    // kernel whose entry check passes runs fused; otherwise it falls
    // back to the tree walk from an identical state.
    kernels: Option<&'p KernelSet>,
}

/// Scalar copy-out obligations after a call: `(dummy slot, caller slot)`.
type CopyBacks = Vec<(u32, u32)>;

/// Run the program's `program` unit to completion with `hooks` and a
/// statement budget (0 = unlimited), returning the machine and the main
/// program's final frame (so callers can inspect named arrays and
/// scalars). `do` nests with a compiled kernel in `kernels` execute
/// fused (and possibly threaded) instead of tree-walked, bit-exactly;
/// `None` tree-walks everything. [`crate::engine::RunConfig`] is the
/// public way in.
pub fn run_program<H: Hooks>(
    file: &SourceFile,
    input: Vec<f64>,
    hooks: &mut H,
    stmt_limit: u64,
    kernels: Option<&KernelSet>,
) -> Result<(Machine, Frame), RunError> {
    run_program_from(file, input, hooks, stmt_limit, None, |_, _| Ok(()), kernels)
}

/// [`run_program`] resumed at a checkpointed execution point instead of
/// from the top: build the main frame, let `seed` overwrite it with
/// restored state, then walk the *static* path from the main body to
/// the statement `at.0` (the checkpoint-safe `acf_sync_*` call the
/// snapshot was taken at), re-entering each enclosing top-level `do`
/// loop mid-flight per `at.1` (outermost first). Execution re-runs the
/// target statement itself — the checkpoint was written *before* its
/// exchange, so re-executing it regenerates all communication — and
/// continues normally from there. `at = None` starts from the top.
///
/// Control flow below the target needs no saved state: `if` arms are
/// re-derived from restored scalars, and a `do while` re-evaluates its
/// condition. Only counted `do` loops carry hidden position (the trips
/// already run), which is exactly what `at.1` supplies. Resume targets
/// are checkpoint-safe sync calls, which never sit inside a
/// kernel-eligible nest, so `kernels` only accelerate the re-executed
/// remainder.
pub fn run_program_from<H: Hooks>(
    file: &SourceFile,
    input: Vec<f64>,
    hooks: &mut H,
    stmt_limit: u64,
    at: Option<(StmtId, &[DoProgress])>,
    seed: impl FnOnce(&mut Machine, &mut Frame) -> Result<(), RunError>,
    kernels: Option<&KernelSet>,
) -> Result<(Machine, Frame), RunError> {
    let code = Code::new(file);
    let main = main_unit(file)?;
    let mut m = Machine::new(input);
    m.stmt_limit = stmt_limit;
    let mut exec = Exec::new(&code, hooks, kernels);
    let mut frame = build_frame(&mut m, &file.units[main], code.names(main), Vec::new())?;
    seed(&mut m, &mut frame)?;
    let body = &file.units[main].body;
    let flow = match at {
        None => exec.exec_stmts(&mut m, &mut frame, body)?,
        Some((target, dos)) => exec.resume_stmts(&mut m, &mut frame, body, target, dos)?,
    };
    exec.end_compute();
    if let Flow::Goto(l) = flow {
        return Err(RunError::new(format!("unresolved goto {l} at top level")));
    }
    Ok((m, frame))
}

/// Index of the `program` unit.
fn main_unit(file: &SourceFile) -> Result<usize, RunError> {
    (file.units.iter())
        .position(|u| u.kind == UnitKind::Program)
        .ok_or_else(|| RunError::new("no `program` unit"))
}

/// Whether `target` is `s` or lives anywhere inside its nested bodies.
fn contains_stmt(s: &Stmt, target: StmtId) -> bool {
    if s.id == target {
        return true;
    }
    match &s.kind {
        StmtKind::If {
            then,
            else_ifs,
            els,
            ..
        } => {
            then.iter().any(|c| contains_stmt(c, target))
                || else_ifs
                    .iter()
                    .any(|(_, b)| b.iter().any(|c| contains_stmt(c, target)))
                || els
                    .as_ref()
                    .is_some_and(|b| b.iter().any(|c| contains_stmt(c, target)))
        }
        StmtKind::LogicalIf { stmt, .. } => contains_stmt(stmt, target),
        StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => {
            body.iter().any(|c| contains_stmt(c, target))
        }
        _ => false,
    }
}

/// Which chunk of a split loop is being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clamp {
    /// `[from+low, to-high]` — safe while messages are in flight.
    Interior,
    /// `[from, min(to, from+low-1)]` — needs the lower ghosts.
    Low,
    /// `[max(from+low, to-high+1), to]` — needs the upper ghosts.
    High,
}

/// The sub-range of `[f, t]` a chunk covers. The three chunks are
/// disjoint and exactly cover `[f, t]` for every combination of widths
/// (an oversized width only empties the interior).
fn clamp_range(f: i64, t: i64, split: &LoopSplit, mode: Clamp) -> (i64, i64) {
    let lw = split.low_width as i64;
    let hw = split.high_width as i64;
    match mode {
        Clamp::Interior => (f + lw, t - hw),
        Clamp::Low => (f, t.min(f + lw - 1)),
        Clamp::High => ((f + lw).max(t - hw + 1), t),
    }
}

/// Split chunks must fall through: the restructurer only emits splits
/// for nests it proved free of escaping control flow.
fn ensure_normal(flow: Flow, line: u32) -> Result<(), RunError> {
    if flow == Flow::Normal {
        Ok(())
    } else {
        Err(RunError::new("control flow escaped an overlapped loop nest").at(line))
    }
}

impl<'p, H: Hooks> Exec<'p, H> {
    fn new(code: &'p Code<'p>, hooks: &'p mut H, kernels: Option<&'p KernelSet>) -> Self {
        Exec {
            code,
            track: hooks.wants_cursor(),
            since: hooks.recorder().map(|_| Instant::now()),
            hooks,
            depth: 0,
            cursor: Vec::new(),
            kernels,
        }
    }

    /// Close the compute span in progress and hand it to the recorder.
    fn end_compute(&mut self) {
        if let (Some(start), Some(rec)) = (self.since.take(), self.hooks.recorder()) {
            rec.record_span(EventKind::Compute, start, Instant::now());
        }
    }

    /// Open the next compute span: the communicator has returned.
    fn begin_compute(&mut self) {
        if self.hooks.recorder().is_some() {
            self.since = Some(Instant::now());
        }
    }

    /// `s`'s resolved form, for the frame of its unit.
    fn resolved(&self, frame: &Frame, s: &'p Stmt) -> Cow<'p, RStmt<'p>> {
        self.code.stmt(s, frame.names())
    }

    /// Execute a statement list, resolving `goto`s whose target label is
    /// in this list.
    fn exec_stmts(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        stmts: &'p [Stmt],
    ) -> Result<Flow, RunError> {
        let mut i = 0usize;
        while i < stmts.len() {
            match self.exec_stmt(m, frame, &stmts[i])? {
                Flow::Normal => i += 1,
                Flow::Goto(l) => match stmts.iter().position(|s| s.label == Some(l)) {
                    Some(j) => i = j,
                    None => return Ok(Flow::Goto(l)),
                },
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Re-enter a statement list at the (sub)tree containing `target`,
    /// then continue executing the rest of the list normally — with
    /// `goto` resolution against the *full* list, so a convergence jump
    /// out of the resumed loop finds its landing label.
    fn resume_stmts(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        stmts: &'p [Stmt],
        target: StmtId,
        dos: &[DoProgress],
    ) -> Result<Flow, RunError> {
        let idx = stmts
            .iter()
            .position(|s| contains_stmt(s, target))
            .ok_or_else(|| {
                RunError::new(format!(
                    "resume target {target} not found in statement list"
                ))
            })?;
        let mut i = idx;
        let mut entry = Some(dos);
        while i < stmts.len() {
            let flow = match entry.take() {
                Some(d) => self.resume_stmt(m, frame, &stmts[i], target, d)?,
                None => self.exec_stmt(m, frame, &stmts[i])?,
            };
            match flow {
                Flow::Normal => i += 1,
                Flow::Goto(l) => match stmts.iter().position(|s| s.label == Some(l)) {
                    Some(j) => i = j,
                    None => return Ok(Flow::Goto(l)),
                },
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Descend into one statement containing `target` without re-running
    /// anything before it, consuming one [`DoProgress`] per counted-loop
    /// level. The target statement itself executes normally. No entry
    /// `tick` is charged for re-entered structures — the uninterrupted
    /// run already counted those before the snapshot was written.
    fn resume_stmt(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &'p Stmt,
        target: StmtId,
        dos: &[DoProgress],
    ) -> Result<Flow, RunError> {
        if s.id == target {
            if !dos.is_empty() {
                return Err(RunError::new(format!(
                    "resume cursor has {} unconsumed do level(s) at the target",
                    dos.len()
                ))
                .at(s.line));
            }
            return self.exec_stmt(m, frame, s);
        }
        match &s.kind {
            StmtKind::Do { var, body, .. } => {
                let Some((d, rest)) = dos.split_first() else {
                    return Err(RunError::new(format!(
                        "resume cursor exhausted entering `do {var}`"
                    ))
                    .at(s.line));
                };
                if d.var != *var {
                    return Err(RunError::new(format!(
                        "resume cursor mismatch: expected `do {}`, found `do {var}`",
                        d.var
                    ))
                    .at(s.line));
                }
                let RStmt::Do { var: slot, .. } = *self.resolved(frame, s) else {
                    unreachable!("a `do` resolves to `RStmt::Do`")
                };
                let track = self.track && self.depth == 0;
                if track {
                    self.cursor.push(d.clone());
                }
                let res = self.resume_do(m, frame, slot, body, target, d, rest, track);
                if track {
                    self.cursor.pop();
                }
                res
            }
            StmtKind::If {
                then,
                else_ifs,
                els,
                ..
            } => {
                // the arm is identified statically — the restored scalars
                // would re-derive the same choice, but the checkpointed
                // run *was* inside this arm, so no condition re-evaluation
                // (with its flop counts) may run twice
                if then.iter().any(|c| contains_stmt(c, target)) {
                    return self.resume_stmts(m, frame, then, target, dos);
                }
                for (_, b) in else_ifs {
                    if b.iter().any(|c| contains_stmt(c, target)) {
                        return self.resume_stmts(m, frame, b, target, dos);
                    }
                }
                if let Some(b) = els {
                    if b.iter().any(|c| contains_stmt(c, target)) {
                        return self.resume_stmts(m, frame, b, target, dos);
                    }
                }
                Err(RunError::new("resume target vanished inside `if`").at(s.line))
            }
            StmtKind::LogicalIf { stmt, .. } => self.resume_stmt(m, frame, stmt, target, dos),
            StmtKind::DoWhile { body, .. } => {
                let r = self.resolved(frame, s);
                let RStmt::While(cond) = &*r else {
                    unreachable!("a `do while` resolves to `RStmt::While`")
                };
                // no saved state: finish the interrupted iteration from
                // the target onward, then let the condition drive the rest
                let mut flow = self.resume_stmts(m, frame, body, target, dos)?;
                if flow == Flow::Normal {
                    flow = self.exec_while(m, frame, cond, body, s.line)?;
                }
                Ok(flow)
            }
            _ => Err(RunError::new("resume target inside an unexpected statement").at(s.line)),
        }
    }

    /// Re-enter one counted `do` loop mid-flight: set the variable to the
    /// interrupted iteration's value, finish that iteration from the
    /// target onward, run the remaining full trips, and leave the
    /// variable one past the end — exactly where the unsplit execution
    /// would have left it.
    #[allow(clippy::too_many_arguments)]
    fn resume_do(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        var: u32,
        body: &'p [Stmt],
        target: StmtId,
        d: &DoProgress,
        rest: &[DoProgress],
        track: bool,
    ) -> Result<Flow, RunError> {
        frame.store(var, Value::Int(d.iv))?;
        let mut iv = d.iv;
        let mut flow = self.resume_stmts(m, frame, body, target, rest)?;
        if flow == Flow::Normal {
            iv += d.step;
            for k in 0..d.remaining {
                if track {
                    let c = self
                        .cursor
                        .last_mut()
                        .expect("cursor entry pushed by caller");
                    c.iv = iv;
                    c.remaining = d.remaining - 1 - k;
                }
                frame.store(var, Value::Int(iv))?;
                match self.exec_stmts(m, frame, body)? {
                    Flow::Normal => {}
                    other => {
                        flow = other;
                        break;
                    }
                }
                iv += d.step;
            }
        }
        if flow == Flow::Normal {
            frame.store(var, Value::Int(iv))?;
        }
        Ok(flow)
    }

    /// Evaluate an `if` or `do while` condition; its errors carry the
    /// statement's line.
    fn cond(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        c: &RExpr<'p>,
        line: u32,
    ) -> Result<bool, RunError> {
        let v = self.eval(m, frame, c).map_err(|e| e.at(line))?;
        v.as_bool().map_err(|e| e.at(line))
    }

    /// Evaluate a `do` bound or step; its errors carry the statement's line.
    fn bound(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        e: &RExpr<'p>,
        line: u32,
    ) -> Result<i64, RunError> {
        let v = self.eval(m, frame, e).map_err(|e| e.at(line))?;
        v.as_i64().map_err(|e| e.at(line))
    }

    /// A `do` statement's evaluated `(from, to, step)`.
    fn do_range(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        r: &RStmt<'p>,
        line: u32,
    ) -> Result<(i64, i64, i64), RunError> {
        let RStmt::Do { from, to, step, .. } = r else {
            unreachable!("a `do` resolves to `RStmt::Do`")
        };
        let from = self.bound(m, frame, from, line)?;
        let to = self.bound(m, frame, to, line)?;
        let step = match step {
            Some(e) => self.bound(m, frame, e, line)?,
            None => 1,
        };
        if step == 0 {
            return Err(RunError::new("zero do-loop step").at(line));
        }
        Ok((from, to, step))
    }

    /// A `do while` loop from its condition on: one tick per test.
    fn exec_while(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        cond: &RExpr<'p>,
        body: &'p [Stmt],
        line: u32,
    ) -> Result<Flow, RunError> {
        loop {
            m.tick().map_err(|e| e.at(line))?;
            if !self.cond(m, frame, cond, line)? {
                return Ok(Flow::Normal);
            }
            match self.exec_stmts(m, frame, body)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
    }

    /// Run `s` as its compiled kernel when there is one and its entry
    /// check passes; `false` leaves the tree walk an identical state
    /// (`begin` is side-effect free). The unsplit path has charged the
    /// statement's tick already; a split chunk's kernel charges its own,
    /// exactly like [`Exec::exec_stmt_clamped`] does per chunk.
    fn run_kernel(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &Stmt,
        clamp: Option<(&LoopSplit, KernelClamp)>,
    ) -> Result<bool, RunError> {
        let Some(ks) = self.kernels else {
            return Ok(false);
        };
        let Some(k) = ks.get(s.id) else {
            return Ok(false);
        };
        let Some(ready) = k.begin(frame, clamp) else {
            return Ok(false);
        };
        k.run(ks, ready, m, frame, clamp.is_none())?;
        Ok(true)
    }

    fn exec_stmt(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &'p Stmt,
    ) -> Result<Flow, RunError> {
        m.tick().map_err(|e| e.at(s.line))?;
        if let StmtKind::Do { .. } = s.kind {
            if let Some(split) = self.hooks.split_loop(m, s)? {
                return self.exec_split_do(m, frame, s, &split);
            }
            if self.run_kernel(m, frame, s, None)? {
                return Ok(Flow::Normal);
            }
        }
        let r = self.resolved(frame, s);
        match (&s.kind, &*r) {
            (StmtKind::Assign { .. }, RStmt::Assign { target, value }) => {
                let v = self.eval(m, frame, value).map_err(|e| e.at(s.line))?;
                self.assign(m, frame, target, v).map_err(|e| e.at(s.line))?;
                Ok(Flow::Normal)
            }
            (
                StmtKind::If {
                    then,
                    else_ifs,
                    els,
                    ..
                },
                RStmt::Conds(conds),
            ) => {
                let arms = std::iter::once(then).chain(else_ifs.iter().map(|(_, b)| b));
                for (c, body) in conds.iter().zip(arms) {
                    if self.cond(m, frame, c, s.line)? {
                        return self.exec_stmts(m, frame, body);
                    }
                }
                match els {
                    Some(body) => self.exec_stmts(m, frame, body),
                    None => Ok(Flow::Normal),
                }
            }
            (StmtKind::LogicalIf { stmt, .. }, RStmt::Conds(conds)) => {
                if self.cond(m, frame, &conds[0], s.line)? {
                    self.exec_stmt(m, frame, stmt)
                } else {
                    Ok(Flow::Normal)
                }
            }
            (StmtKind::Do { var, body, .. }, RStmt::Do { var: slot, .. }) => {
                let (from, to, step) = self.do_range(m, frame, &r, s.line)?;
                // Fortran trip count semantics
                let trips = ((to - from + step) / step).max(0);
                let track = self.track && self.depth == 0;
                if track {
                    self.cursor.push(DoProgress {
                        var: var.clone(),
                        iv: from,
                        step,
                        remaining: trips.max(1) as u64 - 1,
                    });
                }
                let mut iv = from;
                let mut flow = Flow::Normal;
                for k in 0..trips {
                    if track {
                        let d = self.cursor.last_mut().expect("cursor entry pushed above");
                        d.iv = iv;
                        d.remaining = (trips - 1 - k) as u64;
                    }
                    frame.store(*slot, Value::Int(iv))?;
                    match self.exec_stmts(m, frame, body)? {
                        Flow::Normal => {}
                        other => {
                            flow = other;
                            break;
                        }
                    }
                    iv += step;
                }
                if track {
                    self.cursor.pop();
                }
                if flow == Flow::Normal {
                    // Fortran leaves the loop variable one past the last value
                    frame.store(*slot, Value::Int(iv))?;
                }
                Ok(flow)
            }
            (StmtKind::DoWhile { body, .. }, RStmt::While(cond)) => {
                self.exec_while(m, frame, cond, body, s.line)
            }
            (StmtKind::Goto { target }, _) => Ok(Flow::Goto(*target)),
            (StmtKind::Continue, _) => Ok(Flow::Normal),
            (StmtKind::Return, _) => Ok(Flow::Return),
            (StmtKind::Stop, _) => Ok(Flow::Stop),
            (StmtKind::Call { name, .. }, RStmt::Call { unit, args }) => {
                if name.starts_with("acf_") {
                    self.end_compute();
                    if self.track && self.depth == 0 {
                        self.hooks.hook_site(s.id, &self.cursor);
                    }
                    let handled = self.hooks.call(m, frame, name);
                    self.begin_compute();
                    if handled? {
                        return Ok(Flow::Normal);
                    }
                }
                self.call_subroutine(m, frame, name, *unit, args)
                    .map_err(|e| e.at(s.line))?;
                Ok(Flow::Normal)
            }
            (StmtKind::Read { .. }, RStmt::Read(items)) => {
                for lv in items.iter() {
                    let v = m
                        .input
                        .pop_front()
                        .ok_or_else(|| RunError::new("input exhausted").at(s.line))?;
                    self.assign(m, frame, lv, Value::Real(v))
                        .map_err(|e| e.at(s.line))?;
                }
                Ok(Flow::Normal)
            }
            (StmtKind::Write { .. }, RStmt::Write(items)) => {
                let mut parts = Vec::with_capacity(items.len());
                for item in items.iter() {
                    parts.push(match item {
                        RItem::Text(t) => t.to_string(),
                        RItem::Value(e) => {
                            match self.eval(m, frame, e).map_err(|e| e.at(s.line))? {
                                Value::Int(i) => i.to_string(),
                                Value::Real(r) => format!("{r:.6}"),
                                Value::Logical(b) => if b { "T" } else { "F" }.to_string(),
                            }
                        }
                    });
                }
                // unit selection: all output is captured together
                m.output.push(parts.join(" "));
                Ok(Flow::Normal)
            }
            _ => unreachable!("a statement resolves to the form of its kind"),
        }
    }

    /// Execute a `do` statement the hooks asked to split: interior
    /// chunk (recorded as an [`EventKind::Overlap`] span — the time the
    /// in-flight exchange hides), then `finish_split`, then the two
    /// boundary strips. Iteration *order* differs from the unsplit loop
    /// but the set of iterations is identical, and the restructurer
    /// only emits splits for nests whose iterations are independent.
    fn exec_split_do(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &'p Stmt,
        split: &LoopSplit,
    ) -> Result<Flow, RunError> {
        self.end_compute();
        let t0 = Instant::now();
        self.exec_chunk(m, frame, s, split, Clamp::Interior)?;
        if let Some(rec) = self.hooks.recorder() {
            rec.record_span(EventKind::Overlap, t0, Instant::now());
        }
        let finished = self.hooks.finish_split(m, frame);
        self.begin_compute();
        finished?;
        self.exec_chunk(m, frame, s, split, Clamp::Low)?;
        self.exec_chunk(m, frame, s, split, Clamp::High)?;
        self.finalize_split_var(m, frame, s, split)
    }

    /// One chunk of a split loop: through the compiled kernel when one
    /// is available and its entry check passes (the kernel re-enters
    /// per chunk — boundary scalars differ between chunks), else the
    /// clamped tree walk.
    fn exec_chunk(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &'p Stmt,
        split: &LoopSplit,
        mode: Clamp,
    ) -> Result<(), RunError> {
        let kc = match mode {
            Clamp::Interior => KernelClamp::Interior,
            Clamp::Low => KernelClamp::Low,
            Clamp::High => KernelClamp::High,
        };
        if self.run_kernel(m, frame, s, Some((split, kc)))? {
            return Ok(());
        }
        let flow = self.exec_stmt_clamped(m, frame, s, split, mode)?;
        ensure_normal(flow, s.line)
    }

    /// Leave the clamped variable where the unsplit loop would: one past
    /// `to` after a nonempty range, else at `from`. Every other variable
    /// already matches — outer prefix loops run their full range in each
    /// chunk, and loops inside the clamped one have chunk-invariant
    /// bounds (the restructurer rejects nest-variable-dependent bounds),
    /// so any complete body execution leaves them at the same values.
    fn finalize_split_var(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &'p Stmt,
        split: &LoopSplit,
    ) -> Result<Flow, RunError> {
        let mut cur = s;
        loop {
            let StmtKind::Do { var, body, .. } = &cur.kind else {
                return Err(RunError::new("split loop's perfect-nest prefix is broken").at(s.line));
            };
            if *var == split.var {
                let r = self.resolved(frame, cur);
                let RStmt::Do { var, from, to, .. } = &*r else {
                    unreachable!("a `do` resolves to `RStmt::Do`")
                };
                let f = self.bound(m, frame, from, cur.line)?;
                let t = self.bound(m, frame, to, cur.line)?;
                frame.store(*var, Value::Int(f + (t - f + 1).max(0)))?;
                return Ok(Flow::Normal);
            }
            let [inner] = body.as_slice() else {
                return Err(RunError::new("split loop's perfect-nest prefix is broken").at(s.line));
            };
            cur = inner;
        }
    }

    /// Statement-list execution for one chunk of a split loop; mirrors
    /// [`Exec::exec_stmts`].
    fn exec_stmts_clamped(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        stmts: &'p [Stmt],
        split: &LoopSplit,
        mode: Clamp,
    ) -> Result<Flow, RunError> {
        let mut i = 0usize;
        while i < stmts.len() {
            match self.exec_stmt_clamped(m, frame, &stmts[i], split, mode)? {
                Flow::Normal => i += 1,
                Flow::Goto(l) => match stmts.iter().position(|s| s.label == Some(l)) {
                    Some(j) => i = j,
                    None => return Ok(Flow::Goto(l)),
                },
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Execute one statement of a split chunk: the `do` whose variable
    /// matches the split is clamped to the chunk's sub-range; other
    /// structured statements recurse so the clamp reaches it; everything
    /// else runs normally.
    fn exec_stmt_clamped(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        s: &'p Stmt,
        split: &LoopSplit,
        mode: Clamp,
    ) -> Result<Flow, RunError> {
        if !matches!(
            s.kind,
            StmtKind::Do { .. } | StmtKind::If { .. } | StmtKind::LogicalIf { .. }
        ) {
            return self.exec_stmt(m, frame, s);
        }
        m.tick().map_err(|e| e.at(s.line))?;
        let r = self.resolved(frame, s);
        match (&s.kind, &*r) {
            (StmtKind::Do { var, body, .. }, RStmt::Do { var: slot, .. }) => {
                let (f, t, step) = self.do_range(m, frame, &r, s.line)?;
                let clamped = *var == split.var;
                let (f, t, step) = if clamped {
                    if step != 1 {
                        return Err(RunError::new("overlapped loop must have unit step").at(s.line));
                    }
                    let (cf, ct) = clamp_range(f, t, split, mode);
                    (cf, ct, 1)
                } else {
                    (f, t, step)
                };
                let trips = ((t - f + step) / step).max(0);
                let mut iv = f;
                let mut flow = Flow::Normal;
                for _ in 0..trips {
                    frame.store(*slot, Value::Int(iv))?;
                    // below the clamped loop the body runs unmodified
                    let r = if clamped {
                        self.exec_stmts(m, frame, body)?
                    } else {
                        self.exec_stmts_clamped(m, frame, body, split, mode)?
                    };
                    match r {
                        Flow::Normal => {}
                        other => {
                            flow = other;
                            break;
                        }
                    }
                    iv += step;
                }
                if flow == Flow::Normal {
                    frame.store(*slot, Value::Int(iv))?;
                }
                Ok(flow)
            }
            (
                StmtKind::If {
                    then,
                    else_ifs,
                    els,
                    ..
                },
                RStmt::Conds(conds),
            ) => {
                let arms = std::iter::once(then).chain(else_ifs.iter().map(|(_, b)| b));
                for (c, body) in conds.iter().zip(arms) {
                    if self.cond(m, frame, c, s.line)? {
                        return self.exec_stmts_clamped(m, frame, body, split, mode);
                    }
                }
                match els {
                    Some(body) => self.exec_stmts_clamped(m, frame, body, split, mode),
                    None => Ok(Flow::Normal),
                }
            }
            (StmtKind::LogicalIf { stmt, .. }, RStmt::Conds(conds)) => {
                if self.cond(m, frame, &conds[0], s.line)? {
                    self.exec_stmt_clamped(m, frame, stmt, split, mode)
                } else {
                    Ok(Flow::Normal)
                }
            }
            _ => unreachable!("a statement resolves to the form of its kind"),
        }
    }

    /// Assign `v` to a scalar or array element.
    fn assign(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        lv: &RLValue<'p>,
        v: Value,
    ) -> Result<(), RunError> {
        if lv.indices.is_empty() {
            if frame.array(lv.slot).is_some() {
                return Err(RunError::new(format!(
                    "whole-array assignment to `{}` is not supported",
                    lv.name
                )));
            }
            frame.store(lv.slot, v)
        } else {
            let id = frame.array(lv.slot).ok_or_else(|| {
                RunError::new(format!("`{}` subscripted but not an array", lv.name))
            })?;
            let idx = self.subscripts(m, frame, &lv.indices)?;
            m.ops.stores += 1;
            m.array_mut(id).set(&idx, v.as_f64()?)
        }
    }

    /// Call a user subroutine.
    fn call_subroutine(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        name: &str,
        unit: Option<(usize, &'p Unit)>,
        args: &[RExpr<'p>],
    ) -> Result<(), RunError> {
        let (ix, unit) =
            unit.ok_or_else(|| RunError::new(format!("unknown subroutine `{name}`")))?;
        if unit.kind != UnitKind::Subroutine {
            return Err(RunError::new(format!("`{name}` is not a subroutine")));
        }
        let names = self.code.names(ix);
        let (bound, copy_backs) = self.make_bindings(m, frame, unit, names, args)?;
        let mut callee = build_frame(m, unit, names, bound)?;
        self.enter_call(name)?;
        let flow = self.exec_stmts(m, &mut callee, &unit.body)?;
        self.depth -= 1;
        if let Flow::Goto(l) = flow {
            return Err(RunError::new(format!("unresolved goto {l} in `{name}`")));
        }
        if flow == Flow::Stop {
            return Err(RunError::new("stop inside subroutine"));
        }
        for (dummy, caller) in copy_backs {
            frame.store(caller, callee.scalar(dummy))?;
        }
        Ok(())
    }

    /// Call a user function (from expression context).
    pub(crate) fn call_function(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        name: &str,
        unit: Option<(usize, &'p Unit)>,
        args: &[RExpr<'p>],
    ) -> Result<Value, RunError> {
        let (ix, unit) =
            unit.ok_or_else(|| RunError::new(format!("unknown array or function `{name}`")))?;
        if unit.kind != UnitKind::Function {
            return Err(RunError::new(format!("`{name}` is not a function")));
        }
        let names = self.code.names(ix);
        let (bound, _) = self.make_bindings(m, frame, unit, names, args)?;
        let mut callee = build_frame(m, unit, names, bound)?;
        self.enter_call(name)?;
        let flow = self.exec_stmts(m, &mut callee, &unit.body)?;
        self.depth -= 1;
        if let Flow::Goto(l) = flow {
            return Err(RunError::new(format!("unresolved goto {l} in `{name}`")));
        }
        // the function's return value is the final value of its own name
        Ok(callee.scalar(OWN_NAME))
    }

    fn enter_call(&mut self, name: &str) -> Result<(), RunError> {
        self.depth += 1;
        if self.depth > 200 {
            return Err(RunError::new(format!(
                "call depth exceeded at `{name}` (recursion is not allowed in Fortran 77)"
            )));
        }
        Ok(())
    }

    /// Bind actual arguments to `unit`'s dummies: a variable naming an
    /// array passes it by reference, any other variable by value with a
    /// copy-back, any other expression by value.
    fn make_bindings(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        unit: &Unit,
        names: &Names,
        args: &[RExpr<'p>],
    ) -> Result<(Vec<(u32, Binding)>, CopyBacks), RunError> {
        if args.len() != unit.params.len() {
            return Err(RunError::new(format!(
                "`{}` expects {} arguments, got {}",
                unit.name,
                unit.params.len(),
                args.len()
            )));
        }
        let mut bound = Vec::with_capacity(args.len());
        let mut copy_backs = Vec::new();
        for (&param, actual) in names.params().iter().zip(args) {
            let b = match actual {
                RExpr::Var(slot, _) => match frame.array(*slot) {
                    Some(id) => Binding::Array(id),
                    None => {
                        copy_backs.push((param, *slot));
                        Binding::Scalar(frame.scalar(*slot))
                    }
                },
                other => Binding::Scalar(self.eval(m, frame, other)?),
            };
            bound.push((param, b));
        }
        Ok((bound, copy_backs))
    }
}

/// Tree-walk `file`'s main program to completion with no hooks and no
/// statement budget (test shorthand for [`run_program`]).
#[cfg(test)]
pub(crate) fn tree_walk(file: &SourceFile, input: Vec<f64>) -> Result<Machine, RunError> {
    run_program(file, input, &mut NoHooks, 0, None).map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;

    fn run(src: &str) -> Machine {
        tree_walk(&parse(src).unwrap(), vec![]).unwrap()
    }

    fn run_with_input(src: &str, input: Vec<f64>) -> Machine {
        tree_walk(&parse(src).unwrap(), input).unwrap()
    }

    fn last_output(m: &Machine) -> &str {
        m.output.last().map(String::as_str).unwrap_or("")
    }

    #[test]
    fn arithmetic_and_write() {
        let m = run("      program p\n      x = 1.5 + 2.5 * 2.0\n      write(*,*) x\n      end\n");
        assert_eq!(last_output(&m), "6.500000");
    }

    #[test]
    fn integer_division_truncates() {
        let m = run("      program p\n      i = 7 / 2\n      write(*,*) i\n      end\n");
        assert_eq!(last_output(&m), "3");
    }

    #[test]
    fn do_loop_sum() {
        let m = run("      program p
      s = 0.0
      do i = 1, 10
        s = s + i
      end do
      write(*,*) s
      end
");
        assert_eq!(last_output(&m), "55.000000");
    }

    #[test]
    fn do_loop_with_negative_step() {
        let m = run("      program p
      s = 0.0
      do i = 10, 1, -2
        s = s + i
      end do
      write(*,*) s, i
      end
");
        // 10+8+6+4+2 = 30; loop var ends at 0
        assert_eq!(last_output(&m), "30.000000 0");
    }

    #[test]
    fn zero_trip_loop() {
        let m = run("      program p
      s = 1.0
      do i = 5, 1
        s = 99.0
      end do
      write(*,*) s
      end
");
        assert_eq!(last_output(&m), "1.000000");
    }

    #[test]
    fn labeled_do_and_goto_loop() {
        let m = run("      program p
      x = 0.0
      k = 0
100   continue
      x = x + 1.0
      k = k + 1
      if (k .lt. 5) goto 100
      write(*,*) x
      end
");
        assert_eq!(last_output(&m), "5.000000");
    }

    #[test]
    fn goto_out_of_loop() {
        let m = run("      program p
      s = 0.0
      do i = 1, 100
        s = s + 1.0
        if (s .ge. 3.0) goto 200
      end do
200   continue
      write(*,*) s
      end
");
        assert_eq!(last_output(&m), "3.000000");
    }

    #[test]
    fn if_elseif_else() {
        let m = run("      program p
      do i = 1, 3
        if (i .eq. 1) then
          write(*,*) 'one'
        else if (i .eq. 2) then
          write(*,*) 'two'
        else
          write(*,*) 'many'
        end if
      end do
      end
");
        assert_eq!(m.output, vec!["one", "two", "many"]);
    }

    #[test]
    fn do_while_loop() {
        let m = run("      program p
      x = 1.0
      do while (x .lt. 100.0)
        x = x * 2.0
      end do
      write(*,*) x
      end
");
        assert_eq!(last_output(&m), "128.000000");
    }

    #[test]
    fn arrays_2d() {
        let m = run("      program p
      real a(3,3)
      do i = 1, 3
        do j = 1, 3
          a(i,j) = i * 10 + j
        end do
      end do
      write(*,*) a(2,3)
      end
");
        assert_eq!(last_output(&m), "23.000000");
    }

    #[test]
    fn subroutine_with_array_by_reference() {
        let m = run("      program p
      real v(4)
      call fill(v, 4)
      write(*,*) v(1), v(4)
      end
      subroutine fill(v, n)
      integer n
      real v(n)
      do i = 1, n
        v(i) = i * 2.0
      end do
      return
      end
");
        assert_eq!(last_output(&m), "2.000000 8.000000");
    }

    #[test]
    fn subroutine_scalar_copy_back() {
        let m = run("      program p
      real v(3)
      v(1) = 5.0
      v(2) = 9.0
      v(3) = 2.0
      big = 0.0
      call findmax(v, 3, big)
      write(*,*) big
      end
      subroutine findmax(v, n, big)
      integer n
      real v(n), big
      big = v(1)
      do i = 2, n
        if (v(i) .gt. big) big = v(i)
      end do
      return
      end
");
        assert_eq!(last_output(&m), "9.000000");
    }

    #[test]
    fn user_function_call() {
        let m = run("      program p
      x = sq(3.0) + sq(4.0)
      write(*,*) x
      end
      real function sq(a)
      real a
      sq = a * a
      return
      end
");
        assert_eq!(last_output(&m), "25.000000");
    }

    #[test]
    fn read_statement() {
        let m = run_with_input(
            "      program p
      real v(2)
      read *, n
      read(5,*) v(1), v(2)
      write(*,*) n, v(1) + v(2)
      end
",
            vec![7.0, 1.5, 2.5],
        );
        assert_eq!(last_output(&m), "7 4.000000");
    }

    #[test]
    fn input_exhausted_errors() {
        let r = tree_walk(
            &parse("      program p\n      read *, x\n      end\n").unwrap(),
            vec![],
        );
        assert!(r.is_err());
    }

    #[test]
    fn stop_terminates() {
        let m = run("      program p
      write(*,*) 'before'
      stop
      write(*,*) 'after'
      end
");
        assert_eq!(m.output, vec!["before"]);
    }

    #[test]
    fn jacobi_converges() {
        // a real CFD kernel: Jacobi on a 10x10 grid with fixed boundary 1.0
        let m = run("      program jacobi
      real v(10,10), vn(10,10)
      do i = 1, 10
        v(i,1) = 1.0
        v(i,10) = 1.0
        v(1,i) = 1.0
        v(10,i) = 1.0
      end do
      do it = 1, 500
        err = 0.0
        do i = 2, 9
          do j = 2, 9
            vn(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
        do i = 2, 9
          do j = 2, 9
            d = abs(vn(i,j) - v(i,j))
            if (d .gt. err) err = d
            v(i,j) = vn(i,j)
          end do
        end do
        if (err .lt. 1.0e-6) goto 900
      end do
900   continue
      write(*,*) v(5,5)
      end
");
        // harmonic with constant boundary = 1 everywhere
        let v: f64 = last_output(&m).parse().unwrap();
        assert!((v - 1.0).abs() < 1e-4, "v(5,5) = {v}");
    }

    #[test]
    fn statement_budget_stops_runaway() {
        let r = run_program(
            &parse(
                "      program p
      x = 0.0
100   continue
      x = x + 1.0
      goto 100
      end
",
            )
            .unwrap(),
            vec![],
            &mut NoHooks,
            10_000,
            None,
        );
        assert!(r.is_err());
    }

    /// Run `file`'s main body and keep the machine whatever the outcome,
    /// so a failed run's partial stores and counters can be compared.
    fn run_keeping_state(
        file: &SourceFile,
        limit: u64,
        kernels: Option<&KernelSet>,
    ) -> (Result<(), RunError>, Machine) {
        let mut m = Machine::new(vec![]);
        m.stmt_limit = limit;
        let code = Code::new(file);
        let main = main_unit(file).unwrap();
        let unit = &file.units[main];
        let mut frame = build_frame(&mut m, unit, code.names(main), Vec::new()).unwrap();
        let mut hooks = NoHooks;
        let mut exec = Exec::new(&code, &mut hooks, kernels);
        let res = exec.exec_stmts(&mut m, &mut frame, &unit.body).map(|_| ());
        (res, m)
    }

    /// A failing run must leave the same error, the same partial stores
    /// and the same counters under the kernel engine as under the tree
    /// walk, however far into a row the failure sits.
    fn assert_failures_match(src: &str, limits: impl Iterator<Item = u64>) {
        let file = parse(src).unwrap();
        let set = KernelSet::build(&file, None, 1);
        assert!(!set.nests().is_empty(), "the nest must run as a kernel");
        for limit in limits {
            let (tr, tm) = run_keeping_state(&file, limit, None);
            let (kr, km) = run_keeping_state(&file, limit, Some(&set));
            assert_eq!(tr, kr, "budget {limit}: message and line");
            assert_eq!(tm.ops, km.ops, "budget {limit}: counters at the end");
            for (a, b) in tm.arrays.iter().zip(&km.arrays) {
                let bits = |v: &crate::value::ArrayVal| {
                    v.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(a), bits(b), "budget {limit}: stores at the end");
            }
        }
    }

    #[test]
    fn statement_budget_exhausted_mid_row_matches_tree_walk() {
        // 1 + 6*(1 + 2*9) = 115 statements: every budget that runs out
        // does so at some statement of some trip of some row, and the
        // rows before it still run as rows
        assert_failures_match(
            "      program p
      real a(12,8), b(12,8)
      integer i, j
      do j = 2, 7
        do i = 2, 10
          b(i,j) = 1.5*i + j
          a(i,j) = 0.5*(b(i-1,j) + b(i,j))
        end do
      end do
      end
",
            1..=120,
        );
    }

    #[test]
    fn row_stepping_out_of_bounds_mid_body_matches_tree_walk() {
        // the last trip's second statement reads b(13,j): the first
        // statement of that trip, and every trip before it, already stored
        assert_failures_match(
            "      program p
      real a(12,8), b(12,8)
      integer i, j
      do j = 2, 7
        do i = 2, 12
          a(i,j) = 1.5*i + j
          b(i,j) = 0.5*(a(i,j) + b(i+1,j))
        end do
      end do
      end
",
            [0, 30, 1000].into_iter(),
        );
    }

    /// `src`'s error text under the tree walk, after checking the kernel
    /// engine reports the identical text.
    fn error_on_both_engines(src: &str, kernel_nests: bool) -> String {
        let file = parse(src).unwrap();
        let set = KernelSet::build(&file, None, 1);
        assert_eq!(
            !set.nests().is_empty(),
            kernel_nests,
            "kernel nests of\n{src}"
        );
        let (tree, _) = run_keeping_state(&file, 0, None);
        let (kernel, _) = run_keeping_state(&file, 0, Some(&set));
        let tree = tree.unwrap_err().to_string();
        assert_eq!(
            tree,
            kernel.unwrap_err().to_string(),
            "engines differ on\n{src}"
        );
        tree
    }

    #[test]
    fn condition_and_bound_errors_carry_their_statements_line() {
        let cases = [
            (
                "      program p
      integer n
      n = 0
      if (1/n .eq. 0) x = 1.0
      end
",
                false,
                "runtime error at line 4: integer division by zero",
            ),
            (
                "      program p
      real v(3)
      n = 0
      do i = 1, 3/n
        v(i) = 1.0
      end do
      end
",
                true,
                "runtime error at line 4: integer division by zero",
            ),
            (
                "      program p
      real v(3)
      n = 5
      do while (v(n) .lt. 1.0)
        v(1) = 2.0
      end do
      end
",
                false,
                "runtime error at line 4: subscript 5 out of bounds 1:3 in dimension 1",
            ),
            // not the line of the call that entered the subroutine
            (
                "      program p
      real v(3)
      n = 5
      call s(v, n)
      end
      subroutine s(v, n)
      real v(3)
      if (v(n) .gt. 0.0) v(1) = 1.0
      return
      end
",
                false,
                "runtime error at line 8: subscript 5 out of bounds 1:3 in dimension 1",
            ),
            // inside a compiled nest: a logical `if`, and the `else if`
            // of a block `if`, which belongs to the `if` statement
            (
                "      program p
      real v(3)
      do i = 1, 3
        if (v(i+4) .gt. 0.0) v(i) = 1.0
      end do
      end
",
                true,
                "runtime error at line 4: subscript 5 out of bounds 1:3 in dimension 1",
            ),
            (
                "      program p
      real v(3)
      do i = 1, 3
        if (v(i) .gt. 1.0) then
          v(i) = 0.0
        else if (v(i+4) .gt. 0.0) then
          v(i) = 1.0
        end if
      end do
      end
",
                true,
                "runtime error at line 4: subscript 5 out of bounds 1:3 in dimension 1",
            ),
        ];
        for (src, kernel_nests, want) in cases {
            assert_eq!(error_on_both_engines(src, kernel_nests), want, "{src}");
        }
    }

    #[test]
    fn character_literals_are_only_write_items() {
        let m = run("      program p\n      write(*,*) 'abc', 1\n      end\n");
        assert_eq!(m.output, vec!["abc 1"]);
        let want =
            "runtime error at line 3: character literal 'abc' is only allowed as a `write` item";
        for stmt in [
            "i = 'abc'",
            "x = 'abc'",
            "x = 'abc' + 1.0",
            "if ('abc' .gt. 1.0) x = 1.0",
            "call s('abc')",
            "write(*,*) 'abc' + 1",
        ] {
            let src = format!(
                "      program p\n      x = 0.0\n      {stmt}\n      end\n      subroutine s(a)\n      return\n      end\n"
            );
            let e = tree_walk(&parse(&src).unwrap(), vec![]).unwrap_err();
            assert_eq!(e.to_string(), want, "{stmt}");
        }
    }

    #[test]
    fn statements_sharing_an_id_each_run_as_written() {
        // `SourceFile` is plain data: a hand-built one may repeat an id
        // the parser would never repeat
        let mut file = parse(
            "      program p\n      x = 1.0\n      y = 2.0\n      write(*,*) x, y\n      end\n",
        )
        .unwrap();
        let body = &mut file.units[0].body;
        body[1].id = body[0].id;
        let m = tree_walk(&file, vec![]).unwrap();
        assert_eq!(m.output, vec!["1.000000 2.000000"]);
    }

    #[test]
    fn out_of_bounds_reports_line() {
        let err = tree_walk(
            &parse(
                "      program p
      real v(5)
      i = 9
      v(i) = 1.0
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn op_counting() {
        let m = run("      program p
      real v(10)
      do i = 1, 10
        v(i) = i * 2.0
      end do
      s = 0.0
      do i = 1, 10
        s = s + v(i)
      end do
      write(*,*) s
      end
");
        assert_eq!(m.ops.stores, 10);
        assert_eq!(m.ops.loads, 10);
        assert!(m.ops.flops >= 20);
        assert_eq!(last_output(&m), "110.000000");
    }

    #[test]
    fn hooks_intercept_acf_calls() {
        struct CountHook(u32);
        impl Hooks for CountHook {
            fn call(
                &mut self,
                _m: &mut Machine,
                frame: &mut Frame,
                name: &str,
            ) -> Result<bool, RunError> {
                if name == "acf_mark" {
                    self.0 += 1;
                    frame.set_scalar("hookval", Value::Real(42.0))?;
                    return Ok(true);
                }
                Ok(false)
            }
        }
        let mut h = CountHook(0);
        let m = run_program(
            &parse(
                "      program p
      do i = 1, 3
        call acf_mark()
      end do
      write(*,*) hookval
      end
",
            )
            .unwrap(),
            vec![],
            &mut h,
            0,
            None,
        )
        .unwrap()
        .0;
        assert_eq!(h.0, 3);
        assert_eq!(last_output(&m), "42.000000");
    }

    #[test]
    fn split_loops_cover_the_range_and_finalize_the_variable() {
        // A hook that arms splitting at `acf_mark` and splits the next
        // `do i` nest 1/1; the chunked execution must compute exactly
        // what the unsplit loop would, call `finish_split` once, and
        // leave `i` one past the range.
        struct SplitHook {
            armed: bool,
            splits: u32,
            finishes: u32,
        }
        impl Hooks for SplitHook {
            fn call(
                &mut self,
                _m: &mut Machine,
                _frame: &mut Frame,
                name: &str,
            ) -> Result<bool, RunError> {
                if name == "acf_mark" {
                    self.armed = true;
                    return Ok(true);
                }
                Ok(false)
            }
            fn split_loop(
                &mut self,
                _m: &mut Machine,
                stmt: &Stmt,
            ) -> Result<Option<LoopSplit>, RunError> {
                if !self.armed {
                    return Ok(None);
                }
                if let StmtKind::Do { var, .. } = &stmt.kind {
                    if var == "i" {
                        self.armed = false;
                        self.splits += 1;
                        return Ok(Some(LoopSplit {
                            var: "i".into(),
                            low_width: 1,
                            high_width: 1,
                        }));
                    }
                }
                Ok(None)
            }
            fn finish_split(
                &mut self,
                _m: &mut Machine,
                _frame: &mut Frame,
            ) -> Result<(), RunError> {
                self.finishes += 1;
                Ok(())
            }
        }
        let mut h = SplitHook {
            armed: false,
            splits: 0,
            finishes: 0,
        };
        let m = run_program(
            &parse(
                "      program p
      real v(10), w(10)
      do i = 1, 10
        v(i) = i
      end do
      call acf_mark()
      do i = 2, 9
        w(i) = v(i-1) + v(i+1)
      end do
      write(*,*) w(2), w(5), w(9), i
      end
",
            )
            .unwrap(),
            vec![],
            &mut h,
            0,
            None,
        )
        .unwrap()
        .0;
        assert_eq!(h.splits, 1);
        assert_eq!(h.finishes, 1);
        assert_eq!(last_output(&m), "4.000000 10.000000 18.000000 10");
    }

    #[test]
    fn unknown_subroutine_errors() {
        let r = tree_walk(
            &parse("      program p\n      call nosuch(1)\n      end\n").unwrap(),
            vec![],
        );
        assert!(r.unwrap_err().message.contains("unknown subroutine"));
    }

    #[test]
    fn wrong_arity_errors() {
        let r = tree_walk(
            &parse(
                "      program p
      call s(1, 2)
      end
      subroutine s(a)
      real a
      return
      end
",
            )
            .unwrap(),
            vec![],
        );
        assert!(r.unwrap_err().message.contains("expects 1 arguments"));
    }
}

#[cfg(test)]
mod common_tests {
    use super::*;
    use autocfd_fortran::parse;

    #[test]
    fn common_block_arrays_are_shared_across_units() {
        let m = tree_walk(
            &parse(
                "      program p
      common /flow/ v(10)
      call fill()
      write(*,*) v(3)
      end
      subroutine fill()
      common /flow/ v(10)
      do i = 1, 10
        v(i) = i * 1.5
      end do
      return
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap();
        assert_eq!(m.output, vec!["4.500000"]);
    }

    #[test]
    fn distinct_common_blocks_are_distinct_storage() {
        let m = tree_walk(
            &parse(
                "      program p
      common /a/ x(3)
      common /b/ y(3)
      x(1) = 1.0
      y(1) = 2.0
      write(*,*) x(1), y(1)
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap();
        assert_eq!(m.output, vec!["1.000000 2.000000"]);
    }

    #[test]
    fn common_scalars_rejected_with_clear_error() {
        let e = tree_walk(
            &parse(
                "      program p
      common /blk/ s
      s = 1.0
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap_err();
        assert!(e.message.contains("common scalars"), "{e}");
    }
}

#[cfg(test)]
mod recursion_tests {
    use super::*;
    use autocfd_fortran::parse;

    #[test]
    fn direct_recursion_reported() {
        let e = tree_walk(
            &parse(
                "      program p
      call s(1.0)
      end
      subroutine s(x)
      real x
      call s(x)
      return
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap_err();
        assert!(e.message.contains("recursion"), "{e}");
    }

    #[test]
    fn mutual_recursion_reported() {
        let e = tree_walk(
            &parse(
                "      program p
      call a(1.0)
      end
      subroutine a(x)
      real x
      call b(x)
      return
      end
      subroutine b(x)
      real x
      call a(x)
      return
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap_err();
        assert!(e.message.contains("recursion"), "{e}");
    }

    #[test]
    fn deep_but_finite_call_chains_allowed() {
        // 3 levels of calls is fine
        let m = tree_walk(
            &parse(
                "      program p
      call a()
      end
      subroutine a()
      call b()
      return
      end
      subroutine b()
      call c()
      return
      end
      subroutine c()
      write(*,*) 'deep'
      return
      end
",
            )
            .unwrap(),
            vec![],
        )
        .unwrap();
        assert_eq!(m.output, vec!["deep"]);
    }
}
