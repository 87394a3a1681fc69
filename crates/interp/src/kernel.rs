//! Compiled kernels for comm-free loop nests.
//!
//! The tree-walk interpreter re-resolves every scalar by name and boxes
//! every intermediate in a [`Value`] on each iteration of a stencil
//! loop. This module lowers eligible `do` nests once, at plan time,
//! into typed expression trees over integer/real *slots* (scalar
//! registers) and directly-addressed flat `f64` array storage, then
//! executes them with a compact recursive VM — and, when a nest is
//! provably data-parallel in its outermost loop, splits its trips
//! across the vendored `rayon` thread pool.
//!
//! Everything observable is kept bit-exact with the tree walk:
//!
//! * arithmetic follows `eval::binop`/`apply_intrinsic` to the letter
//!   (integer ops wrap and count no flops, any real operand promotes
//!   through `f64` and counts one flop, intrinsics count one flop
//!   before their domain checks);
//! * [`OpCounts`] are accumulated locally and flushed to the
//!   [`Machine`], so `flops/loads/stores/stmts` match the tree walk
//!   exactly, including per-chunk re-ticks of overlap-split roots;
//! * runtime errors reproduce the tree walk's messages and source-line
//!   attribution (evaluation errors carry line 0 unless the statement
//!   arm would have attached one);
//! * scalars are written back through [`Frame::set_scalar`] only for
//!   names the nest statically assigns, preserving the `Int`-vs-`Real`
//!   representation of everything else for checkpoint snapshots.
//!
//! A nest that cannot be proven equivalent is simply not compiled (or
//! not *runnable* for the current frame), and the caller falls back to
//! the tree walk — eligibility is a pure optimization boundary, never
//! a semantics change.

use crate::machine::{ArrayId, Frame, Machine, OpCounts, RunError};
use crate::value::Value;
use autocfd_fortran::ast::{
    BinOp, Expr, LValue, SourceFile, Stmt, StmtId, StmtKind, Type, UnOp, Unit,
};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// Which chunk of an overlap-split loop a kernel invocation covers.
/// Mirrors the interpreter's private clamp modes; geometry is
/// identical to `exec::clamp_range`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClamp {
    /// `[from+low, to-high]` — safe while messages are in flight.
    Interior,
    /// `[from, min(to, from+low-1)]`.
    Low,
    /// `[max(from+low, to-high+1), to]`.
    High,
}

/// Clamp geometry resolved against a kernel: which slot is the split
/// variable plus the boundary widths and chunk selector.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedClamp {
    slot: usize,
    low: i64,
    high: i64,
    mode: KernelClamp,
}

fn kclamp_range(f: i64, t: i64, c: &ResolvedClamp) -> (i64, i64) {
    match c.mode {
        KernelClamp::Interior => (f + c.low, t - c.high),
        KernelClamp::Low => (f, t.min(f + c.low - 1)),
        KernelClamp::High => ((f + c.low).max(t - c.high + 1), t),
    }
}

// ---------------------------------------------------------------------------
// Compiled representation
// ---------------------------------------------------------------------------

/// One pre-resolved affine subscript: `add` plus the value of `slot`
/// (when present). Affine subscripts charge no ops and cannot fail, so
/// collapsing their expression trees at compile time is invisible to
/// everything observable — the post-compile lowering pass rewrites any
/// `i`/`i+c`/`c` subscript into this form so the hot loop skips the
/// recursive evaluator entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Aff {
    slot: Option<u32>,
    add: i64,
}

/// Integer-valued compiled expression.
#[derive(Debug, Clone, PartialEq)]
enum IExpr {
    Const(i64),
    Slot(usize),
    /// `as_i64` truncation of a real value (no ops charged).
    FromReal(Box<RExpr>),
    /// Load from an integer array (`get` rounds, then `as i64`).
    Load(usize, Vec<IExpr>),
    /// `Load` with every subscript affine — fast path, same semantics.
    LoadA(usize, Box<[Aff]>),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
    Div(Box<IExpr>, Box<IExpr>),
    Pow(Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
    /// `abs`/`iabs` on an integer argument (one flop).
    Abs(Box<IExpr>),
    /// `int(x)` (one flop, truncating cast through f64).
    Cvt(Box<RExpr>),
    /// `nint(x)` (one flop, round then cast).
    Nint(Box<RExpr>),
    /// `mod(a, b)` on integers (one flop, zero divisor checked).
    Mod(Box<IExpr>, Box<IExpr>),
    /// All-integer `max`/`min`: folded in f64 like the tree walk, then
    /// cast back (one flop).
    MaxMin(bool, Vec<RExpr>),
}

/// Real-valued compiled expression.
#[derive(Debug, Clone, PartialEq)]
enum RExpr {
    Const(f64),
    Slot(usize),
    FromInt(Box<IExpr>),
    Load(usize, Vec<IExpr>),
    /// `Load` with every subscript affine — fast path, same semantics.
    LoadA(usize, Box<[Aff]>),
    /// Arithmetic with at least one real operand: one flop.
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    Neg(Box<RExpr>),
    Abs(Box<RExpr>),
    Sqrt(Box<RExpr>),
    Exp(Box<RExpr>),
    Log(Box<RExpr>),
    Sin(Box<RExpr>),
    Cos(Box<RExpr>),
    Tan(Box<RExpr>),
    Atan(Box<RExpr>),
    Mod(Box<RExpr>, Box<RExpr>),
    Sign(Box<RExpr>, Box<RExpr>),
    /// `float`/`real`/`dble`: identity on the f64 value, one flop.
    Cvt(Box<RExpr>),
    MaxMin(bool, Vec<RExpr>),
}

/// Boolean-valued compiled expression.
#[derive(Debug, Clone, PartialEq)]
enum BExpr {
    Const(bool),
    /// Relational comparison; both sides through f64, no flop (matches
    /// `eval::binop`).
    Rel(BinOp, Box<RExpr>, Box<RExpr>),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

/// Compiled counted loop.
#[derive(Debug, Clone, PartialEq)]
struct DoLoop {
    var: usize,
    from: IExpr,
    to: IExpr,
    step: Option<IExpr>,
    body: Vec<CStmt>,
    line: u32,
}

/// Compiled statement.
#[derive(Debug, Clone, PartialEq)]
enum CStmt {
    /// Integer slot ← integer expression.
    AssignI {
        slot: usize,
        rhs: IExpr,
        line: u32,
    },
    /// Integer slot ← real expression (`set_scalar` truncates).
    AssignIFromR {
        slot: usize,
        rhs: RExpr,
        line: u32,
    },
    /// Real slot ← real expression (integer RHS pre-wrapped).
    AssignR {
        slot: usize,
        rhs: RExpr,
        line: u32,
    },
    /// Array element store.
    Store {
        arr: usize,
        idx: Vec<IExpr>,
        rhs: RExpr,
        line: u32,
    },
    /// `Store` with every subscript affine — fast path, same semantics.
    StoreA {
        arr: usize,
        idx: Box<[Aff]>,
        rhs: RExpr,
        line: u32,
    },
    If {
        cond: BExpr,
        then: Vec<CStmt>,
        elifs: Vec<(BExpr, Vec<CStmt>)>,
        els: Vec<CStmt>,
        line: u32,
    },
    LogicalIf {
        cond: BExpr,
        stmt: Box<CStmt>,
        line: u32,
    },
    Do(DoLoop),
    /// `continue`: ticks, does nothing.
    Continue {
        line: u32,
    },
}

/// One scalar register of a kernel.
#[derive(Debug, Clone)]
struct SlotInfo {
    name: String,
    is_int: bool,
}

/// One array a kernel touches.
#[derive(Debug, Clone)]
struct ArrInfo {
    name: String,
    is_int: bool,
    written: bool,
}

/// A compiled loop nest, keyed by the root `do` statement's id.
#[derive(Debug)]
pub struct Kernel {
    /// Identity of the root `do` statement this kernel replaces.
    pub id: StmtId,
    root: DoLoop,
    slots: Vec<SlotInfo>,
    arrays: Vec<ArrInfo>,
    /// Slots the nest statically assigns (targets and loop variables);
    /// only these are written back to the frame.
    assigned: Vec<usize>,
    /// Whether outer-loop trips may be split across threads.
    threadable: bool,
}

/// The compiled kernels of one program plus the shared thread pool.
pub struct KernelSet {
    kernels: HashMap<u32, Kernel>,
    pool: Option<rayon::ThreadPool>,
    threads: usize,
}

impl KernelSet {
    /// Compile every eligible nest of `file`. When `hints` is given
    /// (the plan's kernel-nest marking), only listed nests are
    /// compiled; hinted-but-ineligible ids are silently skipped so a
    /// stale or optimistic plan can never change semantics. `threads`
    /// is the worker count for data-parallel nests (1 = sequential).
    pub fn build(file: &SourceFile, hints: Option<&[StmtId]>, threads: usize) -> KernelSet {
        let mut kernels = HashMap::new();
        for unit in &file.units {
            collect_kernels(unit, &unit.body, hints, &mut kernels);
        }
        let threads = threads.max(1);
        let pool = if threads > 1 && kernels.values().any(|k| k.threadable) {
            Some(rayon::ThreadPool::new(threads))
        } else {
            None
        };
        KernelSet {
            kernels,
            pool,
            threads,
        }
    }

    /// An empty set (pure tree-walk execution).
    pub fn empty() -> KernelSet {
        KernelSet {
            kernels: HashMap::new(),
            pool: None,
            threads: 1,
        }
    }

    /// The kernel compiled for a root `do` statement, if any.
    pub fn get(&self, id: StmtId) -> Option<&Kernel> {
        self.kernels.get(&id.0)
    }

    /// Number of compiled kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when no nest was compiled.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ids of compiled nests in ascending order (diagnostics, tests).
    pub fn ids(&self) -> Vec<StmtId> {
        let mut v: Vec<StmtId> = self.kernels.keys().map(|&k| StmtId(k)).collect();
        v.sort_by_key(|s| s.0);
        v
    }
}

/// Ids of every kernel-eligible outermost `do` nest in `file`, in
/// source order. This is the marking the compiler records in the plan
/// (`SpmdPlan::kernel_nests`) so remote executions compile the same
/// kernels as local ones.
pub fn eligible_nests(file: &SourceFile) -> Vec<StmtId> {
    let mut out = Vec::new();
    for unit in &file.units {
        let mut sink = |s: &Stmt, k: Option<Kernel>| {
            if k.is_some() {
                out.push(s.id);
            }
        };
        walk_nests(unit, &unit.body, &mut sink);
    }
    out
}

fn collect_kernels(
    unit: &Unit,
    stmts: &[Stmt],
    hints: Option<&[StmtId]>,
    into: &mut HashMap<u32, Kernel>,
) {
    let mut sink = |s: &Stmt, k: Option<Kernel>| {
        if let Some(k) = k {
            if hints.is_none_or(|h| h.contains(&s.id)) {
                into.insert(s.id.0, k);
            }
        }
    };
    walk_nests(unit, stmts, &mut sink);
}

/// Walk statements, attempting compilation at every outermost `do`;
/// descend into the bodies of everything that did not compile.
fn walk_nests(unit: &Unit, stmts: &[Stmt], sink: &mut impl FnMut(&Stmt, Option<Kernel>)) {
    for s in stmts {
        match &s.kind {
            StmtKind::Do { body, .. } => {
                let k = Compiler::compile(unit, s);
                let missed = k.is_none();
                sink(s, k);
                if missed {
                    walk_nests(unit, body, sink);
                }
            }
            StmtKind::DoWhile { body, .. } => walk_nests(unit, body, sink),
            StmtKind::If {
                then,
                else_ifs,
                els,
                ..
            } => {
                walk_nests(unit, then, sink);
                for (_, b) in else_ifs {
                    walk_nests(unit, b, sink);
                }
                if let Some(b) = els {
                    walk_nests(unit, b, sink);
                }
            }
            StmtKind::LogicalIf { stmt, .. } => walk_nests(unit, std::slice::from_ref(stmt), sink),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Typed compile result of one AST expression.
enum CE {
    I(IExpr),
    R(RExpr),
    B(BExpr),
}

impl CE {
    /// Coerce to a subscript/bound value the way `as_i64` would.
    fn index(self) -> Option<IExpr> {
        match self {
            CE::I(e) => Some(e),
            CE::R(e) => Some(IExpr::FromReal(Box::new(e))),
            CE::B(_) => None,
        }
    }

    /// Coerce to f64 the way `as_f64` would.
    fn real(self) -> Option<RExpr> {
        match self {
            CE::R(e) => Some(e),
            CE::I(e) => Some(RExpr::FromInt(Box::new(e))),
            CE::B(_) => None,
        }
    }

    fn boolean(self) -> Option<BExpr> {
        match self {
            CE::B(e) => Some(e),
            _ => None,
        }
    }
}

struct Compiler<'u> {
    unit: &'u Unit,
    slots: Vec<SlotInfo>,
    slot_ix: HashMap<String, usize>,
    arrays: Vec<ArrInfo>,
    arr_ix: HashMap<String, usize>,
    /// Slots that are loop variables anywhere in the nest.
    loop_slots: HashSet<usize>,
    /// Slots assigned by the nest (targets + loop variables).
    assigned: HashSet<usize>,
    /// True once any scalar `Assign` target was seen (disables
    /// threading — per-iteration scalar state would race).
    scalar_writes: bool,
    /// Array store sites: `(array, subscripts)` for the disjointness
    /// proof.
    stores: Vec<(usize, Vec<IExpr>)>,
    /// Array load sites, for constraining reads of written arrays.
    loads: Vec<(usize, Vec<IExpr>)>,
}

impl<'u> Compiler<'u> {
    /// Compile the nest rooted at `s` (a `do` statement); `None` when
    /// any construct inside escapes the supported subset.
    fn compile(unit: &'u Unit, s: &Stmt) -> Option<Kernel> {
        let mut c = Compiler {
            unit,
            slots: Vec::new(),
            slot_ix: HashMap::new(),
            arrays: Vec::new(),
            arr_ix: HashMap::new(),
            loop_slots: HashSet::new(),
            assigned: HashSet::new(),
            scalar_writes: false,
            stores: Vec::new(),
            loads: Vec::new(),
        };
        let mut root = c.compile_do(s)?;
        let threadable = !c.scalar_writes && c.prove_store_disjointness(&root);
        opt_do(&mut root);
        let mut assigned: Vec<usize> = c.assigned.iter().copied().collect();
        assigned.sort_unstable();
        Some(Kernel {
            id: s.id,
            root,
            slots: c.slots,
            arrays: c.arrays,
            assigned,
            threadable,
        })
    }

    /// Integer-ness of a scalar, matching `Frame::is_integer` (declared
    /// type overrides implicit); `None` for `logical` (unsupported).
    fn scalar_is_int(&self, name: &str) -> Option<bool> {
        match self.unit.type_of(name) {
            Some(Type::Integer) => Some(true),
            Some(Type::Real) | Some(Type::DoublePrecision) => Some(false),
            Some(Type::Logical) => None,
            None => Some(crate::value::implicit_is_integer(name)),
        }
    }

    fn slot(&mut self, name: &str) -> Option<usize> {
        if self.unit.is_array(name) {
            return None; // array used as a scalar — tree walk errors
        }
        if let Some(&i) = self.slot_ix.get(name) {
            return Some(i);
        }
        let is_int = self.scalar_is_int(name)?;
        let i = self.slots.len();
        self.slots.push(SlotInfo {
            name: name.to_string(),
            is_int,
        });
        self.slot_ix.insert(name.to_string(), i);
        Some(i)
    }

    fn array(&mut self, name: &str, written: bool) -> Option<usize> {
        if !self.unit.is_array(name) {
            return None;
        }
        let is_int = self.scalar_is_int(name)?; // same typing rule
        let i = match self.arr_ix.get(name) {
            Some(&i) => i,
            None => {
                let i = self.arrays.len();
                self.arrays.push(ArrInfo {
                    name: name.to_string(),
                    is_int,
                    written: false,
                });
                self.arr_ix.insert(name.to_string(), i);
                i
            }
        };
        if written {
            self.arrays[i].written = true;
        }
        Some(i)
    }

    fn compile_do(&mut self, s: &Stmt) -> Option<DoLoop> {
        let StmtKind::Do {
            var,
            from,
            to,
            step,
            body,
            ..
        } = &s.kind
        else {
            return None;
        };
        let vslot = self.slot(var)?;
        if !self.slots[vslot].is_int {
            return None; // real loop variables stay on the tree walk
        }
        self.loop_slots.insert(vslot);
        self.assigned.insert(vslot);
        let from = self.expr(from)?.index()?;
        let to = self.expr(to)?.index()?;
        let step = match step {
            Some(e) => Some(self.expr(e)?.index()?),
            None => None,
        };
        let body = self.stmts(body)?;
        Some(DoLoop {
            var: vslot,
            from,
            to,
            step,
            body,
            line: s.line,
        })
    }

    fn stmts(&mut self, list: &[Stmt]) -> Option<Vec<CStmt>> {
        // Labels inside the nest are inert: no goto can exist in an
        // eligible nest (`Goto` fails compilation), and a goto outside
        // the nest cannot resolve into a loop body (`exec_stmts` only
        // searches its own statement list).
        list.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> Option<CStmt> {
        match &s.kind {
            StmtKind::Assign { target, value } => self.assign(target, value, s.line),
            StmtKind::Do { .. } => Some(CStmt::Do(self.compile_do(s)?)),
            StmtKind::If {
                cond,
                then,
                else_ifs,
                els,
            } => {
                let cond = self.expr(cond)?.boolean()?;
                let then = self.stmts(then)?;
                let mut elifs = Vec::with_capacity(else_ifs.len());
                for (c, b) in else_ifs {
                    elifs.push((self.expr(c)?.boolean()?, self.stmts(b)?));
                }
                let els = match els {
                    Some(b) => self.stmts(b)?,
                    None => Vec::new(),
                };
                Some(CStmt::If {
                    cond,
                    then,
                    elifs,
                    els,
                    line: s.line,
                })
            }
            StmtKind::LogicalIf { cond, stmt } => {
                let cond = self.expr(cond)?.boolean()?;
                let inner = self.stmt(stmt)?;
                Some(CStmt::LogicalIf {
                    cond,
                    stmt: Box::new(inner),
                    line: s.line,
                })
            }
            StmtKind::Continue => Some(CStmt::Continue { line: s.line }),
            // Calls (communication!), goto/return/stop (escaping
            // control flow), I/O and do-while stay on the tree walk.
            _ => None,
        }
    }

    fn assign(&mut self, lv: &LValue, value: &Expr, line: u32) -> Option<CStmt> {
        let rhs = self.expr(value)?;
        if lv.indices.is_empty() {
            let slot = self.slot(&lv.name)?;
            self.assigned.insert(slot);
            self.scalar_writes = true;
            return Some(if self.slots[slot].is_int {
                match rhs {
                    CE::I(e) => CStmt::AssignI { slot, rhs: e, line },
                    CE::R(e) => CStmt::AssignIFromR { slot, rhs: e, line },
                    CE::B(_) => return None,
                }
            } else {
                CStmt::AssignR {
                    slot,
                    rhs: rhs.real()?,
                    line,
                }
            });
        }
        let arr = self.array(&lv.name, true)?;
        let idx: Option<Vec<IExpr>> = lv
            .indices
            .iter()
            .map(|e| self.expr(e).and_then(CE::index))
            .collect();
        let idx = idx?;
        self.stores.push((arr, idx.clone()));
        Some(CStmt::Store {
            arr,
            idx,
            rhs: rhs.real()?,
            line,
        })
    }

    fn expr(&mut self, e: &Expr) -> Option<CE> {
        match e {
            Expr::IntLit(v) => Some(CE::I(IExpr::Const(*v))),
            Expr::RealLit(v) => Some(CE::R(RExpr::Const(*v))),
            Expr::LogicalLit(b) => Some(CE::B(BExpr::Const(*b))),
            Expr::StrLit(_) => None,
            Expr::Var(name) => {
                let slot = self.slot(name)?;
                Some(if self.slots[slot].is_int {
                    CE::I(IExpr::Slot(slot))
                } else {
                    CE::R(RExpr::Slot(slot))
                })
            }
            Expr::Index { name, indices } => {
                if self.unit.is_array(name) {
                    let arr = self.array(name, false)?;
                    let idx: Option<Vec<IExpr>> = indices
                        .iter()
                        .map(|e| self.expr(e).and_then(CE::index))
                        .collect();
                    let idx = idx?;
                    self.loads.push((arr, idx.clone()));
                    return Some(if self.arrays[arr].is_int {
                        CE::I(IExpr::Load(arr, idx))
                    } else {
                        CE::R(RExpr::Load(arr, idx))
                    });
                }
                if crate::eval::is_intrinsic_name(name) {
                    return self.intrinsic(name, indices);
                }
                None // user function call
            }
            Expr::Bin { op, lhs, rhs } => {
                if *op == BinOp::And || *op == BinOp::Or {
                    let l = self.expr(lhs)?.boolean()?;
                    let r = self.expr(rhs)?.boolean()?;
                    return Some(CE::B(if *op == BinOp::And {
                        BExpr::And(Box::new(l), Box::new(r))
                    } else {
                        BExpr::Or(Box::new(l), Box::new(r))
                    }));
                }
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                if op.is_relational() {
                    let l = l.real()?;
                    let r = r.real()?;
                    return Some(CE::B(BExpr::Rel(*op, Box::new(l), Box::new(r))));
                }
                match (l, r) {
                    (CE::I(a), CE::I(b)) => {
                        let (a, b) = (Box::new(a), Box::new(b));
                        Some(CE::I(match op {
                            BinOp::Add => IExpr::Add(a, b),
                            BinOp::Sub => IExpr::Sub(a, b),
                            BinOp::Mul => IExpr::Mul(a, b),
                            BinOp::Div => IExpr::Div(a, b),
                            BinOp::Pow => IExpr::Pow(a, b),
                            _ => return None,
                        }))
                    }
                    (a, b) => {
                        let a = a.real()?;
                        let b = b.real()?;
                        Some(CE::R(RExpr::Bin(*op, Box::new(a), Box::new(b))))
                    }
                }
            }
            Expr::Un { op, expr } => {
                let v = self.expr(expr)?;
                match op {
                    UnOp::Neg => match v {
                        CE::I(e) => Some(CE::I(fold_neg(e))),
                        CE::R(e) => Some(CE::R(RExpr::Neg(Box::new(e)))),
                        CE::B(_) => None,
                    },
                    UnOp::Not => Some(CE::B(BExpr::Not(Box::new(v.boolean()?)))),
                }
            }
        }
    }

    fn intrinsic(&mut self, name: &str, args: &[Expr]) -> Option<CE> {
        let compiled: Option<Vec<CE>> = args.iter().map(|a| self.expr(a)).collect();
        let mut args = compiled?;
        // The tree walk evaluates *all* arguments, then most intrinsics
        // consume a prefix; reject surplus arguments instead of
        // modeling their evaluation (the fallback handles them).
        let exact = |n: usize, args: &[CE]| args.len() == n;
        match name {
            "abs" => {
                if !exact(1, &args) {
                    return None;
                }
                Some(match args.pop().unwrap() {
                    CE::I(e) => CE::I(IExpr::Abs(Box::new(e))),
                    CE::R(e) => CE::R(RExpr::Abs(Box::new(e))),
                    CE::B(_) => return None,
                })
            }
            "iabs" => {
                if !exact(1, &args) {
                    return None;
                }
                Some(CE::I(IExpr::Abs(Box::new(args.pop().unwrap().index()?))))
            }
            "max" | "amax1" | "min" | "amin1" => {
                if args.is_empty() {
                    return None;
                }
                let is_max = name == "max" || name == "amax1";
                let all_int =
                    (name == "max" || name == "min") && args.iter().all(|a| matches!(a, CE::I(_)));
                let reals: Option<Vec<RExpr>> = args.into_iter().map(CE::real).collect();
                let reals = reals?;
                Some(if all_int {
                    CE::I(IExpr::MaxMin(is_max, reals))
                } else {
                    CE::R(RExpr::MaxMin(is_max, reals))
                })
            }
            "sqrt" | "exp" | "log" | "sin" | "cos" | "tan" | "atan" => {
                if !exact(1, &args) {
                    return None;
                }
                let a = Box::new(args.pop().unwrap().real()?);
                Some(CE::R(match name {
                    "sqrt" => RExpr::Sqrt(a),
                    "exp" => RExpr::Exp(a),
                    "log" => RExpr::Log(a),
                    "sin" => RExpr::Sin(a),
                    "cos" => RExpr::Cos(a),
                    "tan" => RExpr::Tan(a),
                    _ => RExpr::Atan(a),
                }))
            }
            "mod" => {
                if !exact(2, &args) {
                    return None;
                }
                let b = args.pop().unwrap();
                let a = args.pop().unwrap();
                match (a, b) {
                    (CE::I(a), CE::I(b)) => Some(CE::I(IExpr::Mod(Box::new(a), Box::new(b)))),
                    (a, b) => Some(CE::R(RExpr::Mod(Box::new(a.real()?), Box::new(b.real()?)))),
                }
            }
            "sign" => {
                if !exact(2, &args) {
                    return None;
                }
                let b = args.pop().unwrap().real()?;
                let a = args.pop().unwrap().real()?;
                Some(CE::R(RExpr::Sign(Box::new(a), Box::new(b))))
            }
            "float" | "real" | "dble" => {
                if !exact(1, &args) {
                    return None;
                }
                Some(CE::R(RExpr::Cvt(Box::new(args.pop().unwrap().real()?))))
            }
            "int" => {
                if !exact(1, &args) {
                    return None;
                }
                Some(CE::I(IExpr::Cvt(Box::new(args.pop().unwrap().real()?))))
            }
            "nint" => {
                if !exact(1, &args) {
                    return None;
                }
                Some(CE::I(IExpr::Nint(Box::new(args.pop().unwrap().real()?))))
            }
            _ => None, // recognized but unimplemented — tree walk errors
        }
    }

    /// Prove that splitting the root loop's trips across threads can
    /// never make two threads touch the same element: every store to
    /// an array must carry the root variable, with a compile-time
    /// nonzero coefficient, in exactly one dimension whose remaining
    /// terms are loop-invariant; all *other* dimensions must not
    /// mention the root variable; and all stores to the same array
    /// must agree on that dimension's subscript. Loads of a written
    /// array must sit at the *same* root coordinate as its stores
    /// (identical owner-dimension subscript, root variable absent
    /// elsewhere) — cross-iteration reads like `a(i, j-1)` under
    /// stores to `a(i, j)` would cross chunk boundaries. Name aliasing
    /// (two names bound to one array) is caught at invocation time by
    /// the runtime `ArrayId` disjointness check.
    fn prove_store_disjointness(&self, root: &DoLoop) -> bool {
        let rv = root.var;
        // (array → (dim, owner subscript)) agreed across sites
        let mut owners: HashMap<usize, (usize, &IExpr)> = HashMap::new();
        for (arr, idx) in &self.stores {
            let mut owner: Option<usize> = None;
            for (d, sub) in idx.iter().enumerate() {
                match affine_root_coeff(sub, rv, &self.loop_slots) {
                    Some(0) => {}
                    Some(_) => {
                        if owner.is_some() {
                            return false; // root var in two dimensions
                        }
                        owner = Some(d);
                    }
                    None => {
                        // Nonlinear in the root variable, or mentions
                        // it through a load: only safe if the root
                        // variable does not occur at all.
                        if mentions_slot_i(sub, rv) {
                            return false;
                        }
                    }
                }
            }
            let Some(d) = owner else { return false };
            match owners.get(arr) {
                Some(&(pd, pe)) => {
                    if pd != d || pe != &idx[d] {
                        return false;
                    }
                }
                None => {
                    owners.insert(*arr, (d, &idx[d]));
                }
            }
        }
        // A nest with no stores mutates nothing; threading it is
        // pointless (and scalar_writes already gates reductions).
        if self.stores.is_empty() {
            return false;
        }
        // Loads of written arrays must match the store's root
        // coordinate exactly.
        for (arr, idx) in &self.loads {
            let Some(&(d, owner)) = owners.get(arr) else {
                continue; // read-only array: any subscript is fine
            };
            if idx.len() <= d || &idx[d] != owner {
                return false;
            }
            for (d2, sub) in idx.iter().enumerate() {
                if d2 != d && mentions_slot_i(sub, rv) {
                    return false;
                }
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Post-compile lowering: affine subscript fast path
// ---------------------------------------------------------------------------

/// Recognize `c`, `i`, `i+c`, `c+i`, and `i-c` subscript shapes. The
/// value computed by [`Vm::offset_aff`] (`ints[slot].wrapping_add(add)`)
/// is identical to the recursive evaluation (which also wraps), and
/// affine subscripts charge no ops and cannot error, so the rewrite is
/// unobservable.
fn as_aff(e: &IExpr) -> Option<Aff> {
    match e {
        IExpr::Const(c) => Some(Aff {
            slot: None,
            add: *c,
        }),
        IExpr::Slot(s) => Some(Aff {
            slot: Some(*s as u32),
            add: 0,
        }),
        IExpr::Add(a, b) => match (&**a, &**b) {
            (IExpr::Slot(s), IExpr::Const(c)) | (IExpr::Const(c), IExpr::Slot(s)) => Some(Aff {
                slot: Some(*s as u32),
                add: *c,
            }),
            _ => None,
        },
        IExpr::Sub(a, b) => match (&**a, &**b) {
            // `i - c` wraps like `i + (-c)` except at `c == i64::MIN`.
            (IExpr::Slot(s), IExpr::Const(c)) => Some(Aff {
                slot: Some(*s as u32),
                add: c.checked_neg()?,
            }),
            _ => None,
        },
        _ => None,
    }
}

fn aff_idx(idx: &[IExpr]) -> Option<Box<[Aff]>> {
    idx.iter().map(as_aff).collect()
}

fn opt_do(d: &mut DoLoop) {
    opt_i(&mut d.from);
    opt_i(&mut d.to);
    if let Some(s) = &mut d.step {
        opt_i(s);
    }
    for s in &mut d.body {
        opt_stmt(s);
    }
}

fn opt_stmt(s: &mut CStmt) {
    match s {
        CStmt::AssignI { rhs, .. } => opt_i(rhs),
        CStmt::AssignIFromR { rhs, .. } | CStmt::AssignR { rhs, .. } => opt_r(rhs),
        CStmt::Store {
            arr,
            idx,
            rhs,
            line,
        } => {
            opt_r(rhs);
            for e in idx.iter_mut() {
                opt_i(e);
            }
            if let Some(aff) = aff_idx(idx) {
                let (arr, rhs, line) = (*arr, std::mem::replace(rhs, RExpr::Const(0.0)), *line);
                *s = CStmt::StoreA {
                    arr,
                    idx: aff,
                    rhs,
                    line,
                };
            }
        }
        CStmt::StoreA { idx: _, rhs, .. } => opt_r(rhs),
        CStmt::If {
            cond,
            then,
            elifs,
            els,
            ..
        } => {
            opt_b(cond);
            for st in then.iter_mut().chain(els.iter_mut()) {
                opt_stmt(st);
            }
            for (c, b) in elifs {
                opt_b(c);
                for st in b {
                    opt_stmt(st);
                }
            }
        }
        CStmt::LogicalIf { cond, stmt, .. } => {
            opt_b(cond);
            opt_stmt(stmt);
        }
        CStmt::Do(d) => opt_do(d),
        CStmt::Continue { .. } => {}
    }
}

fn opt_i(e: &mut IExpr) {
    match e {
        IExpr::Const(_) | IExpr::Slot(_) | IExpr::LoadA(..) => {}
        IExpr::FromReal(r) | IExpr::Cvt(r) | IExpr::Nint(r) => opt_r(r),
        IExpr::Load(arr, idx) => {
            for i in idx.iter_mut() {
                opt_i(i);
            }
            if let Some(aff) = aff_idx(idx) {
                *e = IExpr::LoadA(*arr, aff);
            }
        }
        IExpr::Add(a, b)
        | IExpr::Sub(a, b)
        | IExpr::Mul(a, b)
        | IExpr::Div(a, b)
        | IExpr::Pow(a, b)
        | IExpr::Mod(a, b) => {
            opt_i(a);
            opt_i(b);
        }
        IExpr::Neg(a) | IExpr::Abs(a) => opt_i(a),
        IExpr::MaxMin(_, args) => args.iter_mut().for_each(opt_r),
    }
}

fn opt_r(e: &mut RExpr) {
    match e {
        RExpr::Const(_) | RExpr::Slot(_) | RExpr::LoadA(..) => {}
        RExpr::FromInt(i) => opt_i(i),
        RExpr::Load(arr, idx) => {
            for i in idx.iter_mut() {
                opt_i(i);
            }
            if let Some(aff) = aff_idx(idx) {
                *e = RExpr::LoadA(*arr, aff);
            }
        }
        RExpr::Bin(_, a, b) | RExpr::Mod(a, b) | RExpr::Sign(a, b) => {
            opt_r(a);
            opt_r(b);
        }
        RExpr::Neg(a)
        | RExpr::Abs(a)
        | RExpr::Sqrt(a)
        | RExpr::Exp(a)
        | RExpr::Log(a)
        | RExpr::Sin(a)
        | RExpr::Cos(a)
        | RExpr::Tan(a)
        | RExpr::Atan(a)
        | RExpr::Cvt(a) => opt_r(a),
        RExpr::MaxMin(_, args) => args.iter_mut().for_each(opt_r),
    }
}

fn opt_b(e: &mut BExpr) {
    match e {
        BExpr::Const(_) => {}
        BExpr::Rel(_, a, b) => {
            opt_r(a);
            opt_r(b);
        }
        BExpr::And(a, b) | BExpr::Or(a, b) => {
            opt_b(a);
            opt_b(b);
        }
        BExpr::Not(a) => opt_b(a),
    }
}

/// Fold `-(literal)` into a constant so affine analysis sees it.
fn fold_neg(e: IExpr) -> IExpr {
    match e {
        IExpr::Const(v) => IExpr::Const(-v),
        other => IExpr::Neg(Box::new(other)),
    }
}

/// Coefficient of slot `rv` in `e` when `e` is linear in `rv` with a
/// compile-time constant coefficient and a remainder free of *all*
/// loop variables; `None` otherwise. `Some(0)` means "no dependence on
/// any loop variable at all" for the owner-dimension remainder rule.
fn affine_root_coeff(e: &IExpr, rv: usize, loop_slots: &HashSet<usize>) -> Option<i64> {
    match e {
        IExpr::Const(_) => Some(0),
        IExpr::Slot(s) => {
            if *s == rv {
                Some(1)
            } else if loop_slots.contains(s) {
                None
            } else {
                Some(0)
            }
        }
        IExpr::Add(a, b) => Some(
            affine_root_coeff(a, rv, loop_slots)?
                .checked_add(affine_root_coeff(b, rv, loop_slots)?)?,
        ),
        IExpr::Sub(a, b) => Some(
            affine_root_coeff(a, rv, loop_slots)?
                .checked_sub(affine_root_coeff(b, rv, loop_slots)?)?,
        ),
        IExpr::Neg(a) => affine_root_coeff(a, rv, loop_slots)?.checked_neg(),
        IExpr::Mul(a, b) => {
            let scale = |k: &IExpr, x: &IExpr| -> Option<i64> {
                let IExpr::Const(k) = k else { return None };
                affine_root_coeff(x, rv, loop_slots)?.checked_mul(*k)
            };
            scale(a, b).or_else(|| scale(b, a))
        }
        // Anything else is fine only when it involves no loop variable.
        other => {
            if mentions_any_slot_i(other, loop_slots) {
                None
            } else {
                Some(0)
            }
        }
    }
}

fn mentions_slot_i(e: &IExpr, slot: usize) -> bool {
    let mut set = HashSet::new();
    set.insert(slot);
    mentions_any_slot_i(e, &set)
}

fn mentions_any_slot_i(e: &IExpr, slots: &HashSet<usize>) -> bool {
    match e {
        IExpr::Const(_) => false,
        IExpr::Slot(s) => slots.contains(s),
        IExpr::FromReal(r) | IExpr::Cvt(r) | IExpr::Nint(r) => mentions_any_slot_r(r, slots),
        IExpr::Load(_, idx) => idx.iter().any(|i| mentions_any_slot_i(i, slots)),
        IExpr::LoadA(_, idx) => idx
            .iter()
            .any(|a| a.slot.is_some_and(|s| slots.contains(&(s as usize)))),
        IExpr::Add(a, b)
        | IExpr::Sub(a, b)
        | IExpr::Mul(a, b)
        | IExpr::Div(a, b)
        | IExpr::Pow(a, b)
        | IExpr::Mod(a, b) => mentions_any_slot_i(a, slots) || mentions_any_slot_i(b, slots),
        IExpr::Neg(a) | IExpr::Abs(a) => mentions_any_slot_i(a, slots),
        IExpr::MaxMin(_, args) => args.iter().any(|a| mentions_any_slot_r(a, slots)),
    }
}

fn mentions_any_slot_r(e: &RExpr, slots: &HashSet<usize>) -> bool {
    match e {
        RExpr::Const(_) => false,
        RExpr::Slot(s) => slots.contains(s),
        RExpr::FromInt(i) => mentions_any_slot_i(i, slots),
        RExpr::Load(_, idx) => idx.iter().any(|i| mentions_any_slot_i(i, slots)),
        RExpr::LoadA(_, idx) => idx
            .iter()
            .any(|a| a.slot.is_some_and(|s| slots.contains(&(s as usize)))),
        RExpr::Bin(_, a, b) | RExpr::Mod(a, b) | RExpr::Sign(a, b) => {
            mentions_any_slot_r(a, slots) || mentions_any_slot_r(b, slots)
        }
        RExpr::Neg(a)
        | RExpr::Abs(a)
        | RExpr::Sqrt(a)
        | RExpr::Exp(a)
        | RExpr::Log(a)
        | RExpr::Sin(a)
        | RExpr::Cos(a)
        | RExpr::Tan(a)
        | RExpr::Atan(a)
        | RExpr::Cvt(a) => mentions_any_slot_r(a, slots),
        RExpr::MaxMin(_, args) => args.iter().any(|a| mentions_any_slot_r(a, slots)),
    }
}

// ---------------------------------------------------------------------------
// Invocation
// ---------------------------------------------------------------------------

/// Entry state captured *without side effects*: the caller may still
/// fall back to the tree walk if this returns `None`.
pub struct Ready {
    ints: Vec<i64>,
    reals: Vec<f64>,
    arr_ids: Vec<ArrayId>,
    clamp: Option<ResolvedClamp>,
}

/// Runtime view of one array: raw base pointer plus bounds. The
/// pointer is only dereferenced at offsets validated against `bounds`
/// (the same check `ArrayVal::offset` performs).
#[derive(Clone)]
struct ArrRt {
    ptr: *mut f64,
    bounds: Vec<(i64, i64)>,
    is_int: bool,
}

/// Shared thread-broadcast state; Sync is sound because the store
/// disjointness proof (plus the runtime read/write id check) makes all
/// concurrent pointer accesses race-free.
struct ShareArrs<'a>(&'a [ArrRt]);
unsafe impl Sync for ShareArrs<'_> {}

impl Kernel {
    /// Check this kernel can run against the current frame and capture
    /// its scalar entry state. Pure: no machine or frame mutation, so
    /// `None` (a scalar holding an unexpected representation, a
    /// missing array, an unresolvable clamp variable) lets the caller
    /// take the tree walk from an identical state.
    pub fn begin(
        &self,
        frame: &Frame,
        clamp: Option<(&crate::exec::LoopSplit, KernelClamp)>,
    ) -> Option<Ready> {
        let mut ints = vec![0i64; self.slots.len()];
        let mut reals = vec![0f64; self.slots.len()];
        for (i, s) in self.slots.iter().enumerate() {
            if frame.arrays.contains_key(&s.name) {
                return None; // compile-time scalar is a runtime array
            }
            match (frame.scalars.get(&s.name), s.is_int) {
                (None, _) => {}
                (Some(Value::Int(v)), true) => ints[i] = *v,
                (Some(Value::Real(v)), false) => reals[i] = *v,
                // Representation differs from the static type (e.g. a
                // parameter constant stored as Int under a real name):
                // the tree walk's dynamic typing must decide.
                _ => return None,
            }
        }
        let mut arr_ids = Vec::with_capacity(self.arrays.len());
        for a in &self.arrays {
            let id = *frame.arrays.get(&a.name)?;
            arr_ids.push(id);
        }
        let clamp = match clamp {
            None => None,
            Some((split, mode)) => {
                let slot = self
                    .slots
                    .iter()
                    .position(|s| s.name == split.var && s.is_int)?;
                Some(ResolvedClamp {
                    slot,
                    low: split.low_width as i64,
                    high: split.high_width as i64,
                    mode,
                })
            }
        };
        Some(Ready {
            ints,
            reals,
            arr_ids,
            clamp,
        })
    }

    /// Execute the nest. `root_ticked` is true when the interpreter's
    /// `do` arm already charged the root statement's tick (the unsplit
    /// path); split chunks tick per invocation like the clamped tree
    /// walk. Ops are flushed and assigned scalars written back even on
    /// error (the run is aborting either way; counters stay sane).
    pub fn run(
        &self,
        set: &KernelSet,
        ready: Ready,
        m: &mut Machine,
        frame: &mut Frame,
        root_ticked: bool,
    ) -> Result<(), RunError> {
        let Ready {
            ints,
            reals,
            arr_ids,
            clamp,
        } = ready;
        let arrs: Vec<ArrRt> = arr_ids
            .iter()
            .map(|id| {
                let a = m.array_mut(*id);
                ArrRt {
                    ptr: a.data.as_mut_ptr(),
                    bounds: a.bounds.clone(),
                    is_int: a.is_int,
                }
            })
            .collect();
        let mut ctx = Vm {
            ints,
            reals,
            arrs: &arrs,
            ops: OpCounts::default(),
            base_stmts: m.ops.stmts,
            limit: m.stmt_limit,
            clamp,
        };
        let result = self.run_root(set, &mut ctx, &arr_ids, root_ticked);
        // Flush ops and write scalars back whether or not we errored —
        // a failing run aborts, but the machine should still account
        // for the work done.
        m.ops.flops += ctx.ops.flops;
        m.ops.loads += ctx.ops.loads;
        m.ops.stores += ctx.ops.stores;
        m.ops.stmts += ctx.ops.stmts;
        for &i in &self.assigned {
            let s = &self.slots[i];
            let v = if s.is_int {
                Value::Int(ctx.ints[i])
            } else {
                Value::Real(ctx.reals[i])
            };
            frame.set_scalar(&s.name, v)?;
        }
        result
    }

    /// Root-loop driver: bound evaluation, clamping, and the
    /// sequential-vs-threaded trip split.
    fn run_root(
        &self,
        set: &KernelSet,
        ctx: &mut Vm<'_>,
        arr_ids: &[ArrayId],
        root_ticked: bool,
    ) -> Result<(), RunError> {
        let d = &self.root;
        if !root_ticked {
            ctx.tick(d.line)?;
        }
        let f = ctx.eval_i(&d.from)?;
        let t = ctx.eval_i(&d.to)?;
        let step = match &d.step {
            Some(e) => ctx.eval_i(e)?,
            None => 1,
        };
        if step == 0 {
            return Err(RunError::new("zero do-loop step").at(d.line));
        }
        let root_clamp = ctx.clamp.filter(|c| c.slot == d.var);
        let (f, t, step) = match &root_clamp {
            Some(c) => {
                if step != 1 {
                    return Err(RunError::new("overlapped loop must have unit step").at(d.line));
                }
                // Below the clamped loop the body runs unmodified.
                ctx.clamp = None;
                let (cf, ct) = kclamp_range(f, t, c);
                (cf, ct, 1)
            }
            None => (f, t, step),
        };
        let trips = ((t - f + step) / step).max(0);
        let threaded = self.threadable
            && ctx.limit == 0
            && trips >= 2
            && set.pool.is_some()
            && rw_disjoint(&self.arrays, arr_ids);
        if threaded {
            self.run_threaded(set, ctx, f, step, trips)?;
        } else {
            let mut iv = f;
            for _ in 0..trips {
                ctx.ints[d.var] = iv;
                for s in &d.body {
                    ctx.exec(s)?;
                }
                iv += step;
            }
        }
        // Loop variable rests one past the last value.
        ctx.ints[d.var] = f + trips.max(0) * step;
        Ok(())
    }

    /// Split `trips` root iterations into contiguous chunks across the
    /// pool. Each chunk runs an independent VM over cloned scalar
    /// banks; op counters are summed (order-independent totals) and
    /// final scalar state is taken from the last chunk, which by
    /// construction executed the final iterations.
    fn run_threaded(
        &self,
        set: &KernelSet,
        ctx: &mut Vm<'_>,
        f: i64,
        step: i64,
        trips: i64,
    ) -> Result<(), RunError> {
        let pool = set.pool.as_ref().expect("threaded gate checked pool");
        let nchunks = pool.threads().min(trips as usize).max(1);
        type ChunkOut = (Result<(), RunError>, OpCounts, Vec<i64>, Vec<f64>);
        let results: Vec<Mutex<Option<ChunkOut>>> =
            (0..nchunks).map(|_| Mutex::new(None)).collect();
        let share = ShareArrs(ctx.arrs);
        let (ints0, reals0, clamp) = (&ctx.ints, &ctx.reals, ctx.clamp);
        let d = &self.root;
        pool.broadcast(nchunks, &|k| {
            let share = &share;
            let lo = trips as usize * k / nchunks;
            let hi = trips as usize * (k + 1) / nchunks;
            let mut vm = Vm {
                ints: ints0.clone(),
                reals: reals0.clone(),
                arrs: share.0,
                ops: OpCounts::default(),
                base_stmts: 0,
                limit: 0,
                clamp,
            };
            let mut iv = f + lo as i64 * step;
            let mut res = Ok(());
            'chunk: for _ in lo..hi {
                vm.ints[d.var] = iv;
                for s in &d.body {
                    if let Err(e) = vm.exec(s) {
                        res = Err(e);
                        break 'chunk;
                    }
                }
                iv += step;
            }
            *results[k].lock().unwrap() = Some((res, vm.ops, vm.ints, vm.reals));
        });
        let mut first_err = None;
        for slot in &results {
            let (res, ops, ints, reals) = slot
                .lock()
                .unwrap()
                .take()
                .expect("broadcast filled every chunk slot");
            ctx.ops.flops += ops.flops;
            ctx.ops.loads += ops.loads;
            ctx.ops.stores += ops.stores;
            ctx.ops.stmts += ops.stmts;
            if first_err.is_none() {
                if let Err(e) = res {
                    first_err = Some(e);
                }
            }
            // Last chunk ran the final iterations: its scalar banks are
            // the sequential end state.
            ctx.ints = ints;
            ctx.reals = reals;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Runtime read/write disjointness by resolved `ArrayId`: argument
/// binding can alias two names to one array, which would defeat the
/// compile-time proof.
fn rw_disjoint(arrays: &[ArrInfo], ids: &[ArrayId]) -> bool {
    let written: Vec<ArrayId> = arrays
        .iter()
        .zip(ids)
        .filter(|(a, _)| a.written)
        .map(|(_, id)| *id)
        .collect();
    for (i, w) in written.iter().enumerate() {
        if written[..i].contains(w) {
            return false; // two written names alias one array
        }
    }
    arrays
        .iter()
        .zip(ids)
        .filter(|(a, _)| !a.written)
        .all(|(_, id)| !written.contains(id))
}

// ---------------------------------------------------------------------------
// The VM
// ---------------------------------------------------------------------------

struct Vm<'k> {
    ints: Vec<i64>,
    reals: Vec<f64>,
    arrs: &'k [ArrRt],
    ops: OpCounts,
    base_stmts: u64,
    limit: u64,
    clamp: Option<ResolvedClamp>,
}

impl Vm<'_> {
    /// `Machine::tick` with the statement's line attached, against the
    /// locally accumulated count.
    fn tick(&mut self, line: u32) -> Result<(), RunError> {
        self.ops.stmts += 1;
        if self.limit != 0 && self.base_stmts + self.ops.stmts > self.limit {
            return Err(RunError::new(format!(
                "statement budget of {} exceeded (non-converging loop?)",
                self.limit
            ))
            .at(line));
        }
        Ok(())
    }

    /// Column-major offset with `ArrayVal::offset`'s exact checks.
    fn offset_of(&self, arr: usize, idx: &[i64]) -> Result<usize, RunError> {
        let a = &self.arrs[arr];
        if idx.len() != a.bounds.len() {
            return Err(RunError::new(format!(
                "rank mismatch: {} subscripts for rank-{} array",
                idx.len(),
                a.bounds.len()
            )));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, (&i, &(lo, hi))) in idx.iter().zip(&a.bounds).enumerate() {
            if i < lo || i > hi {
                return Err(RunError::new(format!(
                    "subscript {i} out of bounds {lo}:{hi} in dimension {}",
                    d + 1
                )));
            }
            off += (i - lo) as usize * stride;
            stride *= (hi - lo + 1) as usize;
        }
        Ok(off)
    }

    /// Column-major offset for pre-resolved affine subscripts, with the
    /// same per-dimension checks and error text as [`Vm::offset_of`].
    #[inline]
    fn offset_aff(&self, arr: usize, idx: &[Aff]) -> Result<usize, RunError> {
        let a = &self.arrs[arr];
        if idx.len() != a.bounds.len() {
            return Err(RunError::new(format!(
                "rank mismatch: {} subscripts for rank-{} array",
                idx.len(),
                a.bounds.len()
            )));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, (aff, &(lo, hi))) in idx.iter().zip(&a.bounds).enumerate() {
            let i = match aff.slot {
                Some(s) => self.ints[s as usize].wrapping_add(aff.add),
                None => aff.add,
            };
            if i < lo || i > hi {
                return Err(RunError::new(format!(
                    "subscript {i} out of bounds {lo}:{hi} in dimension {}",
                    d + 1
                )));
            }
            off += (i - lo) as usize * stride;
            stride *= (hi - lo + 1) as usize;
        }
        Ok(off)
    }

    /// [`Vm::load`] for affine subscripts: they evaluate without ops or
    /// errors, so the load counter ticks first and the value comes
    /// straight off the precomputed offset.
    #[inline]
    fn load_aff(&mut self, arr: usize, idx: &[Aff]) -> Result<f64, RunError> {
        self.ops.loads += 1;
        let off = self.offset_aff(arr, idx)?;
        let a = &self.arrs[arr];
        // SAFETY: as in `load` — offset validated against the bounds,
        // pointer live for the invocation, races excluded by the
        // disjointness proof.
        let v = unsafe { *a.ptr.add(off) };
        Ok(if a.is_int { v.round() } else { v })
    }

    /// Array element load: subscripts, then `loads += 1`, then the
    /// bounds-checked read (rounded when declared integer) — the exact
    /// order of `eval`'s `Index` arm.
    fn load(&mut self, arr: usize, idx: &[IExpr]) -> Result<f64, RunError> {
        let is_int = self.arrs[arr].is_int;
        // Subscripts first (their loads/errors), then this load.
        let mut vals = [0i64; 8];
        let n = idx.len();
        let off = if n <= vals.len() {
            for (k, e) in idx.iter().enumerate() {
                vals[k] = self.eval_i(e)?;
            }
            self.ops.loads += 1;
            self.offset_of(arr, &vals[..n])?
        } else {
            let mut vals = Vec::with_capacity(n);
            for e in idx {
                vals.push(self.eval_i(e)?);
            }
            self.ops.loads += 1;
            self.offset_of(arr, &vals)?
        };
        // SAFETY: `off` was validated against the array bounds, whose
        // product is the data length; the pointer is live for the
        // whole invocation and concurrent access is race-free by the
        // disjointness proof.
        let v = unsafe { *self.arrs[arr].ptr.add(off) };
        Ok(if is_int { v.round() } else { v })
    }

    fn eval_i(&mut self, e: &IExpr) -> Result<i64, RunError> {
        Ok(match e {
            IExpr::Const(v) => *v,
            IExpr::Slot(s) => self.ints[*s],
            IExpr::FromReal(r) => self.eval_r(r)? as i64,
            IExpr::Load(arr, idx) => self.load(*arr, idx)? as i64,
            IExpr::LoadA(arr, idx) => self.load_aff(*arr, idx)? as i64,
            IExpr::Add(a, b) => self.eval_i(a)?.wrapping_add(self.eval_i(b)?),
            IExpr::Sub(a, b) => self.eval_i(a)?.wrapping_sub(self.eval_i(b)?),
            IExpr::Mul(a, b) => self.eval_i(a)?.wrapping_mul(self.eval_i(b)?),
            IExpr::Div(a, b) => {
                let a = self.eval_i(a)?;
                let b = self.eval_i(b)?;
                if b == 0 {
                    return Err(RunError::new("integer division by zero"));
                }
                a / b
            }
            IExpr::Pow(a, b) => {
                let a = self.eval_i(a)?;
                let b = self.eval_i(b)?;
                if b >= 0 {
                    let mut acc = 1i64;
                    for _ in 0..b {
                        acc = acc.wrapping_mul(a);
                    }
                    acc
                } else {
                    match a {
                        1 => 1,
                        -1 => {
                            if b % 2 == 0 {
                                1
                            } else {
                                -1
                            }
                        }
                        0 => return Err(RunError::new("0 ** negative exponent")),
                        _ => 0,
                    }
                }
            }
            IExpr::Neg(a) => -self.eval_i(a)?,
            IExpr::Abs(a) => {
                let v = self.eval_i(a)?;
                self.ops.flops += 1;
                v.abs()
            }
            IExpr::Cvt(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v as i64
            }
            IExpr::Nint(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.round() as i64
            }
            IExpr::Mod(a, b) => {
                let a = self.eval_i(a)?;
                let b = self.eval_i(b)?;
                self.ops.flops += 1;
                if b == 0 {
                    return Err(RunError::new("mod by zero"));
                }
                a % b
            }
            IExpr::MaxMin(is_max, args) => self.max_min(*is_max, args)? as i64,
        })
    }

    fn max_min(&mut self, is_max: bool, args: &[RExpr]) -> Result<f64, RunError> {
        let mut vals = [0f64; 8];
        let n = args.len();
        let mut heap;
        let slice: &mut [f64] = if n <= vals.len() {
            for (k, a) in args.iter().enumerate() {
                vals[k] = self.eval_r(a)?;
            }
            &mut vals[..n]
        } else {
            heap = Vec::with_capacity(n);
            for a in args {
                heap.push(self.eval_r(a)?);
            }
            &mut heap
        };
        self.ops.flops += 1;
        let mut acc = slice[0];
        for &v in &slice[1..] {
            acc = if is_max { acc.max(v) } else { acc.min(v) };
        }
        Ok(acc)
    }

    fn eval_r(&mut self, e: &RExpr) -> Result<f64, RunError> {
        Ok(match e {
            RExpr::Const(v) => *v,
            RExpr::Slot(s) => self.reals[*s],
            RExpr::FromInt(i) => self.eval_i(i)? as f64,
            RExpr::Load(arr, idx) => self.load(*arr, idx)?,
            RExpr::LoadA(arr, idx) => self.load_aff(*arr, idx)?,
            RExpr::Bin(op, a, b) => {
                let a = self.eval_r(a)?;
                let b = self.eval_r(b)?;
                self.ops.flops += 1;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Pow => a.powf(b),
                    _ => unreachable!("logical/relational ops compile to BExpr"),
                }
            }
            RExpr::Neg(a) => -self.eval_r(a)?,
            RExpr::Abs(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.abs()
            }
            RExpr::Sqrt(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                if v < 0.0 {
                    return Err(RunError::new("sqrt of negative value"));
                }
                v.sqrt()
            }
            RExpr::Exp(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.exp()
            }
            RExpr::Log(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                if v <= 0.0 {
                    return Err(RunError::new("log of non-positive value"));
                }
                v.ln()
            }
            RExpr::Sin(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.sin()
            }
            RExpr::Cos(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.cos()
            }
            RExpr::Tan(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.tan()
            }
            RExpr::Atan(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v.atan()
            }
            RExpr::Mod(a, b) => {
                let a = self.eval_r(a)?;
                let b = self.eval_r(b)?;
                self.ops.flops += 1;
                a % b
            }
            RExpr::Sign(a, b) => {
                let a = self.eval_r(a)?;
                let b = self.eval_r(b)?;
                self.ops.flops += 1;
                if b < 0.0 {
                    -a.abs()
                } else {
                    a.abs()
                }
            }
            RExpr::Cvt(a) => {
                let v = self.eval_r(a)?;
                self.ops.flops += 1;
                v
            }
            RExpr::MaxMin(is_max, args) => self.max_min(*is_max, args)?,
        })
    }

    fn eval_b(&mut self, e: &BExpr) -> Result<bool, RunError> {
        Ok(match e {
            BExpr::Const(b) => *b,
            BExpr::Rel(op, a, b) => {
                let a = self.eval_r(a)?;
                let b = self.eval_r(b)?;
                match op {
                    BinOp::Eq => a == b,
                    BinOp::Ne => a != b,
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    _ => unreachable!("non-relational op in Rel"),
                }
            }
            BExpr::And(a, b) => self.eval_b(a)? && self.eval_b(b)?,
            BExpr::Or(a, b) => self.eval_b(a)? || self.eval_b(b)?,
            BExpr::Not(a) => !self.eval_b(a)?,
        })
    }

    fn exec(&mut self, s: &CStmt) -> Result<(), RunError> {
        match s {
            CStmt::AssignI { slot, rhs, line } => {
                self.tick(*line)?;
                let v = self.eval_i(rhs).map_err(|e| e.at(*line))?;
                self.ints[*slot] = v;
                Ok(())
            }
            CStmt::AssignIFromR { slot, rhs, line } => {
                self.tick(*line)?;
                let v = self.eval_r(rhs).map_err(|e| e.at(*line))?;
                // set_scalar coerces Real → declared-integer as `as i64`
                self.ints[*slot] = v as i64;
                Ok(())
            }
            CStmt::AssignR { slot, rhs, line } => {
                self.tick(*line)?;
                let v = self.eval_r(rhs).map_err(|e| e.at(*line))?;
                self.reals[*slot] = v;
                Ok(())
            }
            CStmt::Store {
                arr,
                idx,
                rhs,
                line,
            } => {
                self.tick(*line)?;
                // RHS first, then subscripts, then the store counter,
                // then the bounds check — `assign`'s exact order.
                let v = self.eval_r(rhs).map_err(|e| e.at(*line))?;
                let res: Result<(), RunError> = (|| {
                    let mut vals = [0i64; 8];
                    let n = idx.len();
                    let off = if n <= vals.len() {
                        for (k, e) in idx.iter().enumerate() {
                            vals[k] = self.eval_i(e)?;
                        }
                        self.ops.stores += 1;
                        self.offset_of(*arr, &vals[..n])?
                    } else {
                        let mut vals = Vec::with_capacity(n);
                        for e in idx {
                            vals.push(self.eval_i(e)?);
                        }
                        self.ops.stores += 1;
                        self.offset_of(*arr, &vals)?
                    };
                    let a = &self.arrs[*arr];
                    let stored = if a.is_int { v.trunc() } else { v };
                    // SAFETY: offset validated; writes are race-free by
                    // the disjointness proof (threaded) or exclusive
                    // access (sequential).
                    unsafe { *a.ptr.add(off) = stored };
                    Ok(())
                })();
                res.map_err(|e| e.at(*line))
            }
            CStmt::StoreA {
                arr,
                idx,
                rhs,
                line,
            } => {
                self.tick(*line)?;
                // Same order as `Store`: RHS, then (op-free, error-free)
                // subscripts, then the store counter, then the bounds
                // check inside `offset_aff`.
                let v = self.eval_r(rhs).map_err(|e| e.at(*line))?;
                self.ops.stores += 1;
                let off = self.offset_aff(*arr, idx).map_err(|e| e.at(*line))?;
                let a = &self.arrs[*arr];
                let stored = if a.is_int { v.trunc() } else { v };
                // SAFETY: as in `Store` — offset validated, writes
                // race-free by the disjointness proof or exclusivity.
                unsafe { *a.ptr.add(off) = stored };
                Ok(())
            }
            CStmt::If {
                cond,
                then,
                elifs,
                els,
                line,
            } => {
                self.tick(*line)?;
                if self.eval_b(cond)? {
                    return self.exec_all(then);
                }
                for (c, body) in elifs {
                    if self.eval_b(c)? {
                        return self.exec_all(body);
                    }
                }
                self.exec_all(els)
            }
            CStmt::LogicalIf { cond, stmt, line } => {
                self.tick(*line)?;
                if self.eval_b(cond)? {
                    self.exec(stmt)
                } else {
                    Ok(())
                }
            }
            CStmt::Do(d) => self.exec_do(d),
            CStmt::Continue { line } => self.tick(*line),
        }
    }

    fn exec_all(&mut self, list: &[CStmt]) -> Result<(), RunError> {
        for s in list {
            self.exec(s)?;
        }
        Ok(())
    }

    fn exec_do(&mut self, d: &DoLoop) -> Result<(), RunError> {
        self.tick(d.line)?;
        let f = self.eval_i(&d.from)?;
        let t = self.eval_i(&d.to)?;
        let step = match &d.step {
            Some(e) => self.eval_i(e)?,
            None => 1,
        };
        if step == 0 {
            return Err(RunError::new("zero do-loop step").at(d.line));
        }
        let clamped = self.clamp.filter(|c| c.slot == d.var);
        let (f, t, step) = match &clamped {
            Some(c) => {
                if step != 1 {
                    return Err(RunError::new("overlapped loop must have unit step").at(d.line));
                }
                let (cf, ct) = kclamp_range(f, t, c);
                (cf, ct, 1)
            }
            None => (f, t, step),
        };
        // Below the clamped loop the body runs unmodified; the clamp
        // stays active for sibling statements after this loop.
        let saved = if clamped.is_some() {
            self.clamp.take()
        } else {
            None
        };
        let trips = ((t - f + step) / step).max(0);
        let mut iv = f;
        for _ in 0..trips {
            self.ints[d.var] = iv;
            if let Err(e) = self.exec_all(&d.body) {
                if clamped.is_some() {
                    self.clamp = saved;
                }
                return Err(e);
            }
            iv += step;
        }
        if clamped.is_some() {
            self.clamp = saved;
        }
        self.ints[d.var] = iv;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        autocfd_fortran::parse(src).expect("test program parses")
    }

    fn nest_ids(src: &str) -> Vec<StmtId> {
        eligible_nests(&parse(src))
    }

    const STENCIL: &str = "      program p
      real a(10,10), b(10,10)
      integer i, j
      do 11 j = 1, 10
      do 10 i = 1, 10
      a(i,j) = real(i) * 2.0 + real(j)
 10   continue
 11   continue
      do 21 j = 2, 9
      do 20 i = 2, 9
      b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
 20   continue
 21   continue
      end
";

    #[test]
    fn stencil_nests_are_eligible_and_threadable() {
        let file = parse(STENCIL);
        let ids = eligible_nests(&file);
        assert_eq!(ids.len(), 2, "both outermost nests compile");
        let set = KernelSet::build(&file, None, 4);
        assert_eq!(set.len(), 2);
        for id in &ids {
            let k = set.get(*id).expect("kernel compiled");
            assert!(k.threadable, "pure stencil nest must be threadable");
        }
    }

    #[test]
    fn stencil_subscripts_lower_to_the_affine_fast_path() {
        // every subscript in STENCIL is `i`, `i±1`, or `j±1`, so after
        // lowering no generic Load/Store should survive in either nest
        fn generic_free(s: &CStmt) -> bool {
            fn ok_i(e: &IExpr) -> bool {
                !matches!(e, IExpr::Load(..))
            }
            fn ok_r(e: &RExpr) -> bool {
                match e {
                    RExpr::Load(..) => false,
                    RExpr::Bin(_, a, b) => ok_r(a) && ok_r(b),
                    RExpr::FromInt(i) => ok_i(i),
                    _ => true,
                }
            }
            match s {
                CStmt::Store { .. } => false,
                CStmt::StoreA { rhs, .. } => ok_r(rhs),
                CStmt::Do(d) => d.body.iter().all(generic_free),
                _ => true,
            }
        }
        let file = parse(STENCIL);
        let set = KernelSet::build(&file, None, 1);
        for id in set.ids() {
            let k = set.get(id).unwrap();
            assert!(
                k.root.body.iter().all(generic_free),
                "nest {id:?} kept a generic load/store after lowering"
            );
        }
    }

    #[test]
    fn affine_recognition_matches_wrapping_semantics() {
        let slot_minus = |c: i64| IExpr::Sub(Box::new(IExpr::Slot(0)), Box::new(IExpr::Const(c)));
        assert_eq!(
            as_aff(&slot_minus(3)),
            Some(Aff {
                slot: Some(0),
                add: -3
            })
        );
        // `i - i64::MIN` has no wrapping-equivalent `i + c`: must stay
        // on the generic evaluator rather than silently mis-fold
        assert_eq!(as_aff(&slot_minus(i64::MIN)), None);
        let c_plus_slot = IExpr::Add(Box::new(IExpr::Const(7)), Box::new(IExpr::Slot(2)));
        assert_eq!(
            as_aff(&c_plus_slot),
            Some(Aff {
                slot: Some(2),
                add: 7
            })
        );
        // non-affine shapes are left alone
        let scaled = IExpr::Mul(Box::new(IExpr::Slot(0)), Box::new(IExpr::Const(2)));
        assert_eq!(as_aff(&scaled), None);
    }

    #[test]
    fn hints_filter_compiled_nests() {
        let file = parse(STENCIL);
        let ids = eligible_nests(&file);
        let set = KernelSet::build(&file, Some(&ids[..1]), 1);
        assert_eq!(set.len(), 1);
        assert!(set.get(ids[0]).is_some());
        assert!(set.get(ids[1]).is_none());
        // A bogus hint id is silently skipped.
        let set = KernelSet::build(&file, Some(&[StmtId(9999)]), 1);
        assert!(set.is_empty());
    }

    #[test]
    fn escaping_control_flow_is_ineligible() {
        let ids = nest_ids(
            "      program p
      real a(10)
      integer i
      do 10 i = 1, 10
      if (a(i) .gt. 5.0) goto 20
      a(i) = a(i) + 1.0
 10   continue
 20   continue
      end
",
        );
        assert!(
            ids.is_empty(),
            "goto inside nest must stay on the tree walk"
        );
    }

    #[test]
    fn call_inside_nest_is_ineligible_but_inner_nest_compiles() {
        let ids = nest_ids(
            "      program p
      real a(10,10)
      integer i, j, k
      do 30 k = 1, 3
      call acf_sync_1()
      do 21 j = 1, 10
      do 20 i = 1, 10
      a(i,j) = a(i,j) + 1.0
 20   continue
 21   continue
 30   continue
      end
",
        );
        // The k loop contains a call; only the inner j/i nest compiles.
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn in_place_same_row_update_threads_but_carried_dependence_does_not() {
        // Reads at the store's own root coordinate (j) are chunk-local
        // even in-place: the i-carried dependence runs inside one trip.
        let file = parse(
            "      program p
      real a(10,10)
      integer i, j
      do 21 j = 2, 9
      do 20 i = 2, 9
      a(i,j) = a(i-1,j) + a(i,j)
 20   continue
 21   continue
      end
",
        );
        let ids = eligible_nests(&file);
        assert_eq!(ids.len(), 1);
        let set = KernelSet::build(&file, None, 4);
        assert!(set.get(ids[0]).unwrap().threadable);

        // A read at j-1 crosses chunk boundaries: must not thread.
        let file = parse(
            "      program p
      real a(10,10)
      integer i, j
      do 21 j = 2, 9
      do 20 i = 2, 9
      a(i,j) = a(i,j-1) + 1.0
 20   continue
 21   continue
      end
",
        );
        let ids = eligible_nests(&file);
        assert_eq!(ids.len(), 1);
        let set = KernelSet::build(&file, None, 4);
        assert!(!set.get(ids[0]).unwrap().threadable);
    }

    #[test]
    fn aliased_names_rejected_at_runtime() {
        // Two names bound to the same ArrayId defeat the static proof;
        // the invocation-time check catches it.
        let a = ArrInfo {
            name: "a".into(),
            is_int: false,
            written: true,
        };
        let b = ArrInfo {
            name: "b".into(),
            is_int: false,
            written: false,
        };
        assert!(rw_disjoint(
            &[a.clone(), b.clone()],
            &[ArrayId(0), ArrayId(1)]
        ));
        assert!(!rw_disjoint(
            &[a.clone(), b.clone()],
            &[ArrayId(0), ArrayId(0)]
        ));
        let w2 = ArrInfo {
            name: "c".into(),
            is_int: false,
            written: true,
        };
        assert!(!rw_disjoint(&[a, w2], &[ArrayId(3), ArrayId(3)]));
    }

    #[test]
    fn scalar_accumulation_disables_threading() {
        let file = parse(
            "      program p
      real a(10), s
      integer i
      s = 0.0
      do 10 i = 1, 10
      s = s + a(i)
      a(i) = s
 10   continue
      end
",
        );
        let ids = eligible_nests(&file);
        assert_eq!(ids.len(), 1, "reduction still compiles sequentially");
        let set = KernelSet::build(&file, None, 4);
        assert!(!set.get(ids[0]).unwrap().threadable);
    }

    #[test]
    fn boundary_write_without_root_var_disables_threading() {
        let file = parse(
            "      program p
      real a(10,10)
      integer i, j
      do 20 j = 1, 10
      do 10 i = 1, 10
      a(i,j) = 1.0
 10   continue
      a(1,j) = 0.0
      a(5,5) = 2.0
 20   continue
      end
",
        );
        let ids = eligible_nests(&file);
        assert_eq!(ids.len(), 1);
        let set = KernelSet::build(&file, None, 4);
        // a(5,5) has no j dependence in any dimension ⇒ two outer
        // iterations write the same element ⇒ not threadable.
        assert!(!set.get(ids[0]).unwrap().threadable);
    }

    fn run_both(src: &str, threads: usize) {
        let file = parse(src);
        let mut h1 = crate::exec::NoHooks;
        let (mt, ft) =
            crate::exec::run_program_capture(&file, vec![], &mut h1, 0).expect("tree runs");
        let set = KernelSet::build(&file, None, threads);
        assert!(!set.is_empty(), "at least one nest must compile");
        let mut h2 = crate::exec::NoHooks;
        let (mk, fk) = crate::exec::run_program_capture_with(&file, vec![], &mut h2, 0, Some(&set))
            .expect("kernel runs");
        assert_eq!(mt.ops, mk.ops, "op counters must match bit-for-bit");
        assert_eq!(mt.arrays.len(), mk.arrays.len());
        for (a, b) in mt.arrays.iter().zip(&mk.arrays) {
            assert_eq!(a.bounds, b.bounds);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "array data must be bit-exact");
            }
        }
        for (name, v) in &ft.scalars {
            assert_eq!(Some(v), fk.scalars.get(name), "scalar `{name}` differs");
        }
        assert_eq!(ft.scalars.len(), fk.scalars.len());
    }

    #[test]
    fn kernel_matches_tree_walk_bit_for_bit() {
        let src = "      program p
      real a(40,40), b(40,40), s
      integer i, j, it
      do 11 j = 1, 40
      do 10 i = 1, 40
      a(i,j) = real(i) * 0.5 + real(j) * 0.25
 10   continue
 11   continue
      do 40 it = 1, 5
      do 21 j = 2, 39
      do 20 i = 2, 39
      b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
 20   continue
 21   continue
      do 31 j = 2, 39
      do 30 i = 2, 39
      a(i,j) = b(i,j)
 30   continue
 31   continue
 40   continue
      s = a(20,20) + a(3,3)
      write(*,*) s
      end
";
        run_both(src, 1);
        run_both(src, 4);
    }

    #[test]
    fn kernel_matches_tree_with_conditionals_and_intrinsics() {
        let src = "      program p
      real a(30), b(30), s
      integer i, n
      n = 30
      do 10 i = 1, n
      a(i) = sin(real(i)) * 2.0 + sqrt(real(i))
 10   continue
      do 20 i = 2, n - 1
      if (a(i) .gt. 1.0) then
      b(i) = max(a(i-1), a(i+1), 0.5) + abs(a(i) - 2.0)
      else if (a(i) .lt. -1.0) then
      b(i) = min(a(i-1), a(i+1)) - exp(a(i))
      else
      b(i) = mod(a(i), 3.0) + sign(1.5, a(i)) + atan(a(i))
      endif
      if (b(i) .ge. 10.0) b(i) = log(b(i))
 20   continue
      s = 0.0
      do 30 i = 1, n
      s = s + b(i)
 30   continue
      write(*,*) s
      end
";
        run_both(src, 1);
        run_both(src, 4);
    }

    #[test]
    fn kernel_matches_tree_integer_arrays_and_wrapping() {
        let src = "      program p
      integer m(20), i, k
      real w(20)
      do 10 i = 1, 20
      m(i) = mod(i * 7, 5) + i / 3 + 2 ** mod(i, 4)
 10   continue
      do 20 i = 1, 20
      w(i) = float(m(i)) * 1.5 + real(iabs(3 - i)) + real(nint(0.6 * real(i)))
 20   continue
      k = m(7) + int(w(11))
      write(*,*) k
      end
";
        run_both(src, 1);
        run_both(src, 4);
    }

    #[test]
    fn out_of_bounds_error_matches_tree_walk() {
        let src = "      program p
      real a(10)
      integer i
      do 10 i = 1, 11
      a(i) = 1.0
 10   continue
      end
";
        let file = parse(src);
        let mut h1 = crate::exec::NoHooks;
        let te = crate::exec::run_program_capture(&file, vec![], &mut h1, 0)
            .expect_err("tree walk must report out-of-bounds");
        let set = KernelSet::build(&file, None, 1);
        assert!(!set.is_empty());
        let mut h2 = crate::exec::NoHooks;
        let ke = crate::exec::run_program_capture_with(&file, vec![], &mut h2, 0, Some(&set))
            .expect_err("kernel must report out-of-bounds");
        assert_eq!(
            format!("{te}"),
            format!("{ke}"),
            "error text and line must match"
        );
    }

    #[test]
    fn statement_budget_matches_tree_walk() {
        let src = "      program p
      real a(50)
      integer i
      do 10 i = 1, 50
      a(i) = real(i)
 10   continue
      end
";
        let file = parse(src);
        for limit in [1u64, 10, 25, 51, 52, 1000] {
            let mut h1 = crate::exec::NoHooks;
            let tr = crate::exec::run_program_capture(&file, vec![], &mut h1, limit);
            let set = KernelSet::build(&file, None, 1);
            let mut h2 = crate::exec::NoHooks;
            let kr =
                crate::exec::run_program_capture_with(&file, vec![], &mut h2, limit, Some(&set));
            match (tr, kr) {
                (Ok((mt, _)), Ok((mk, _))) => assert_eq!(mt.ops, mk.ops),
                (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                (a, b) => panic!(
                    "budget {limit}: tree {:?} vs kernel {:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn affine_coefficient_analysis() {
        let mut loops = HashSet::new();
        loops.insert(0usize);
        loops.insert(1usize);
        let i = || IExpr::Slot(0);
        let j = || IExpr::Slot(1);
        let c = IExpr::Add(Box::new(i()), Box::new(IExpr::Const(3)));
        assert_eq!(affine_root_coeff(&c, 0, &loops), Some(1));
        let c = IExpr::Sub(Box::new(IExpr::Const(3)), Box::new(i()));
        assert_eq!(affine_root_coeff(&c, 0, &loops), Some(-1));
        let c = IExpr::Mul(Box::new(IExpr::Const(2)), Box::new(i()));
        assert_eq!(affine_root_coeff(&c, 0, &loops), Some(2));
        // i + j: remainder mentions another loop var ⇒ rejected
        let c = IExpr::Add(Box::new(i()), Box::new(j()));
        assert_eq!(affine_root_coeff(&c, 0, &loops), None);
        // j alone: fine for a non-owner dimension of var 0? No — the
        // analysis only says "no root dependence" via Some(0) for
        // loop-invariant terms; j is loop-variant ⇒ None.
        assert_eq!(affine_root_coeff(&j(), 0, &loops), None);
        // plain scalar (slot 2, not a loop var)
        assert_eq!(affine_root_coeff(&IExpr::Slot(2), 0, &loops), Some(0));
        // i * i: nonlinear
        let c = IExpr::Mul(Box::new(i()), Box::new(i()));
        assert_eq!(affine_root_coeff(&c, 0, &loops), None);
    }
}
