//! Compiled kernels for comm-free loop nests.
//!
//! The tree-walk interpreter visits every expression node and carries
//! every intermediate in a [`Value`] on each iteration of a stencil
//! loop. This module lowers eligible `do` nests once, at plan time,
//! straight from the AST into one flat register program — `Op`s
//! `{code, dst, a, b}` over one file of 64-bit registers, with every
//! `c`/`i`/`i±c` subscript resolved to a `(register, offset)` pair at
//! emit time — and runs it with two drivers over the same ops:
//!
//! * **as rows** for an innermost loop whose body nothing can fail in
//!   or carry state through: one op runs over a whole row of trips, so
//!   dispatch amortises over the row and the arithmetic vectorises. Rows
//!   run along the nest's loop that subscripts the lowest store dimension
//!   when any loop order of the nest is provably equivalent
//!   ([`RowVerdict::Interchanged`]: `do i/do j/do k` rows along the unit
//!   stride), else along the innermost loop ([`RowVerdict::Row`]); the
//!   whole nest is proven in bounds once, at its corners;
//! * **point-wise** for everything else, and for any nest whose proof
//!   fails at run time — one op at a time over the registers, in source
//!   order, with the tree walk's per-element checks.
//!
//! When a nest is provably data-parallel in its outermost loop its
//! trips are also split across the vendored `rayon` thread pool.
//!
//! Everything observable is kept bit-exact with the tree walk:
//! arithmetic follows `eval::binop`/`apply_intrinsic` to the letter;
//! [`OpCounts`] are charged per op point-wise and from each row's static
//! cost, matching the tree walk's exactly; runtime errors carry its
//! messages and lines, and since a nest that could fail never forms rows,
//! partial stores and counters at the error match too; scalars are
//! written back through [`Frame::set_scalar`] only for names the nest
//! assigns. A nest that cannot be proven equivalent is not compiled (or
//! not *runnable* for the current frame), and the caller tree-walks it.

use crate::machine::{ArrayId, Frame, Machine, OpCounts, RunError};
use crate::value::Value;
use autocfd_fortran::ast::{
    BinOp, Expr, LValue, SourceFile, Stmt, StmtId, StmtKind, Type, UnOp, Unit,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

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
struct ResolvedClamp {
    slot: Reg,
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
// The register program
// ---------------------------------------------------------------------------

/// Index into the register file, laid out `[slots | constants |
/// temporaries]`. A register holds an integer or a real as its 64 bits
/// ([`Lane`]); an op's code says which each operand is. While a nest is
/// being emitted the three kinds are told apart by the tag in the top
/// two bits ([`KONST`], [`TEMP`]); [`Compiler::compile`] relocates them
/// into the dense layout once the slot and constant counts are known.
type Reg = u32;
/// "No register": an absent operand, or the constant part of a
/// subscript with no variable.
const NONE: Reg = u32::MAX;
const KONST: Reg = 1 << 30;
const TEMP: Reg = 2 << 30;

/// Operation codes, with `dst ← operands` and what each holds (`i`/`r`;
/// booleans are integers `0`/`1`). Codes from [`Code::AbsI`] on charge
/// one flop, the ones before it none — the tree walk's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd)]
enum Code {
    /// Statement tick (`imm` = line, which the statement's evaluation
    /// errors carry).
    Tick,
    /// `pc ← imm`.
    Jmp,
    /// `pc ← imm` unless `i[a]`.
    BrF,
    /// `pc ← imm` if `i[a]`.
    BrT,
    /// Counted loop `imm` over `i[a] ..= i[b]` step `i[dst]` (1 when
    /// absent); the body follows and ends at the loop's `end`.
    Do,
    // i ← i, i (integer arithmetic wraps; `DivI` and `PowI` can fail)
    MovI,
    AddI,
    SubI,
    MulI,
    NegI,
    DivI,
    PowI,
    // r ← r, r
    MovR,
    NegR,
    /// One link of a `max`/`min` fold, whose single flop is its final
    /// `Cvt`/`Int`.
    Max,
    Min,
    /// `r ← i as f64`.
    I2R,
    /// `i ← r as i64`, the `as_i64` truncation.
    R2I,
    // i ← r ? r (both sides through f64 — `eval::binop`)
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `i ← !i[a]`.
    Not,
    /// `r ←` the array element at site `imm` (rounded when the array is
    /// declared integer).
    LoadR,
    /// `i ←` the same element `as i64` (integer-typed array name).
    LoadI,
    /// The element at site `imm` `← r[a]` (truncated when the array is
    /// declared integer).
    Store,
    // One flop each from here on, charged before any domain check.
    /// `abs`/`iabs` on an integer.
    AbsI,
    /// `mod` on integers; can fail.
    ModI,
    AddR,
    SubR,
    MulR,
    DivR,
    PowR,
    ModR,
    Sign,
    AbsR,
    /// `float`/`real`/`dble`, and the end of a real `max`/`min` fold:
    /// identity.
    Cvt,
    Exp,
    Sin,
    Cos,
    Tan,
    Atan,
    /// Can fail (negative argument).
    Sqrt,
    /// Can fail (non-positive argument).
    Log,
    /// `int(x)`, and the end of an all-integer `max`/`min` fold: `R2I`'s
    /// truncation.
    Int,
    /// `nint(x)`.
    Nint,
}

impl Code {
    /// Flops the tree walk charges for this op.
    fn flops(self) -> u64 {
        (self >= Code::AbsI) as u64
    }
}

/// One instruction. `dst`/`a`/`b` are always registers (or [`NONE`]);
/// anything else an op needs — line, jump target, loop or site index —
/// is `imm`. A unary op names its operand as both `a` and `b`, so every
/// arithmetic op is `dst ← f(a, b)`.
#[derive(Debug, Clone, Copy)]
struct Op {
    code: Code,
    /// Row-driver operand shapes, set by the row analysis: bit 0 = `a`
    /// varies along the row, bit 1 = `b` does (bits 2 and 3: see
    /// [`marks_shift`]). A pure op with neither bit is uniform and runs
    /// once per row on the register file.
    row: u8,
    dst: Reg,
    a: Reg,
    b: Reg,
    imm: u32,
}

/// One subscript: `add` plus the integer register `reg` (when present).
/// `c`, `i` and `i±c` subscripts are recognised at emit time and name a
/// slot — they charge no ops and cannot fail, so the bounds of a whole
/// row follow from its end points. Any other subscript is computed by
/// ordinary ops into a temporary that `reg` names (with `add == 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Aff {
    reg: Reg,
    add: i64,
}

/// One array access: the array and its subscripts `subs[lo..hi]`.
#[derive(Debug, Clone, Copy)]
struct Site {
    arr: u32,
    lo: u32,
    hi: u32,
}

/// Which driver the trips of one `do` loop of a compiled nest take.
/// The verdict is the row analysis's own result, decided once at
/// compile time; rows still run point-wise, in source order, whenever
/// their run-time proof (bounds at the corner points, rank, no aliased
/// names, statement budget, trip counts) fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowVerdict {
    /// Straight-line element stores over loads, constants, invariant
    /// scalars and infallible arithmetic: one op runs a whole row.
    Row,
    /// As `Row`, but along an enclosing loop of the perfect nest (or this
    /// loop, when it can row and is longer at run time), the rest around.
    Interchanged {
        /// The row loop's depth in the nest (0 = its outermost loop).
        axis: u32,
    },
    /// One trip at a time, for the stated reason.
    PointWise(PointWise),
}

/// Why a loop's trips cannot be formed into rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointWise {
    /// The body holds another loop (only innermost loops form rows).
    InnerLoop,
    /// The body assigns a scalar: state carried from trip to trip.
    ScalarState,
    /// The body branches (`if`, logical `if`, `.and.`/`.or.`).
    Branch,
    /// The body can fail part-way: `sqrt`, `log`, integer `/`, `mod`,
    /// `**`.
    Fallible,
    /// A store may meet another access of the body at a different trip.
    CarriedDependence,
    /// A subscript is not `c`, `i` or `i±c`.
    NonAffine,
}

/// One counted loop of a nest.
#[derive(Debug, Clone)]
struct Loop {
    var: Reg,
    /// Body ops are `start..end`; the loop's `Do` op sits at `start-1`.
    start: usize,
    end: usize,
    line: u32,
    /// Sites created by the body (`sites[lo..hi]`).
    sites: (usize, usize),
    verdict: RowVerdict,
    /// Innermost rowed loops only: what one trip of the body charges.
    cost: OpCounts,
    /// Innermost rowed loops only: the body reads the row variable, by [`marks_shift`] / 2.
    iota: [bool; 2],
    /// On a rowed nest's outermost loop: `(row loop, innermost loop)`.
    rows: Option<(usize, usize)>,
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
    ops: Vec<Op>,
    sites: Vec<Site>,
    subs: Vec<Aff>,
    /// `loops[0]` is the root.
    loops: Vec<Loop>,
    slots: Vec<SlotInfo>,
    consts: Vec<Value>,
    ntemps: usize,
    arrays: Vec<ArrInfo>,
    /// Whether outer-loop trips may be split across threads.
    threadable: bool,
}

impl Kernel {
    fn subs_of(&self, s: &Site) -> &[Aff] {
        &self.subs[s.lo as usize..s.hi as usize]
    }

    /// First temporary register.
    fn t0(&self) -> usize {
        self.slots.len() + self.consts.len()
    }
}

/// The compiled kernels of one program plus the shared thread pool.
#[derive(Debug, Default)]
pub struct KernelSet {
    kernels: HashMap<u32, Arc<Kernel>>,
    /// The compiled nests' ids in source order.
    nests: Vec<StmtId>,
    pool: Option<rayon::ThreadPool>,
}

impl KernelSet {
    /// Compile every eligible nest of `file`, then [`KernelSet::select`].
    pub fn build(file: &SourceFile, hints: Option<&[StmtId]>, threads: usize) -> KernelSet {
        let mut all = KernelSet::default();
        for unit in &file.units {
            walk_nests(unit, &unit.body, &mut |k| {
                all.nests.push(k.id);
                all.kernels.insert(k.id.0, Arc::new(k));
            });
        }
        all.select(hints, threads)
    }

    /// The kernels a run uses, shared: those `hints` (the plan's marking)
    /// list, if any, with a pool of `threads` workers (1 = sequential).
    pub fn select(&self, hints: Option<&[StmtId]>, threads: usize) -> KernelSet {
        let mut set = KernelSet::default();
        for &id in self
            .nests
            .iter()
            .filter(|id| hints.is_none_or(|h| h.contains(id)))
        {
            set.nests.push(id);
            set.kernels.insert(id.0, self.kernels[&id.0].clone());
        }
        set.pool = (threads > 1 && set.kernels.values().any(|k| k.threadable))
            .then(|| rayon::ThreadPool::new(threads));
        set
    }

    /// The kernel compiled for a root `do` statement, if any.
    pub fn get(&self, id: StmtId) -> Option<&Kernel> {
        self.kernels.get(&id.0).map(|k| &**k)
    }

    /// The ids of the compiled nests, in source order.
    pub fn nests(&self) -> &[StmtId] {
        &self.nests
    }

    /// Compatibility shim: the engine every run executes as. Removed
    /// with ROADMAP item 1's `[benchmark]` PR.
    #[doc(hidden)]
    pub fn kind(&self) -> autocfd_codegen::EnginePref {
        autocfd_codegen::EnginePref::Kernel
    }

    /// The row analysis's verdict on every `do` loop of every compiled
    /// nest, as `(source line, verdict)` in line order.
    pub fn row_verdicts(&self) -> Vec<(u32, RowVerdict)> {
        let mut v: Vec<(u32, RowVerdict)> = self
            .kernels
            .values()
            .flat_map(|k| k.loops.iter().map(|l| (l.line, l.verdict)))
            .collect();
        v.sort_by_key(|&(line, _)| line);
        v
    }
}

/// Ids of every kernel-eligible outermost `do` nest in `file`, in
/// source order. This is the marking the compiler records in the plan
/// (`SpmdPlan::kernel_nests`) so `--plan` runs and every worker process
/// compile the same kernels.
pub fn kernel_nests(file: &SourceFile) -> Vec<StmtId> {
    KernelSet::build(file, None, 1).nests
}

/// Walk statements, attempting compilation at every outermost `do`;
/// descend into the bodies of everything that did not compile.
fn walk_nests<'u>(unit: &'u Unit, stmts: &'u [Stmt], sink: &mut impl FnMut(Kernel)) {
    for s in stmts {
        if matches!(s.kind, StmtKind::Do { .. }) {
            if let Some(k) = Compiler::compile(unit, s) {
                sink(k);
                continue;
            }
        }
        for body in s.child_bodies() {
            walk_nests(unit, body, sink);
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation: AST → ops
// ---------------------------------------------------------------------------

/// Static type of an emitted value, which is also its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I,
    R,
    B,
}

/// An emitted value: its type and the register holding it.
type Val = (Ty, Reg);

/// `c` or `-c` as a literal.
fn int_lit(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntLit(v) => Some(*v),
        Expr::Un {
            op: UnOp::Neg,
            expr,
        } => match **expr {
            Expr::IntLit(v) => v.checked_neg(),
            _ => None,
        },
        _ => None,
    }
}

/// Emits one nest straight into the [`Kernel`] it will become.
struct Compiler<'u> {
    unit: &'u Unit,
    k: Kernel,
    slot_ix: HashMap<&'u str, Reg>,
    arr_ix: HashMap<&'u str, u32>,
    /// Temporaries live within one statement; the counter restarts at
    /// every statement and `k.ntemps` keeps the high-water mark.
    next_temp: u32,
}

impl<'u> Compiler<'u> {
    fn new(unit: &'u Unit, id: StmtId) -> Self {
        let k = Kernel {
            id,
            ops: Vec::new(),
            sites: Vec::new(),
            subs: Vec::new(),
            loops: Vec::new(),
            slots: Vec::new(),
            consts: Vec::new(),
            ntemps: 0,
            arrays: Vec::new(),
            threadable: false,
        };
        Compiler {
            unit,
            k,
            slot_ix: HashMap::new(),
            arr_ix: HashMap::new(),
            next_temp: 0,
        }
    }

    /// Compile the nest rooted at `s` (a `do` statement); `None` when
    /// any construct inside escapes the supported subset. Registers are
    /// then relocated from their emit-time tags into `[slots | consts |
    /// temps]` and the two analyses run over the finished program.
    fn compile(unit: &'u Unit, s: &'u Stmt) -> Option<Kernel> {
        let mut c = Compiler::new(unit, s.id);
        c.compile_do(s)?;
        let mut k = c.k;
        let (ns, nk) = (k.slots.len() as u32, k.consts.len() as u32);
        let rel = |r: &mut Reg| {
            *r = match *r >> 30 {
                0 => *r,
                1 => ns + (*r & !KONST),
                2 => ns + nk + (*r & !TEMP),
                _ => NONE,
            }
        };
        for op in &mut k.ops {
            rel(&mut op.dst);
            rel(&mut op.a);
            rel(&mut op.b);
        }
        k.subs.iter_mut().for_each(|s| rel(&mut s.reg));
        // a compile keeps its kernels for every run: no growth slack
        k.ops.shrink_to_fit();
        k.subs.shrink_to_fit();
        k.loops.shrink_to_fit();
        k.threadable = k.prove_store_disjointness();
        for li in 0..k.loops.len() {
            k.choose_rows(li);
        }
        Some(k)
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

    fn slot(&mut self, name: &'u str) -> Option<Reg> {
        if self.unit.is_array(name) {
            return None; // array used as a scalar — tree walk errors
        }
        if let Some(&i) = self.slot_ix.get(name) {
            return Some(i);
        }
        let is_int = self.scalar_is_int(name)?;
        let i = self.k.slots.len() as Reg;
        self.k.slots.push(SlotInfo {
            name: name.to_string(),
            is_int,
        });
        self.slot_ix.insert(name, i);
        Some(i)
    }

    fn array(&mut self, name: &'u str, written: bool) -> Option<u32> {
        if !self.unit.is_array(name) {
            return None;
        }
        let is_int = self.scalar_is_int(name)?; // same typing rule
        let i = match self.arr_ix.get(name) {
            Some(&i) => i,
            None => {
                let i = self.k.arrays.len() as u32;
                self.k.arrays.push(ArrInfo {
                    name: name.to_string(),
                    is_int,
                    written: false,
                });
                self.arr_ix.insert(name, i);
                i
            }
        };
        if written {
            self.k.arrays[i as usize].written = true;
        }
        Some(i)
    }

    fn konst(&mut self, v: Value) -> Reg {
        self.k.consts.push(v);
        KONST | (self.k.consts.len() as Reg - 1)
    }

    fn emit(&mut self, code: Code, dst: Reg, a: Reg, b: Reg, imm: u32) -> usize {
        self.k.ops.push(Op {
            code,
            row: 0,
            dst,
            a,
            b,
            imm,
        });
        self.k.ops.len() - 1
    }

    /// Emit `code` into a fresh temporary.
    fn op(&mut self, code: Code, a: Reg, b: Reg, imm: u32) -> Reg {
        let d = TEMP | self.next_temp;
        self.next_temp += 1;
        self.k.ntemps = self.k.ntemps.max(self.next_temp as usize);
        self.emit(code, d, a, b, imm);
        d
    }

    /// Point the jump at `at` to the next op emitted.
    fn land(&mut self, at: usize) {
        self.k.ops[at].imm = self.k.ops.len() as u32;
    }

    /// Coerce to f64 the way `as_f64` would.
    fn real(&mut self, v: Val) -> Option<Reg> {
        match v.0 {
            Ty::R => Some(v.1),
            Ty::I => Some(self.op(Code::I2R, v.1, v.1, 0)),
            Ty::B => None,
        }
    }

    /// Coerce to a subscript/bound value the way `as_i64` would.
    fn index(&mut self, v: Val) -> Option<Reg> {
        match v.0 {
            Ty::I => Some(v.1),
            Ty::R => Some(self.op(Code::R2I, v.1, v.1, 0)),
            Ty::B => None,
        }
    }

    fn boolean(&mut self, e: &'u Expr) -> Option<Reg> {
        match self.expr(e)? {
            (Ty::B, r) => Some(r),
            _ => None,
        }
    }

    fn compile_do(&mut self, s: &'u Stmt) -> Option<()> {
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
        if !self.k.slots[vslot as usize].is_int {
            return None; // real loop variables stay on the tree walk
        }
        self.emit(Code::Tick, NONE, NONE, NONE, s.line);
        let from = self.expr(from).and_then(|v| self.index(v))?;
        let to = self.expr(to).and_then(|v| self.index(v))?;
        let step = match step {
            Some(e) => self.expr(e).and_then(|v| self.index(v))?,
            None => NONE,
        };
        let li = self.k.loops.len();
        self.emit(Code::Do, step, from, to, li as u32);
        self.k.loops.push(Loop {
            var: vslot,
            start: self.k.ops.len(),
            end: 0,
            line: s.line,
            sites: (self.k.sites.len(), 0),
            verdict: RowVerdict::PointWise(PointWise::InnerLoop),
            cost: OpCounts::default(),
            iota: [false; 2],
            rows: None,
        });
        self.stmts(body)?;
        self.k.loops[li].end = self.k.ops.len();
        self.k.loops[li].sites.1 = self.k.sites.len();
        Some(())
    }

    fn stmts(&mut self, list: &'u [Stmt]) -> Option<()> {
        // Labels inside the nest are inert: no goto can exist in an
        // eligible nest (`Goto` fails compilation), and a goto outside
        // the nest cannot resolve into a loop body (`exec_stmts` only
        // searches its own statement list).
        list.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &'u Stmt) -> Option<()> {
        self.next_temp = 0;
        match &s.kind {
            StmtKind::Assign { target, value } => self.assign(target, value, s.line),
            StmtKind::Do { .. } => self.compile_do(s),
            StmtKind::If {
                cond,
                then,
                else_ifs,
                els,
            } => {
                // One tick for the whole chain; each arm tests, runs
                // and leaves.
                self.emit(Code::Tick, NONE, NONE, NONE, s.line);
                let mut exits = Vec::with_capacity(1 + else_ifs.len());
                let arms =
                    std::iter::once((cond, then)).chain(else_ifs.iter().map(|(c, b)| (c, b)));
                for (c, body) in arms {
                    let c = self.boolean(c)?;
                    let skip = self.emit(Code::BrF, NONE, c, NONE, 0);
                    self.stmts(body)?;
                    exits.push(self.emit(Code::Jmp, NONE, NONE, NONE, 0));
                    self.land(skip);
                }
                if let Some(b) = els {
                    self.stmts(b)?;
                }
                exits.into_iter().for_each(|j| self.land(j));
                Some(())
            }
            StmtKind::LogicalIf { cond, stmt } => {
                self.emit(Code::Tick, NONE, NONE, NONE, s.line);
                let c = self.boolean(cond)?;
                let skip = self.emit(Code::BrF, NONE, c, NONE, 0);
                self.stmt(stmt)?;
                self.land(skip);
                Some(())
            }
            StmtKind::Continue => {
                self.emit(Code::Tick, NONE, NONE, NONE, s.line);
                Some(())
            }
            // Calls (communication!), goto/return/stop (escaping
            // control flow), I/O and do-while stay on the tree walk.
            _ => None,
        }
    }

    fn assign(&mut self, lv: &'u LValue, value: &'u Expr, line: u32) -> Option<()> {
        self.emit(Code::Tick, NONE, NONE, NONE, line);
        let rhs = self.expr(value)?;
        if lv.indices.is_empty() {
            let slot = self.slot(&lv.name)?;
            // `set_scalar` coerces to the declared type.
            let code = match (self.k.slots[slot as usize].is_int, rhs.0) {
                (true, Ty::I) => Code::MovI,
                (true, Ty::R) => Code::R2I,
                (false, Ty::I) => Code::I2R,
                (false, Ty::R) => Code::MovR,
                (_, Ty::B) => return None,
            };
            self.emit(code, slot, rhs.1, rhs.1, 0);
            return Some(());
        }
        // RHS first, then subscripts, then the store counter, then the
        // bounds check — `assign`'s exact order.
        let arr = self.array(&lv.name, true)?;
        let site = self.site(arr, &lv.indices)?;
        let v = self.real(rhs)?;
        self.emit(Code::Store, NONE, v, NONE, site);
        Some(())
    }

    /// An integer scalar variable's slot.
    fn int_var(&mut self, e: &'u Expr) -> Option<Reg> {
        match e {
            Expr::Var(n) if !self.unit.is_array(n) && self.scalar_is_int(n) == Some(true) => {
                self.slot(n)
            }
            _ => None,
        }
    }

    /// Recognize the `c`, `i`, `i+c`, `c+i` and `i-c` subscript shapes.
    /// The value the drivers compute (`reg.wrapping_add(add)`) is
    /// identical to evaluating the expression (which also wraps).
    fn affine(&mut self, e: &'u Expr) -> Option<Aff> {
        if let Some(add) = int_lit(e) {
            return Some(Aff { reg: NONE, add });
        }
        if let Some(reg) = self.int_var(e) {
            return Some(Aff { reg, add: 0 });
        }
        let Expr::Bin { op, lhs, rhs } = e else {
            return None;
        };
        let (reg, add) = match op {
            BinOp::Add => match (int_lit(lhs), int_lit(rhs)) {
                (None, Some(c)) => (self.int_var(lhs)?, c),
                (Some(c), None) => (self.int_var(rhs)?, c),
                _ => return None,
            },
            // `i - c` wraps like `i + (-c)` except at `c == i64::MIN`.
            BinOp::Sub => (self.int_var(lhs)?, int_lit(rhs)?.checked_neg()?),
            _ => return None,
        };
        Some(Aff { reg, add })
    }

    /// Register one access site; non-affine subscripts are emitted as
    /// ops (in order, so their loads and errors keep their place).
    fn site(&mut self, arr: u32, indices: &'u [Expr]) -> Option<u32> {
        let mut subs = Vec::with_capacity(indices.len());
        for e in indices {
            subs.push(match self.affine(e) {
                Some(a) => a,
                None => {
                    let v = self.expr(e)?;
                    Aff {
                        reg: self.index(v)?,
                        add: 0,
                    }
                }
            });
        }
        let lo = self.k.subs.len() as u32;
        self.k.subs.extend(subs);
        self.k.sites.push(Site {
            arr,
            lo,
            hi: self.k.subs.len() as u32,
        });
        Some(self.k.sites.len() as u32 - 1)
    }

    fn expr(&mut self, e: &'u Expr) -> Option<Val> {
        Some(match e {
            Expr::StrLit(_) => return None,
            Expr::IntLit(v) => (Ty::I, self.konst(Value::Int(*v))),
            Expr::RealLit(v) => (Ty::R, self.konst(Value::Real(*v))),
            Expr::LogicalLit(b) => (Ty::B, self.konst(Value::Int(*b as i64))),
            Expr::Var(name) => {
                let slot = self.slot(name)?;
                let ty = if self.k.slots[slot as usize].is_int {
                    Ty::I
                } else {
                    Ty::R
                };
                (ty, slot)
            }
            Expr::Index { name, indices } => {
                if self.unit.is_array(name) {
                    let arr = self.array(name, false)?;
                    let site = self.site(arr, indices)?;
                    return Some(if self.k.arrays[arr as usize].is_int {
                        (Ty::I, self.op(Code::LoadI, NONE, NONE, site))
                    } else {
                        (Ty::R, self.op(Code::LoadR, NONE, NONE, site))
                    });
                }
                if crate::eval::is_intrinsic_name(name) {
                    return self.intrinsic(name, indices);
                }
                return None; // user function call
            }
            Expr::Bin { op, lhs, rhs } => {
                if op.is_logical() {
                    // Short-circuit like the tree walk: the right side
                    // (its loads, its errors) runs only when it decides.
                    let l = self.boolean(lhs)?;
                    let d = self.op(Code::MovI, l, l, 0);
                    let br = if *op == BinOp::And {
                        Code::BrF
                    } else {
                        Code::BrT
                    };
                    let skip = self.emit(br, NONE, d, NONE, 0);
                    let r = self.boolean(rhs)?;
                    self.emit(Code::MovI, d, r, r, 0);
                    self.land(skip);
                    return Some((Ty::B, d));
                }
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                let (ty, code) = match (op, l.0, r.0) {
                    (BinOp::Eq, ..) => (Ty::B, Code::Eq),
                    (BinOp::Ne, ..) => (Ty::B, Code::Ne),
                    (BinOp::Lt, ..) => (Ty::B, Code::Lt),
                    (BinOp::Le, ..) => (Ty::B, Code::Le),
                    (BinOp::Gt, ..) => (Ty::B, Code::Gt),
                    (BinOp::Ge, ..) => (Ty::B, Code::Ge),
                    (BinOp::Add, Ty::I, Ty::I) => (Ty::I, Code::AddI),
                    (BinOp::Sub, Ty::I, Ty::I) => (Ty::I, Code::SubI),
                    (BinOp::Mul, Ty::I, Ty::I) => (Ty::I, Code::MulI),
                    (BinOp::Div, Ty::I, Ty::I) => (Ty::I, Code::DivI),
                    (BinOp::Pow, Ty::I, Ty::I) => (Ty::I, Code::PowI),
                    (BinOp::Add, ..) => (Ty::R, Code::AddR),
                    (BinOp::Sub, ..) => (Ty::R, Code::SubR),
                    (BinOp::Mul, ..) => (Ty::R, Code::MulR),
                    (BinOp::Div, ..) => (Ty::R, Code::DivR),
                    (BinOp::Pow, ..) => (Ty::R, Code::PowR),
                    (BinOp::And | BinOp::Or, ..) => unreachable!("logical ops handled above"),
                };
                if ty == Ty::I {
                    (ty, self.op(code, l.1, r.1, 0))
                } else {
                    // Relational and mixed arithmetic go through f64.
                    let (a, b) = (self.real(l)?, self.real(r)?);
                    (ty, self.op(code, a, b, 0))
                }
            }
            Expr::Un { op, expr } => match (op, &**expr) {
                // Fold `-(literal)` into a constant.
                (UnOp::Neg, Expr::IntLit(v)) => (Ty::I, self.konst(Value::Int(v.checked_neg()?))),
                (UnOp::Neg, Expr::RealLit(v)) => (Ty::R, self.konst(Value::Real(-v))),
                (UnOp::Neg, _) => match self.expr(expr)? {
                    (Ty::I, r) => (Ty::I, self.op(Code::NegI, r, r, 0)),
                    (Ty::R, r) => (Ty::R, self.op(Code::NegR, r, r, 0)),
                    (Ty::B, _) => return None,
                },
                (UnOp::Not, _) => {
                    let r = self.boolean(expr)?;
                    (Ty::B, self.op(Code::Not, r, r, 0))
                }
            },
        })
    }

    fn intrinsic(&mut self, name: &str, args: &'u [Expr]) -> Option<Val> {
        // The tree walk evaluates *all* arguments, then most intrinsics
        // consume a prefix; reject surplus arguments instead of
        // modeling their evaluation (the fallback handles them).
        let vals: Vec<Val> = args.iter().map(|a| self.expr(a)).collect::<Option<_>>()?;
        Some(match (name, vals.as_slice()) {
            ("abs", &[(Ty::I, a)]) => (Ty::I, self.op(Code::AbsI, a, a, 0)),
            ("abs", &[(Ty::R, a)]) => (Ty::R, self.op(Code::AbsR, a, a, 0)),
            ("iabs", &[v]) => {
                let a = self.index(v)?;
                (Ty::I, self.op(Code::AbsI, a, a, 0))
            }
            ("max" | "amax1" | "min" | "amin1", &[first, ref rest @ ..]) => {
                // Folded in f64 like the tree walk, one flop for the
                // whole fold; all-integer `max`/`min` casts back.
                let link = if name == "max" || name == "amax1" {
                    Code::Max
                } else {
                    Code::Min
                };
                let all_int = (name == "max" || name == "min") && vals.iter().all(|v| v.0 == Ty::I);
                let mut acc = self.real(first)?;
                for &v in rest {
                    let r = self.real(v)?;
                    acc = self.op(link, acc, r, 0);
                }
                if all_int {
                    (Ty::I, self.op(Code::Int, acc, acc, 0))
                } else {
                    (Ty::R, self.op(Code::Cvt, acc, acc, 0))
                }
            }
            ("sqrt" | "exp" | "log" | "sin" | "cos" | "tan" | "atan", &[v]) => {
                let code = match name {
                    "sqrt" => Code::Sqrt,
                    "exp" => Code::Exp,
                    "log" => Code::Log,
                    "sin" => Code::Sin,
                    "cos" => Code::Cos,
                    "tan" => Code::Tan,
                    _ => Code::Atan,
                };
                let a = self.real(v)?;
                (Ty::R, self.op(code, a, a, 0))
            }
            ("mod", &[(Ty::I, a), (Ty::I, b)]) => (Ty::I, self.op(Code::ModI, a, b, 0)),
            ("mod" | "sign", &[a, b]) => {
                let code = if name == "mod" {
                    Code::ModR
                } else {
                    Code::Sign
                };
                let (a, b) = (self.real(a)?, self.real(b)?);
                (Ty::R, self.op(code, a, b, 0))
            }
            ("float" | "real" | "dble", &[v]) => {
                let a = self.real(v)?;
                (Ty::R, self.op(Code::Cvt, a, a, 0))
            }
            ("int" | "nint", &[v]) => {
                let code = if name == "int" { Code::Int } else { Code::Nint };
                let a = self.real(v)?;
                (Ty::I, self.op(code, a, a, 0))
            }
            _ => return None, // recognized but unimplemented — tree walk errors
        })
    }
}

impl Kernel {
    /// The site of every load and store of `ops`, and whether it stores.
    fn accesses(&self, ops: Range<usize>) -> impl Iterator<Item = (&Site, bool)> {
        let access = |op: &&Op| matches!(op.code, Code::LoadR | Code::LoadI | Code::Store);
        (self.ops[ops].iter().filter(access))
            .map(|op| (&self.sites[op.imm as usize], op.code == Code::Store))
    }

    /// Prove that splitting the root loop's trips across threads can
    /// never make two threads touch the same element. No scalar may be
    /// assigned anywhere in the nest (per-iteration scalar state would
    /// race). Every store must carry the root variable as `i±c` in
    /// exactly one dimension, with every other subscript `c`/`j`/`j±c`
    /// over some other scalar; all stores to the same array must agree
    /// on that dimension and offset. Loads of a written array must sit
    /// at the *same* root coordinate as its stores (identical
    /// owner-dimension subscript, root variable absent elsewhere) —
    /// cross-iteration reads like `a(i, j-1)` under stores to `a(i, j)`
    /// would cross chunk boundaries. Name aliasing (two names bound to
    /// one array) is caught at invocation time by [`rw_disjoint`].
    fn prove_store_disjointness(&self) -> bool {
        let (rv, ns, t0) = (self.loops[0].var, self.slots.len() as Reg, self.t0() as Reg);
        if self.ops.iter().any(|op| op.code != Code::Do && op.dst < ns) {
            return false;
        }
        let elsewhere = |s: &Aff| s.reg != rv && (s.reg == NONE || s.reg < t0);
        // (array → (dim, offset)) of the root variable, agreed across sites
        let mut owners: HashMap<u32, (usize, i64)> = HashMap::new();
        for (site, _) in self.accesses(0..self.ops.len()).filter(|a| a.1) {
            let subs = self.subs_of(site);
            let Some(d) = subs.iter().position(|s| s.reg == rv) else {
                return false;
            };
            let rest_ok = subs
                .iter()
                .enumerate()
                .all(|(d2, s)| d2 == d || elsewhere(s));
            let own = (d, subs[d].add);
            if !rest_ok || *owners.entry(site.arr).or_insert(own) != own {
                return false;
            }
        }
        // A nest with no stores mutates nothing; threading it is
        // pointless.
        !owners.is_empty()
            && self
                .accesses(0..self.ops.len())
                .filter(|a| !a.1)
                .all(|(site, _)| {
                    let Some(&(d, add)) = owners.get(&site.arr) else {
                        return true; // read-only array: any subscript is fine
                    };
                    let subs = self.subs_of(site);
                    subs.get(d) == Some(&Aff { reg: rv, add })
                        && subs
                            .iter()
                            .enumerate()
                            .all(|(d2, s)| d2 == d || elsewhere(s))
                })
    }

    /// The legality test for innermost loop `li`. Its nest: the enclosing
    /// loops whose bodies are one `do` with pure bounds reading no nest
    /// loop variable (a box), from the outermost [`Kernel::permutable`]
    /// one. Its rows: along the first loop, by lowest store dimension, to
    /// pass [`Kernel::analyse_rows`] (a sweep carried along the unit stride
    /// takes the next axis), else along `li`.
    fn choose_rows(&mut self, li: usize) {
        let body = self.loops[li].start..self.loops[li].end;
        if self.loops.get(li + 1).is_some_and(|l| l.start < body.end) {
            return; // holds another loop: `InnerLoop`
        }
        // the bound ops and `Do` of loop `c`, whose tick opens its parent's body
        let header = |c: usize| &self.ops[self.loops[c - 1].start + 1..self.loops[c].start];
        // what `pure` runs, and the `Do` that ends a header
        use Code::*;
        let fallible = |c: Code| matches!(c, DivI | PowI | ModI | Sqrt | Log);
        let pure = |c: Code| c >= Do && !(Eq..=Store).contains(&c) && !fallible(c);
        let mut top = li;
        while top > 0 {
            let vars: Vec<Reg> = self.loops[top - 1..=li].iter().map(|l| l.var).collect();
            let rectangular = (top..=li).all(|d| {
                header(d).iter().all(|op| {
                    pure(op.code) && ![op.a, op.b, op.dst].iter().any(|r| vars.contains(r))
                })
            });
            if self.loops[top - 1].end != body.end || !rectangular || vars[1..].contains(&vars[0]) {
                break;
            }
            top -= 1;
        }
        let head = (top..li).find(|&h| self.permutable(h, li)).unwrap_or(li);
        // candidate row loops by the lowest store dimension they subscript,
        // and last the innermost loop itself, whose failure is the verdict
        let dim = |r: usize| {
            let (var, stores) = (self.loops[r].var, self.accesses(body.clone()));
            let subs = stores.filter(|a| a.1).map(|(s, _)| self.subs_of(s));
            subs.filter_map(|ss| ss.iter().position(|x| x.reg == var))
                .min()
        };
        let mut axes: Vec<usize> = (head..=li).rev().collect();
        axes.sort_by_key(|&r| dim(r).unwrap_or(usize::MAX));
        axes.push(li);
        let mut why = PointWise::InnerLoop;
        for r in axes {
            match self.analyse_rows(li, self.loops[r].var) {
                Err(w) => why = w,
                Ok((cost, iota)) => {
                    let (head, verdict) = match (r - head) as u32 {
                        _ if r == li => (li, RowVerdict::Row),
                        axis => (head, RowVerdict::Interchanged { axis }),
                    };
                    self.loops[head].rows = Some((r, li));
                    let lp = &mut self.loops[li];
                    (lp.verdict, lp.cost, lp.iota[0]) = (verdict, cost, iota);
                    // and the innermost loop's own row, for when it is longer
                    let var = lp.var;
                    if let Some(Ok((_, iota))) = (r != li).then(|| self.analyse_rows(li, var)) {
                        (self.loops[li].rows, self.loops[li].iota[1]) = (Some((li, li)), iota);
                    }
                    return;
                }
            }
        }
        self.loops[li].verdict = RowVerdict::PointWise(why);
    }

    /// Whether the nest `h..=li` may run in any loop order keeping each
    /// loop's direction: yes when every store meets each access of its
    /// array only at iterations differing in at most one loop, which every
    /// order then compares by that loop alone — bit-exact.
    fn permutable(&self, h: usize, li: usize) -> bool {
        let vars: Vec<Reg> = self.loops[h..=li].iter().map(|l| l.var).collect();
        let of = |r: Reg| vars.iter().position(|&v| v == r);
        let body = self.loops[li].start..self.loops[li].end;
        let mut stores = self.accesses(body.clone()).filter(|a| a.1);
        stores.all(|(store, _)| {
            let ss = self.subs_of(store);
            let same = self.accesses(body.clone()).filter(|a| a.0.arr == store.arr);
            same.map(|(a, _)| self.subs_of(a)).all(|os| {
                // per loop: the distance, `None` while unconstrained
                let mut dist = vec![None; vars.len()];
                for (x, y) in ss.iter().zip(os) {
                    let gap = x.add.wrapping_sub(y.add);
                    match (of(x.reg), of(y.reg)) {
                        (None, None) if x.reg == y.reg && gap != 0 => return true, // apart
                        (None, None) => {}
                        (Some(c), Some(d)) if c == d && dist[c].replace(gap).is_none() => {}
                        _ => return false,
                    }
                }
                ss.len() == os.len() && dist.iter().filter(|d| **d != Some(0)).count() <= 1
            })
        })
    }

    /// The row analysis of innermost loop `li`'s body along `var`: its
    /// per-trip cost and whether it reads `var`, having marked the operands
    /// that vary, or why no row forms. A row runs each op over all trips
    /// before the next, so only when that reordering is invisible:
    ///
    /// * nothing in the body can fail or carry state — element stores
    ///   whose right sides are loads, constants, invariant scalars and
    ///   infallible arithmetic, every subscript `c`/`i`/`i±c`;
    /// * no access meets a store of the body at a different trip: two
    ///   sites on one array name either have identical subscripts that
    ///   contain the row variable (same element ⇒ same trip), or differ
    ///   by a constant in a dimension that does not move with the row.
    ///   Names are told apart here; two names bound to one array are
    ///   caught per invocation by [`rw_disjoint`].
    fn analyse_rows(&mut self, li: usize, var: Reg) -> Result<(OpCounts, bool), PointWise> {
        use Code::*;
        let (ns, t0) = (self.slots.len() as Reg, self.t0() as Reg);
        let (lp, mut varies) = (self.loops[li].clone(), vec![false; self.ntemps]);
        let shift = marks_shift(&lp, var);
        let (mut cost, mut iota) = (OpCounts::default(), false);
        // (site, is a store) of every access, in body order
        let mut accesses: Vec<(&Site, bool)> = Vec::new();
        let mut scan = || {
            for op in &mut self.ops[lp.start..lp.end] {
                cost.flops += op.code.flops();
                match op.code {
                    Tick => cost.stmts += 1,
                    Do => return Some(PointWise::InnerLoop),
                    Jmp | BrF | BrT | Eq | Ne | Lt | Le | Gt | Ge | Not => {
                        return Some(PointWise::Branch)
                    }
                    DivI | PowI | ModI | Sqrt | Log => return Some(PointWise::Fallible),
                    LoadR | LoadI | Store => {
                        let site = &self.sites[op.imm as usize];
                        let subs = &self.subs[site.lo as usize..site.hi as usize];
                        if subs.iter().any(|s| s.reg != NONE && s.reg >= t0) {
                            return Some(PointWise::NonAffine);
                        }
                        accesses.push((site, op.code == Store));
                        cost.stores += (op.code == Store) as u64;
                        cost.loads += (op.code != Store) as u64;
                    }
                    _ => {}
                }
                if op.dst < ns {
                    return Some(PointWise::ScalarState);
                }
                let along = |r: Reg| r == var || r != NONE && r >= t0 && varies[(r - t0) as usize];
                let marks = along(op.a) as u8 | (along(op.b) as u8) << 1;
                op.row = op.row & !(3 << shift) | marks << shift;
                iota |= op.a == var || op.b == var;
                if op.dst != NONE {
                    varies[(op.dst - t0) as usize] = marks != 0 || matches!(op.code, LoadR | LoadI);
                }
            }
            None
        };
        let why = scan().or_else(|| {
            let carried = accesses.iter().filter(|a| a.1).any(|&(store, _)| {
                let ss = self.subs_of(store);
                // a store the row does not move hits one element on
                // every trip
                !ss.iter().any(|x| x.reg == var)
                    || accesses.iter().any(|&(other, _)| {
                        let os = self.subs_of(other);
                        let apart = ss.len() == os.len()
                            && ss
                                .iter()
                                .zip(os)
                                .any(|(x, y)| x.reg == y.reg && x.reg != var && x.add != y.add);
                        other.arr == store.arr && os != ss && !apart
                    })
            });
            carried.then_some(PointWise::CarriedDependence)
        });
        why.map_or(Ok((cost, iota)), Err)
    }
}

// ---------------------------------------------------------------------------
// Invocation
// ---------------------------------------------------------------------------

/// Entry state captured *without side effects*: the caller may still
/// fall back to the tree walk if this returns `None`.
pub struct Ready {
    regs: Vec<u64>,
    arr_ids: Vec<ArrayId>,
    clamp: Option<ResolvedClamp>,
}

/// Runtime view of one array: raw base pointer plus bounds. The
/// pointer is only dereferenced at offsets validated against `bounds`
/// (the same check `ArrayVal::offset` performs), one element at a time
/// point-wise or one row at a time from its two end points.
#[derive(Clone)]
struct ArrRt {
    ptr: *mut f64,
    bounds: Vec<(i64, i64)>,
    is_int: bool,
}

/// Shared thread-broadcast state.
struct ShareArrs<'a>(&'a [ArrRt]);
// SAFETY: the store disjointness proof (plus the runtime read/write id
// check) makes all concurrent accesses through `ptr` race-free, and
// `bounds`/`is_int` are only read.
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
        let nregs = self.t0() + self.ntemps;
        let mut regs = vec![0u64; nregs];
        for (i, s) in self.slots.iter().enumerate() {
            if frame.arrays.contains_key(&s.name) {
                return None; // compile-time scalar is a runtime array
            }
            match (frame.scalars.get(&s.name), s.is_int) {
                (None, _) => {}
                (Some(Value::Int(v)), true) => regs[i] = v.bits(),
                (Some(Value::Real(v)), false) => regs[i] = v.bits(),
                // Representation differs from the static type (e.g. a
                // parameter constant stored as Int under a real name):
                // the tree walk's dynamic typing must decide.
                _ => return None,
            }
        }
        for (i, c) in self.consts.iter().enumerate() {
            match c {
                Value::Int(v) => regs[self.slots.len() + i] = v.bits(),
                Value::Real(v) => regs[self.slots.len() + i] = v.bits(),
                _ => unreachable!("only numeric constants are emitted"),
            }
        }
        let arr_ids = (self.arrays.iter())
            .map(|a| frame.arrays.get(&a.name).copied())
            .collect::<Option<_>>()?;
        let clamp = match clamp {
            None => None,
            Some((split, mode)) => Some(ResolvedClamp {
                slot: (self.slots.iter()).position(|s| s.name == split.var && s.is_int)? as Reg,
                low: split.low_width as i64,
                high: split.high_width as i64,
                mode,
            }),
        };
        Some(Ready {
            regs,
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
        let arrs: Vec<ArrRt> = ready
            .arr_ids
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
        let mut ctx = Vm::new(self, ready.regs, &arrs, ready.clamp);
        ctx.base_stmts = m.ops.stmts;
        ctx.limit = m.stmt_limit;
        ctx.disjoint = rw_disjoint(&self.arrays, &ready.arr_ids);
        let result = self.run_root(set, &mut ctx, root_ticked);
        // Flush ops and write scalars back whether or not we errored —
        // a failing run aborts, but the machine should still account
        // for the work done.
        add_counts(&mut m.ops, &ctx.ops, 1);
        for (i, s) in self
            .slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| ctx.written[i])
        {
            let v = if s.is_int {
                Value::Int(ctx.int(i as Reg))
            } else {
                Value::Real(ctx.real(i as Reg))
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
        root_ticked: bool,
    ) -> Result<(), RunError> {
        let root = &self.loops[0];
        // ops[0] is the root's own tick; its bounds follow, their errors
        // at the root's line even when the tick was charged outside.
        ctx.line = root.line;
        ctx.run(self, root_ticked as usize, root.start - 1)?;
        let (f, step, trips, clamped) = ctx.bounds(&self.ops[root.start - 1], root)?;
        if clamped {
            // Below the clamped loop the body runs unmodified.
            ctx.clamp = None;
        }
        let threaded =
            self.threadable && ctx.limit == 0 && trips >= 2 && set.pool.is_some() && ctx.disjoint;
        if threaded {
            self.run_threaded(set, ctx, f, step, trips)?;
        } else {
            ctx.run_trips(self, 0, f, step, trips)?;
        }
        // Loop variable rests one past the last value.
        ctx.set(root.var, f + trips * step);
        Ok(())
    }

    /// Split `trips` root iterations into contiguous chunks across the
    /// pool. Each chunk runs an independent VM over a cloned register
    /// file and its own row buffer; op counters are summed
    /// (order-independent totals) and final scalar state is taken from
    /// the last chunk, which by construction executed the final
    /// iterations.
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
        type ChunkOut = (Result<(), RunError>, OpCounts, Vec<u64>, Vec<bool>);
        let results: Vec<Mutex<Option<ChunkOut>>> =
            (0..nchunks).map(|_| Mutex::new(None)).collect();
        let share = ShareArrs(ctx.arrs);
        let (regs0, clamp) = (&ctx.regs, ctx.clamp);
        pool.broadcast(nchunks, &|k| {
            let share = &share;
            let lo = trips as usize * k / nchunks;
            let hi = trips as usize * (k + 1) / nchunks;
            let mut vm = Vm::new(self, regs0.clone(), share.0, clamp);
            let res = vm.run_trips(self, 0, f + lo as i64 * step, step, (hi - lo) as i64);
            *results[k]
                .lock()
                .expect("chunk slots are written once, panic-free") =
                Some((res, vm.ops, vm.regs, vm.written));
        });
        let mut first_err = None;
        for slot in &results {
            let (res, ops, regs, written) = slot
                .lock()
                .expect("chunk slots are written once, panic-free")
                .take()
                .expect("broadcast filled every chunk slot");
            add_counts(&mut ctx.ops, &ops, 1);
            ctx.written
                .iter_mut()
                .zip(written)
                .for_each(|(w, c)| *w |= c);
            if first_err.is_none() {
                first_err = res.err();
            }
            // Last chunk ran the final iterations: its registers are
            // the sequential end state.
            ctx.regs = regs;
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Where an op's row marks along `var` sit in `Op::row`: an interchanged
/// nest keeps those of its innermost loop's own row in bits 2 and 3.
fn marks_shift(lp: &Loop, var: Reg) -> u8 {
    2 * (var == lp.var && matches!(lp.verdict, RowVerdict::Interchanged { .. })) as u8
}

fn add_counts(into: &mut OpCounts, c: &OpCounts, times: u64) {
    into.flops += c.flops * times;
    into.loads += c.loads * times;
    into.stores += c.stores * times;
    into.stmts += c.stmts * times;
}

/// Runtime read/write disjointness by resolved `ArrayId`: argument
/// binding can alias two names to one array, which would defeat the
/// compile-time proofs (threading and rows both tell arrays apart by
/// name).
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

/// Longest stretch of a row run in one go. Longer rows are strip-mined
/// so the temp rows stay cache-resident and the buffer stays
/// `ntemps × STRIP × 8` bytes whatever the grid.
const STRIP: usize = 128;

struct Vm<'k> {
    regs: Vec<u64>,
    arrs: &'k [ArrRt],
    ops: OpCounts,
    base_stmts: u64,
    limit: u64,
    clamp: Option<ResolvedClamp>,
    /// Line that evaluation errors of the current statement carry.
    line: u32,
    /// No two names of the nest resolve to one array this invocation.
    disjoint: bool,
    /// One temp row per temporary, `STRIP` apart, allocated at the
    /// first row, then the row variable's own values. Rows hold either
    /// bank's values as their bits ([`Lane`]).
    rows: Vec<u64>,
    /// `(base, stride)` of each site of the row being run.
    resolved: Vec<(isize, isize)>,
    /// Slots this invocation assigned, the tree walk's only way to create one.
    written: Vec<bool>,
    /// Scratch of [`Vm::run_nest`]: `(first, step, trips)` of each loop.
    nest: Vec<(i64, i64, i64)>,
    /// Scratch of [`Vm::gather`]: the loads of one statement.
    gathered: Vec<Gathered>,
}

impl<'k> Vm<'k> {
    fn new(k: &Kernel, regs: Vec<u64>, arrs: &'k [ArrRt], clamp: Option<ResolvedClamp>) -> Self {
        Vm {
            regs,
            arrs,
            ops: OpCounts::default(),
            base_stmts: 0,
            limit: 0,
            clamp,
            line: 0,
            disjoint: true,
            rows: Vec::new(),
            resolved: vec![(0, 0); k.sites.len()],
            written: vec![false; k.slots.len()],
            nest: Vec::new(),
            gathered: Vec::new(),
        }
    }

    fn int(&self, r: Reg) -> i64 {
        i64::of(self.regs[r as usize])
    }

    fn real(&self, r: Reg) -> f64 {
        f64::of(self.regs[r as usize])
    }

    fn set(&mut self, r: Reg, v: impl Lane) {
        self.regs[r as usize] = v.bits();
        if let Some(w) = self.written.get_mut(r as usize) {
            *w = true;
        }
    }

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

    /// An evaluation error of the current statement.
    fn fail(&self, message: &str) -> RunError {
        RunError::new(message).at(self.line)
    }

    /// Column-major offset of one access with `ArrayVal::offset`'s
    /// exact checks and error text.
    fn offset(&self, k: &Kernel, site: &Site) -> Result<usize, RunError> {
        let (a, subs) = (&self.arrs[site.arr as usize], k.subs_of(site));
        if subs.len() != a.bounds.len() {
            return Err(self.fail(&format!(
                "rank mismatch: {} subscripts for rank-{} array",
                subs.len(),
                a.bounds.len()
            )));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, (s, &(lo, hi))) in subs.iter().zip(&a.bounds).enumerate() {
            let i = match s.reg {
                NONE => s.add,
                r => self.int(r).wrapping_add(s.add),
            };
            if i < lo || i > hi {
                return Err(self.fail(&format!(
                    "subscript {i} out of bounds {lo}:{hi} in dimension {}",
                    d + 1
                )));
            }
            off += (i - lo) as usize * stride;
            stride *= (hi - lo + 1) as usize;
        }
        Ok(off)
    }

    /// The point-wise driver: ops `pc..end`, one at a time over the
    /// register file, counting and checking exactly like the tree walk.
    fn run(&mut self, k: &Kernel, mut pc: usize, end: usize) -> Result<(), RunError> {
        while pc < end {
            let op = &k.ops[pc];
            pc += 1;
            match op.code {
                Code::Tick => {
                    self.line = op.imm;
                    self.tick(op.imm)?;
                }
                Code::Jmp => pc = op.imm as usize,
                Code::BrF | Code::BrT => {
                    if (self.int(op.a) != 0) == (op.code == Code::BrT) {
                        pc = op.imm as usize;
                    }
                }
                Code::Do => {
                    let lp = &k.loops[op.imm as usize];
                    self.exec_do(k, op, lp)?;
                    pc = lp.end;
                }
                _ => {
                    self.ops.flops += op.code.flops();
                    self.exec(k, op)?;
                }
            }
        }
        Ok(())
    }

    /// One op other than control flow, on the register file. Flops are
    /// the caller's to charge (per op point-wise, in bulk per row).
    #[inline(always)]
    fn exec(&mut self, k: &Kernel, op: &Op) -> Result<(), RunError> {
        use Code::*;
        let (a, b, d) = (op.a, op.b, op.dst);
        match op.code {
            DivI => {
                if self.int(b) == 0 {
                    return Err(self.fail("integer division by zero"));
                }
                self.set(d, self.int(a).wrapping_div(self.int(b)));
            }
            PowI => {
                let (x, n) = (self.int(a), self.int(b));
                let v = match x {
                    _ if n >= 0 => (0..n).fold(1i64, |acc, _| acc.wrapping_mul(x)),
                    // Fortran integer power with negative exponent
                    1 => 1,
                    -1 if n % 2 == 0 => 1,
                    -1 => -1,
                    0 => return Err(self.fail("0 ** negative exponent")),
                    _ => 0,
                };
                self.set(d, v);
            }
            ModI => {
                if self.int(b) == 0 {
                    return Err(self.fail("mod by zero"));
                }
                self.set(d, self.int(a).wrapping_rem(self.int(b)));
            }
            Sqrt => {
                if self.real(a) < 0.0 {
                    return Err(self.fail("sqrt of negative value"));
                }
                self.set(d, self.real(a).sqrt());
            }
            Log => {
                if self.real(a) <= 0.0 {
                    return Err(self.fail("log of non-positive value"));
                }
                self.set(d, self.real(a).ln());
            }
            Eq => self.set(d, (self.real(a) == self.real(b)) as i64),
            Ne => self.set(d, (self.real(a) != self.real(b)) as i64),
            Lt => self.set(d, (self.real(a) < self.real(b)) as i64),
            Le => self.set(d, (self.real(a) <= self.real(b)) as i64),
            Gt => self.set(d, (self.real(a) > self.real(b)) as i64),
            Ge => self.set(d, (self.real(a) >= self.real(b)) as i64),
            Not => self.set(d, (self.int(a) == 0) as i64),
            LoadR | LoadI | Store => {
                // Subscripts ran before this op; then the counter, then
                // the bounds check, then the access — the exact order of
                // `eval`'s `Index` arm and of `assign`.
                if op.code == Store {
                    self.ops.stores += 1;
                } else {
                    self.ops.loads += 1;
                }
                let site = &k.sites[op.imm as usize];
                let off = self.offset(k, site)?;
                let arr = &self.arrs[site.arr as usize];
                // SAFETY: `off` was validated against the array bounds,
                // whose product is the data length; the pointer is live
                // for the whole invocation, no reference to the data
                // exists while the kernel runs, and concurrent access is
                // race-free by the disjointness proof.
                let p = unsafe { arr.ptr.add(off) };
                if op.code == Store {
                    let x = self.real(a);
                    // SAFETY: `p` is in bounds, as above.
                    unsafe { *p = if arr.is_int { x.trunc() } else { x } };
                } else {
                    // SAFETY: `p` is in bounds, as above.
                    let v = unsafe { *p };
                    let v = if arr.is_int { v.round() } else { v };
                    match op.code {
                        LoadR => self.set(d, v),
                        _ => self.set(d, v as i64),
                    }
                }
            }
            _ => pure(self, op),
        }
        Ok(())
    }

    /// Resolve a loop's bounds from the registers its `Do` op names:
    /// `(first value, step, trips, clamped here)`.
    fn bounds(&self, op: &Op, lp: &Loop) -> Result<(i64, i64, i64, bool), RunError> {
        let (f, t) = (self.int(op.a), self.int(op.b));
        let step = match op.dst {
            NONE => 1,
            r => self.int(r),
        };
        if step == 0 {
            return Err(RunError::new("zero do-loop step").at(lp.line));
        }
        let clamp = self.clamp.filter(|c| c.slot == lp.var);
        let (f, t) = match &clamp {
            Some(_) if step != 1 => {
                return Err(RunError::new("overlapped loop must have unit step").at(lp.line))
            }
            Some(c) => kclamp_range(f, t, c),
            None => (f, t),
        };
        // Fortran trip count semantics
        Ok((f, step, ((t - f + step) / step).max(0), clamp.is_some()))
    }

    fn exec_do(&mut self, k: &Kernel, op: &Op, lp: &Loop) -> Result<(), RunError> {
        let (f, step, trips, clamped) = self.bounds(op, lp)?;
        // Below the clamped loop the body runs unmodified; the clamp
        // stays active for sibling statements after this loop.
        let saved = if clamped { self.clamp.take() } else { None };
        let res = self.run_trips(k, op.imm as usize, f, step, trips);
        if clamped {
            self.clamp = saved;
        }
        res?;
        self.set(lp.var, f + trips * step);
        Ok(())
    }

    /// `trips` trips of loop `li` from `f`: as the rows of the nest it
    /// heads when its verdict and this invocation allow, else one trip
    /// at a time.
    fn run_trips(
        &mut self,
        k: &Kernel,
        li: usize,
        f: i64,
        step: i64,
        trips: i64,
    ) -> Result<(), RunError> {
        let lp = &k.loops[li];
        if trips > 0 && self.disjoint && self.run_nest(k, li, f, step, trips).is_some() {
            return Ok(());
        }
        let mut iv = f;
        for _ in 0..trips {
            self.set(lp.var, iv);
            self.run(k, lp.start, lp.end)?;
            iv += step;
        }
        Ok(())
    }

    /// Prove the nest loop `h` heads safe and run it as rows; or `None`,
    /// having changed nothing observable (no nest, a failing or empty inner
    /// loop, a budget that could run out, a corner row out of bounds).
    fn run_nest(&mut self, k: &Kernel, h: usize, f: i64, step: i64, trips: i64) -> Option<()> {
        let (r, inner) = k.loops[h].rows?;
        let (nest, body) = (&k.loops[h..=inner], &k.loops[inner]);
        // Inner bounds read nothing the nest changes: they hold on every trip
        // around them, where each header (tick and bound ops) runs once.
        self.nest.clear();
        self.nest.push((f, step, trips));
        let (mut heads, mut points) = (OpCounts::default(), trips as u64);
        for c in h + 1..=inner {
            let lc = &k.loops[c];
            let bound_ops = &k.ops[k.loops[c - 1].start + 1..lc.start - 1];
            bound_ops.iter().for_each(|op| pure(self, op));
            let (fc, sc, tc, _) = self.bounds(&k.ops[lc.start - 1], lc).ok()?;
            heads.stmts += points;
            heads.flops += points * bound_ops.iter().map(|op| op.code.flops()).sum::<u64>();
            points = points.checked_mul(tc as u64).filter(|_| tc > 0)?; // no trips: point-wise
            self.nest.push((fc, sc, tc));
        }
        let stmts = (heads.stmts).checked_add(points.checked_mul(body.cost.stmts)?)?;
        if self.limit != 0 && self.base_stmts + self.ops.stmts + stmts > self.limit {
            return None;
        }
        // Rows along `r`, or the innermost loop if it can row and is longer;
        // the other loops run outermost-fastest (`do i/do j/do k` rowed along
        // `i` in `do k/do j` order). Subscripts move monotonically with one
        // loop each: the last and first rows, resolved first, prove them all.
        // Setting loop variables is unobservable: source order sets each first.
        let alt = body.rows.is_some() && self.nest[inner - h].2 > self.nest[r - h].2;
        let r = if alt { inner } else { r };
        let (row, var) = (r - h, k.loops[r].var);
        let (trips, rows) = (self.nest[row], points / self.nest[row].2 as u64);
        let order = [rows - 1].into_iter().chain(0..rows).enumerate();
        for (i, at) in order.skip((rows == 1) as usize) {
            let mut rest = at as i64;
            for (c, l) in nest.iter().enumerate().filter(|&(c, _)| c != row) {
                let (fc, sc, tc) = self.nest[c];
                self.set(l.var, fc + rest % tc * sc);
                rest /= tc;
            }
            match (i, self.resolve(k, body, var, trips)) {
                (0 | 1, None) => return None, // nothing has run yet
                (0, Some(())) => {}
                (_, Some(())) => self.run_row(k, body, var, trips),
                (_, None) => unreachable!("every row is in bounds at the corners"),
            }
        }
        add_counts(&mut self.ops, &heads, 1);
        add_counts(&mut self.ops, &body.cost, points);
        // Inner loop variables rest one past their last values.
        for (c, l) in nest.iter().enumerate().skip(1) {
            let (fc, sc, tc) = self.nest[c];
            self.set(l.var, fc + tc * sc);
        }
        Some(())
    }

    /// Resolve each site of `lp`'s body to `(base, stride)` for a `row`
    /// along `var`, or `None` (rank, overflow, an end point out of bounds):
    /// indices move monotonically along it, so both ends in ⇒ all in.
    fn resolve(&mut self, k: &Kernel, lp: &Loop, var: Reg, row: (i64, i64, i64)) -> Option<()> {
        let (f, step, n) = row;
        let last = f.checked_add(step.checked_mul(n - 1)?)?;
        for s in lp.sites.0..lp.sites.1 {
            let site = &k.sites[s];
            let (a, subs) = (&self.arrs[site.arr as usize], k.subs_of(site));
            if subs.len() != a.bounds.len() {
                return None;
            }
            let (mut base, mut stride, mut dim) = (0isize, 0isize, 1isize);
            for (sub, &(lo, hi)) in subs.iter().zip(&a.bounds) {
                let (i0, i1) = if sub.reg == var {
                    stride += (step as isize).wrapping_mul(dim);
                    (f.checked_add(sub.add)?, last.checked_add(sub.add)?)
                } else {
                    let i = match sub.reg {
                        NONE => sub.add,
                        r => self.int(r).checked_add(sub.add)?,
                    };
                    (i, i)
                };
                if i0.min(i1) < lo || i0.max(i1) > hi {
                    return None;
                }
                base += (i0 - lo) as isize * dim;
                dim *= (hi - lo + 1) as isize;
            }
            self.resolved[s] = (base, stride);
        }
        Some(())
    }

    /// Run the body of innermost loop `lp` once as a resolved `row` along
    /// `var`: `(first, step, trips)`.
    fn run_row(&mut self, k: &Kernel, lp: &Loop, var: Reg, (f, step, n): (i64, i64, i64)) {
        let (t0, n, shift) = (k.t0(), n as usize, marks_shift(lp, var));
        self.rows.resize((k.ntemps + 1) * STRIP, 0);
        let ops = &k.ops[lp.start..lp.end];
        for s0 in (0..n).step_by(STRIP) {
            let len = STRIP.min(n - s0);
            if lp.iota[shift as usize / 2] {
                let iota = &mut self.rows[k.ntemps * STRIP..][..len];
                for (t, v) in iota.iter_mut().enumerate() {
                    *v = (f + (s0 + t) as i64 * step).bits();
                }
            }
            for (i, op) in ops.iter().enumerate() {
                let op = &Op {
                    row: op.row >> shift & 3,
                    ..*op
                };
                match op.code {
                    Code::Tick => self.gather(k, &ops[i + 1..], s0, len),
                    Code::LoadR | Code::LoadI => {} // its statement's gather took it
                    Code::Store => {
                        let (arr, first, stride) = self.strip_of(k, op, s0);
                        // Integer arrays truncate on store: rare, and done
                        // ahead of the loop below so it stays a plain copy.
                        let adjust = |x: f64| if arr.is_int { x.trunc() } else { x };
                        let uniform = adjust(self.real(op.a));
                        let row = (op.row & 1 != 0).then(|| {
                            let row = &mut self.rows[(op.a as usize - t0) * STRIP..][..len];
                            if arr.is_int {
                                row.iter_mut().for_each(|v| *v = adjust(f64::of(*v)).bits());
                            }
                            &*row
                        });
                        for t in 0..len {
                            let x = row.map_or(uniform, |r| f64::of(r[t]));
                            // SAFETY: see `strip_of`; `disjoint` rules out
                            // a second name for the written array, and the
                            // row analysis any other access to this element
                            // at another trip.
                            unsafe { *first.wrapping_offset(t as isize * stride) = x };
                        }
                    }
                    // uniform: once, on the register file
                    _ if op.row == 0 => pure(self, op),
                    _ => {
                        let (rows, iota) = self.rows.split_at_mut(k.ntemps * STRIP);
                        let mut strip = Rows {
                            regs: &self.regs,
                            rows,
                            iota: (var, &iota[..len]),
                            t0,
                        };
                        pure(&mut strip, op)
                    }
                }
            }
        }
    }

    /// The array of a row op's site, the address of its element at trip
    /// `s0` and its stride. Trip `s0 + t` of the strip is `t` strides on.
    ///
    /// Dereferencing that is sound for every trip of the row: `resolve`
    /// put the site's element of each trip `0..n` inside the array, at
    /// `base + trip * stride` by linearity; the pointer is live for the
    /// whole invocation, no reference to the data exists while the kernel
    /// runs, and threads touch disjoint elements by the disjointness
    /// proof.
    fn strip_of(&self, k: &Kernel, op: &Op, s0: usize) -> (&'k ArrRt, *mut f64, isize) {
        let arr = &self.arrs[k.sites[op.imm as usize].arr as usize];
        let (base, stride) = self.resolved[op.imm as usize];
        (
            arr,
            arr.ptr.wrapping_offset(base + s0 as isize * stride),
            stride,
        )
    }

    /// Load every site of the statement `ops` starts with in one pass over
    /// the strip. A strided row touches a new page (and line) per element;
    /// a stencil's sites sit next to each other, so visiting them together
    /// keeps each page's translation and line hot across all of them
    /// instead of sweeping the same pages once per site. Hoisting a
    /// statement's loads ahead of its arithmetic is invisible: only its
    /// own store, which follows them all, can write what they read.
    fn gather(&mut self, k: &Kernel, ops: &[Op], s0: usize, len: usize) {
        let t0 = k.t0();
        let mut sites = std::mem::take(&mut self.gathered);
        sites.clear();
        let stmt = ops.iter().take_while(|op| op.code != Code::Tick);
        for op in stmt.filter(|op| matches!(op.code, Code::LoadR | Code::LoadI)) {
            let (arr, first, stride) = self.strip_of(k, op, s0);
            sites.push(Gathered {
                first,
                stride,
                row: (op.dst as usize - t0) * STRIP,
                rounds: arr.is_int,
                int: op.code == Code::LoadI,
            });
        }
        for t in 0..len {
            for g in &sites {
                // SAFETY: see `strip_of`.
                let x = unsafe { *g.first.wrapping_offset(t as isize * g.stride) };
                self.rows[g.row + t] = x.bits();
            }
        }
        // Integer arrays round on load and integer-typed names truncate:
        // rare, and kept out of the loop above so it stays a plain copy.
        for g in sites.iter().filter(|g| g.rounds || g.int) {
            for v in &mut self.rows[g.row..g.row + len] {
                let x = if g.rounds {
                    f64::of(*v).round()
                } else {
                    f64::of(*v)
                };
                *v = if g.int { (x as i64).bits() } else { x.bits() };
            }
        }
        self.gathered = sites;
    }
}

/// One load of a statement being gathered: where its strip starts in the
/// array and in the temp rows, and how the element is read (`LoadR`/
/// `LoadI` on a real/integer array).
struct Gathered {
    first: *mut f64,
    stride: isize,
    row: usize,
    rounds: bool,
    int: bool,
}

/// A value a register or a temp row can hold, as its 64 bits.
trait Lane: Copy {
    fn bits(self) -> u64;
    fn of(bits: u64) -> Self;
}

impl Lane for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn of(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

impl Lane for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
    fn of(bits: u64) -> i64 {
        bits as i64
    }
}

/// How an arithmetic op reads its operands (both integers or both
/// reals) and writes its result: one value at a time over the register
/// file ([`Vm`]), or a strip of a row at a time over the temp rows ([`Rows`]).
trait Lanes {
    fn map<A: Lane, D: Lane>(&mut self, op: &Op, f: impl Fn(A, A) -> D);
}

/// The infallible, stateless ops — all the arithmetic a row may hold —
/// with one definition of each for both drivers.
#[inline(always)]
fn pure<L: Lanes>(l: &mut L, op: &Op) {
    use Code::*;
    match op.code {
        MovR | Cvt => l.map(op, |x: f64, _| x),
        AddR => l.map(op, |x: f64, y| x + y),
        SubR => l.map(op, |x: f64, y| x - y),
        MulR => l.map(op, |x: f64, y| x * y),
        DivR => l.map(op, |x: f64, y| x / y),
        PowR => l.map(op, f64::powf),
        ModR => l.map(op, |x: f64, y| x % y),
        Sign => l.map(op, |x: f64, y| if y < 0.0 { -x.abs() } else { x.abs() }),
        Max => l.map(op, f64::max),
        Min => l.map(op, f64::min),
        NegR => l.map(op, |x: f64, _| -x),
        AbsR => l.map(op, |x: f64, _| x.abs()),
        Exp => l.map(op, |x: f64, _| x.exp()),
        Sin => l.map(op, |x: f64, _| x.sin()),
        Cos => l.map(op, |x: f64, _| x.cos()),
        Tan => l.map(op, |x: f64, _| x.tan()),
        Atan => l.map(op, |x: f64, _| x.atan()),
        MovI => l.map(op, |x: i64, _| x),
        AddI => l.map(op, i64::wrapping_add),
        SubI => l.map(op, i64::wrapping_sub),
        MulI => l.map(op, i64::wrapping_mul),
        NegI => l.map(op, |x: i64, _| x.wrapping_neg()),
        AbsI => l.map(op, |x: i64, _| x.wrapping_abs()),
        I2R => l.map(op, |x: i64, _| x as f64),
        R2I | Int => l.map(op, |x: f64, _| x as i64),
        Nint => l.map(op, |x: f64, _| x.round() as i64),
        _ => unreachable!("{:?} is not a pure op", op.code),
    }
}

impl Lanes for Vm<'_> {
    fn map<A: Lane, D: Lane>(&mut self, op: &Op, f: impl Fn(A, A) -> D) {
        let v = f(
            A::of(self.regs[op.a as usize]),
            A::of(self.regs[op.b as usize]),
        );
        self.set(op.dst, v);
    }
}

/// One strip of a row: the temp rows for what varies along it, the
/// register file for what does not.
struct Rows<'v> {
    regs: &'v [u64],
    rows: &'v mut [u64],
    /// The row variable and its values over the strip (whose length is
    /// the strip's).
    iota: (Reg, &'v [u64]),
    t0: usize,
}

/// An operand of a row op: a row, or one value for every trip.
enum Src<'a> {
    Row(&'a [u64]),
    Uni(u64),
}

impl Lanes for Rows<'_> {
    /// `d[t] ← f(a[t], b[t])` into `dst`'s strip, with the loop
    /// specialised on the operand shapes so each one is a plain slice
    /// loop the compiler vectorises. Operands sit in the rows below
    /// `dst`'s — a statement's temporaries are numbered in emission
    /// order, so they precede their result — and at least one of them
    /// varies along the row: the row driver hands uniform ops to the
    /// register file.
    fn map<A: Lane, D: Lane>(&mut self, op: &Op, f: impl Fn(A, A) -> D) {
        let (t0, (var, iota)) = (self.t0, self.iota);
        let (lo, hi) = self.rows.split_at_mut((op.dst as usize - t0) * STRIP);
        let regs = self.regs;
        let src = |r: Reg, along: bool| match along {
            true if r == var => Src::Row(iota),
            true => Src::Row(&lo[(r as usize - t0) * STRIP..][..iota.len()]),
            false => Src::Uni(regs[r as usize]),
        };
        let f = |x: u64, y: u64| f(A::of(x), A::of(y)).bits();
        let d = &mut hi[..iota.len()];
        match (src(op.a, op.row & 1 != 0), src(op.b, op.row & 2 != 0)) {
            (Src::Row(a), Src::Row(b)) => {
                for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
                    *d = f(x, y);
                }
            }
            (Src::Row(a), Src::Uni(y)) => {
                for (d, &x) in d.iter_mut().zip(a) {
                    *d = f(x, y);
                }
            }
            (Src::Uni(x), Src::Row(b)) => {
                for (d, &y) in d.iter_mut().zip(b) {
                    *d = f(x, y);
                }
            }
            (Src::Uni(x), Src::Uni(y)) => d.fill(f(x, y)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        autocfd_fortran::parse(src).expect("test program parses")
    }

    fn nest_ids(src: &str) -> Vec<StmtId> {
        kernel_nests(&parse(src))
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
        let ids = kernel_nests(&file);
        assert_eq!(ids.len(), 2, "both outermost nests compile");
        let set = KernelSet::build(&file, None, 4);
        assert_eq!(set.nests().len(), 2);
        for id in &ids {
            let k = set.get(*id).expect("kernel compiled");
            assert!(k.threadable, "pure stencil nest must be threadable");
        }
    }

    #[test]
    fn stencil_subscripts_lower_to_the_affine_fast_path() {
        // every subscript in STENCIL is `i`, `i±1`, or `j±1`, so no site
        // of either nest names a computed temporary — and with nothing
        // else in the way both inner loops form rows
        let file = parse(STENCIL);
        let set = KernelSet::build(&file, None, 1);
        for k in set.kernels.values() {
            let t0 = k.t0() as Reg;
            assert!(
                k.subs.iter().all(|s| s.reg == NONE || s.reg < t0),
                "nest {:?} kept a computed subscript",
                k.id
            );
        }
        let rows = set.row_verdicts();
        assert_eq!(
            rows.iter().map(|r| r.1).collect::<Vec<_>>(),
            vec![
                RowVerdict::PointWise(PointWise::InnerLoop),
                RowVerdict::Row,
                RowVerdict::PointWise(PointWise::InnerLoop),
                RowVerdict::Row
            ]
        );
    }

    /// The subscripts of the only store site of `a(SUB) = 1.0` in a
    /// `do i` loop, with the kernel's first temporary register.
    fn store_subs(sub: &str) -> (Vec<Aff>, Reg) {
        let file = parse(&format!(
            "      program p\n      real a(10)\n      integer i, n\n      do 10 i = 1, 9\n      a({sub}) = 1.0\n 10   continue\n      end\n"
        ));
        let set = KernelSet::build(&file, None, 1);
        let k = set.kernels.values().next().expect("nest compiles");
        (k.subs_of(k.sites.last().unwrap()).to_vec(), k.t0() as Reg)
    }

    #[test]
    fn affine_recognition_matches_wrapping_semantics() {
        // slot 0 is `i` (the loop variable is resolved first)
        assert_eq!(store_subs("i - 3").0, [Aff { reg: 0, add: -3 }]);
        assert_eq!(store_subs("7 + i").0, [Aff { reg: 0, add: 7 }]);
        assert_eq!(store_subs("i + (-2)").0, [Aff { reg: 0, add: -2 }]);
        assert_eq!(store_subs("4").0, [Aff { reg: NONE, add: 4 }]);
        // `i - i64::MIN` has no wrapping-equivalent `i + c`: must stay
        // on the generic evaluator rather than silently mis-fold
        let e = Expr::bin(BinOp::Sub, Expr::var("i"), Expr::IntLit(i64::MIN));
        let file = parse(STENCIL);
        let mut c = Compiler::new(&file.units[0], StmtId(0));
        assert_eq!(c.affine(&e), None);
        // non-affine shapes are computed into a temporary
        let (subs, t0) = store_subs("i * 2");
        assert!(subs[0].reg >= t0 && subs[0].add == 0);
        let (subs, t0) = store_subs("i + n");
        assert!(subs[0].reg >= t0);
    }

    #[test]
    fn hints_filter_compiled_nests() {
        let file = parse(STENCIL);
        let ids = kernel_nests(&file);
        let set = KernelSet::build(&file, Some(&ids[..1]), 1);
        assert_eq!(set.nests().len(), 1);
        assert!(set.get(ids[0]).is_some());
        assert!(set.get(ids[1]).is_none());
        // A bogus hint id is silently skipped.
        let set = KernelSet::build(&file, Some(&[StmtId(9999)]), 1);
        assert!(set.nests().is_empty());
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
        let ids = kernel_nests(&file);
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
        let ids = kernel_nests(&file);
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
        let ids = kernel_nests(&file);
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
        let ids = kernel_nests(&file);
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
            crate::exec::run_program(&file, vec![], &mut h1, 0, None).expect("tree runs");
        let set = KernelSet::build(&file, None, threads);
        assert!(!set.nests().is_empty(), "at least one nest must compile");
        let mut h2 = crate::exec::NoHooks;
        let (mk, fk) =
            crate::exec::run_program(&file, vec![], &mut h2, 0, Some(&set)).expect("kernel runs");
        assert_eq!(mt.ops, mk.ops, "op counters must match bit-for-bit");
        assert_eq!(mt.arrays.len(), mk.arrays.len());
        for (a, b) in mt.arrays.iter().zip(&mk.arrays) {
            assert_eq!(a.bounds, b.bounds);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "array data must be bit-exact");
            }
        }
        for (name, v) in ft.scalars.iter() {
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
        let te = crate::exec::run_program(&file, vec![], &mut h1, 0, None)
            .expect_err("tree walk must report out-of-bounds");
        let set = KernelSet::build(&file, None, 1);
        assert!(!set.nests().is_empty());
        let mut h2 = crate::exec::NoHooks;
        let ke = crate::exec::run_program(&file, vec![], &mut h2, 0, Some(&set))
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
            let tr = crate::exec::run_program(&file, vec![], &mut h1, limit, None);
            let set = KernelSet::build(&file, None, 1);
            let mut h2 = crate::exec::NoHooks;
            let kr = crate::exec::run_program(&file, vec![], &mut h2, limit, Some(&set));
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
        // which store subscripts let the root loop's trips be split: the
        // root variable must own exactly one dimension as `i±c`, and the
        // other dimensions must be `c`/`j`/`j±c` over other scalars
        let threadable = |store: &str| {
            let file = parse(&format!(
                "      program p
      real a(40,40), x
      integer i, j, n
      do 20 i = 2, 9
      do 10 j = 2, 9
      a({store}) = 1.0
 10   continue
 20   continue
      end
"
            ));
            let set = KernelSet::build(&file, None, 1);
            let k = set.kernels.values().next().expect("nest compiles");
            k.threadable
        };
        assert!(threadable("i + 3, j"));
        assert!(threadable("j - 1, i"));
        assert!(threadable("i, n"));
        // the root variable in two dimensions, or in none
        assert!(!threadable("i, i"));
        assert!(!threadable("j, n"));
        // scaled, mixed with another variable, nonlinear or truncated
        // root coordinates are computed subscripts: not split
        assert!(!threadable("2 * i, j"));
        assert!(!threadable("i + j, 1"));
        assert!(!threadable("i * i, j"));
        assert!(!threadable("i + x, j"));
        // … and so is a computed subscript in any other dimension
        assert!(!threadable("i, j + n"));
    }
}
