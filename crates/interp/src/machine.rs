//! The store: frames, arrays, I/O queues, operation counters.

use crate::fasthash::FastMap;
use crate::value::{implicit_is_integer, ArrayVal, Value};
use autocfd_fortran::ast::{walk_stmts, DeclKind, Expr, LValue, StmtKind, Type, Unit};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to an array in the machine's array store (by-reference
/// argument passing: a dummy array aliases the caller's storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub usize);

/// A runtime error with optional source-line context.
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    /// Description.
    pub message: String,
    /// Source line, when known.
    pub line: u32,
}

impl RunError {
    /// New error without line context.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            line: 0,
        }
    }

    /// Attach a source line (kept if already set).
    pub fn at(mut self, line: u32) -> Self {
        if self.line == 0 {
            self.line = line;
        }
        self
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "runtime error: {}", self.message)
        } else {
            write!(f, "runtime error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for RunError {}

impl From<Box<RunError>> for RunError {
    fn from(e: Box<RunError>) -> Self {
        *e
    }
}

/// Operation counters (consumed by benchmarks and the cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Floating-point binary operations evaluated.
    pub flops: u64,
    /// Array element loads.
    pub loads: u64,
    /// Array element stores.
    pub stores: u64,
    /// Statements executed.
    pub stmts: u64,
}

/// How a scalar of a unit is typed: its declared type, else Fortran's
/// implicit rule (i–n integer, everything else real).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Real,
    /// Declared `logical`: numeric stores are refused.
    Logical,
}

impl Kind {
    fn implicit(name: &str) -> Kind {
        if implicit_is_integer(name) {
            Kind::Int
        } else {
            Kind::Real
        }
    }
}

/// A unit's name table: every name the unit mentions, each resolved to
/// one dense slot, with its scalar type. Built once per run, on the
/// unit's first entry; every frame of the unit holds its scalar values
/// and array bindings in vectors indexed by these slots.
#[derive(Debug, Default)]
pub(crate) struct Names {
    unit: String,
    slots: FastMap<String, u32>,
    names: Vec<String>,
    kinds: Vec<Kind>,
    /// Slots of the dummy arguments, in order.
    params: Vec<u32>,
    /// `parameter` constants, evaluated once: `(slot, value)` in
    /// declaration order.
    consts: Vec<(u32, Value)>,
}

/// The slot of a unit's own name: a function's result variable.
pub(crate) const OWN_NAME: u32 = 0;

impl Names {
    /// The table of `unit`: its name, dummies, declarations, `parameter`
    /// constants and every name its statements mention.
    pub fn of(unit: &Unit) -> Names {
        let mut t = Names {
            unit: unit.name.clone(),
            ..Names::default()
        };
        let own = t.add(&unit.name);
        debug_assert_eq!(own, OWN_NAME);
        t.params = unit.params.iter().map(|p| t.add(p)).collect();
        let add_expr = |t: &mut Names, e: &Expr| {
            e.walk(&mut |x| {
                if let Expr::Var(n) | Expr::Index { name: n, .. } = x {
                    t.add(n);
                }
            })
        };
        for d in &unit.decls {
            let (names, ty) = match &d.kind {
                DeclKind::Var { ty, names } => (names, Some(ty)),
                DeclKind::Dimension { names } | DeclKind::Common { names, .. } => (names, None),
                DeclKind::Parameter { assigns } => {
                    for (n, e) in assigns {
                        t.add(n);
                        add_expr(&mut t, e);
                    }
                    continue;
                }
            };
            for n in names {
                let slot = t.add(&n.name) as usize;
                // a name typed twice keeps the later type
                t.kinds[slot] = match ty {
                    None => t.kinds[slot],
                    Some(Type::Integer) => Kind::Int,
                    Some(Type::Real | Type::DoublePrecision) => Kind::Real,
                    Some(Type::Logical) => Kind::Logical,
                };
                for dim in &n.dims {
                    dim.lower.iter().for_each(|e| add_expr(&mut t, e));
                    add_expr(&mut t, &dim.upper);
                }
            }
        }
        walk_stmts(&unit.body, &mut |s| {
            let lvalue = |t: &mut Names, lv: &LValue| {
                t.add(&lv.name);
                lv.indices.iter().for_each(|e| add_expr(t, e));
            };
            match &s.kind {
                StmtKind::Assign { target, value } => {
                    lvalue(&mut t, target);
                    add_expr(&mut t, value);
                }
                StmtKind::If { cond, else_ifs, .. } => {
                    add_expr(&mut t, cond);
                    else_ifs.iter().for_each(|(c, _)| add_expr(&mut t, c));
                }
                StmtKind::LogicalIf { cond, .. } | StmtKind::DoWhile { cond, .. } => {
                    add_expr(&mut t, cond)
                }
                StmtKind::Do {
                    var,
                    from,
                    to,
                    step,
                    ..
                } => {
                    t.add(var);
                    for e in [Some(from), Some(to), step.as_ref()].into_iter().flatten() {
                        add_expr(&mut t, e);
                    }
                }
                StmtKind::Call { args, .. } | StmtKind::Write { items: args, .. } => {
                    args.iter().for_each(|e| add_expr(&mut t, e))
                }
                StmtKind::Read { items, .. } => items.iter().for_each(|lv| lvalue(&mut t, lv)),
                StmtKind::Goto { .. } | StmtKind::Continue | StmtKind::Return | StmtKind::Stop => {}
            }
        });
        // parameter constants see only the constants before them
        for (name, expr) in unit.parameters() {
            let lookup = |n: &str| match t.consts.iter().rev().find(|c| t.names[c.0 as usize] == n)
            {
                Some(&(_, Value::Int(v))) => Some(v),
                _ => None,
            };
            let v = match (expr.const_int(&lookup), expr) {
                (Some(v), _) => Value::Int(v),
                // real-valued parameter: evaluate literals only
                (None, Expr::RealLit(r)) => Value::Real(*r),
                (None, _) => continue,
            };
            let slot = t.slots[name];
            t.consts.push((slot, v));
        }
        t
    }

    /// Slot of `name`, adding it if new.
    fn add(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len() as u32;
        self.slots.insert(name.to_string(), s);
        self.names.push(name.to_string());
        self.kinds.push(Kind::implicit(name));
        s
    }

    /// Slot of `name`, if the unit mentions it.
    pub fn slot(&self, name: &str) -> Option<u32> {
        self.slots.get(name).copied()
    }

    /// Slot of a name one of the unit's statements mentions.
    pub(crate) fn mentioned(&self, name: &str) -> u32 {
        self.slot(name)
            .expect("a unit's table holds every name the unit mentions")
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Slots of the dummy arguments, in order.
    pub(crate) fn params(&self) -> &[u32] {
        &self.params
    }

    fn kind(&self, name: &str) -> Kind {
        self.slot(name)
            .map_or_else(|| Kind::implicit(name), |s| self.kinds[s as usize])
    }
}

/// One frame's values by slot of its unit's name table: what the tree
/// walk reads and writes by slot, and what everything outside it —
/// hooks, kernels, snapshots, tests — reads and writes by name through
/// the table. A name the unit never mentions (such as a hook's
/// `acfhiN`) is kept beside the slots, so it behaves as it would in a
/// map. Unassigned names are absent.
#[derive(Debug)]
pub struct Slots<T> {
    names: Arc<Names>,
    vals: Vec<Option<T>>,
    extra: Vec<(String, T)>,
}

impl<T> Slots<T> {
    fn new(names: Arc<Names>) -> Self {
        let vals = std::iter::repeat_with(|| None).take(names.len()).collect();
        Slots {
            names,
            vals,
            extra: Vec::new(),
        }
    }

    /// The value bound to `name`.
    pub fn get(&self, name: &str) -> Option<&T> {
        match self.names.slot(name) {
            Some(s) => self.vals[s as usize].as_ref(),
            None => self.extra.iter().find(|(n, _)| n == name).map(|(_, v)| v),
        }
    }

    /// True if `name` is bound.
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Every bound name with its value: slot order, then names the unit
    /// never mentions in the order they were first bound.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &T)> {
        let slots =
            (self.names.names.iter().zip(&self.vals)).filter_map(|(n, v)| Some((n, v.as_ref()?)));
        slots.chain(self.extra.iter().map(|(n, v)| (n, v)))
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.vals.iter().flatten().count() + self.extra.len()
    }

    /// True if no name is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bind `name` as is, with no type coercion.
    pub(crate) fn insert(&mut self, name: &str, v: T) {
        match self.names.slot(name) {
            Some(s) => self.vals[s as usize] = Some(v),
            None => match self.extra.iter_mut().find(|(n, _)| n == name) {
                Some((_, old)) => *old = v,
                None => self.extra.push((name.to_string(), v)),
            },
        }
    }
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots::new(Arc::default())
    }
}

impl<T, Q: Borrow<str> + ?Sized> std::ops::Index<&Q> for Slots<T> {
    type Output = T;

    /// Like a map's index: panics when `name` is not bound.
    fn index(&self, name: &Q) -> &T {
        let name = name.borrow();
        self.get(name)
            .unwrap_or_else(|| panic!("`{name}` is not bound in unit `{}`", self.names.unit))
    }
}

/// One invocation frame: the unit's scalar values and array bindings.
#[derive(Debug, Default)]
pub struct Frame {
    /// Scalar variables.
    pub scalars: Slots<Value>,
    /// Array bindings (name → store handle).
    pub arrays: Slots<ArrayId>,
}

impl Frame {
    /// An empty frame over `names`.
    pub(crate) fn new(names: Arc<Names>) -> Frame {
        Frame {
            scalars: Slots::new(names.clone()),
            arrays: Slots::new(names),
        }
    }

    /// The unit this frame executes.
    pub fn unit(&self) -> &str {
        &self.scalars.names.unit
    }

    /// The unit's name table.
    pub(crate) fn names(&self) -> &Arc<Names> {
        &self.scalars.names
    }

    /// Is `name` an integer variable in this frame (declared or implicit)?
    pub fn is_integer(&self, name: &str) -> bool {
        self.scalars.names.kind(name) == Kind::Int
    }

    /// Read a scalar; uninitialized variables default to 0 / 0.0 (many
    /// legacy CFD codes rely on zero-initialized COMMON storage).
    pub fn get_scalar(&self, name: &str) -> Value {
        match self.scalars.get(name) {
            Some(&v) => v,
            None => zero(self.scalars.names.kind(name)),
        }
    }

    /// Write a scalar, coercing to the variable's type.
    pub fn set_scalar(&mut self, name: &str, v: Value) -> Result<(), RunError> {
        let v = coerce(self.scalars.names.kind(name), v, name)?;
        self.scalars.insert(name, v);
        Ok(())
    }

    /// [`Frame::get_scalar`] by slot.
    #[inline]
    pub(crate) fn scalar(&self, slot: u32) -> Value {
        match self.scalars.vals[slot as usize] {
            Some(v) => v,
            None => zero(self.scalars.names.kinds[slot as usize]),
        }
    }

    /// [`Frame::set_scalar`] by slot.
    #[inline]
    pub(crate) fn store(&mut self, slot: u32, v: Value) -> Result<(), RunError> {
        let names = &self.scalars.names;
        let v = coerce(names.kinds[slot as usize], v, &names.names[slot as usize])?;
        self.scalars.vals[slot as usize] = Some(v);
        Ok(())
    }

    /// The array bound to `slot`, if any.
    #[inline]
    pub(crate) fn array(&self, slot: u32) -> Option<ArrayId> {
        self.arrays.vals[slot as usize]
    }
}

/// The value of a never-assigned scalar.
#[inline]
fn zero(kind: Kind) -> Value {
    match kind {
        Kind::Int => Value::Int(0),
        Kind::Real | Kind::Logical => Value::Real(0.0),
    }
}

/// A scalar store's coercion to the variable's type.
#[inline]
fn coerce(kind: Kind, v: Value, name: &str) -> Result<Value, RunError> {
    Ok(match (v, kind) {
        (Value::Real(r), Kind::Int) => Value::Int(r as i64),
        (Value::Int(_), Kind::Logical) => {
            return Err(RunError::new(format!("numeric store to logical `{name}`")))
        }
        (Value::Int(i), Kind::Real) => Value::Real(i as f64),
        (v, _) => v,
    })
}

/// The machine: array store, I/O queues, counters.
#[derive(Debug, Default)]
pub struct Machine {
    /// All arrays ever allocated (frames hold handles into this store).
    pub arrays: Vec<ArrayVal>,
    /// List-directed input queue (consumed by `read`).
    pub input: std::collections::VecDeque<f64>,
    /// Captured `write` output lines.
    pub output: Vec<String>,
    /// Operation counters.
    pub ops: OpCounts,
    /// Statement-execution budget; 0 = unlimited. Exceeding it aborts
    /// with an error (guards against non-converging loops in tests).
    pub stmt_limit: u64,
    /// `common`-block array storage, shared across units: every unit
    /// declaring `common /blk/ a(...)` binds the same array.
    pub commons: HashMap<(String, String), ArrayId>,
}

impl Machine {
    /// Fresh machine with `input` queued for `read` statements.
    pub fn new(input: Vec<f64>) -> Self {
        Self {
            input: input.into(),
            ..Default::default()
        }
    }

    /// Allocate an array, returning its handle.
    pub fn alloc(&mut self, a: ArrayVal) -> ArrayId {
        self.arrays.push(a);
        ArrayId(self.arrays.len() - 1)
    }

    /// Shared access to an array.
    #[inline]
    pub fn array(&self, id: ArrayId) -> &ArrayVal {
        &self.arrays[id.0]
    }

    /// Mutable access to an array.
    #[inline]
    pub fn array_mut(&mut self, id: ArrayId) -> &mut ArrayVal {
        &mut self.arrays[id.0]
    }

    /// Count one executed statement, enforcing the budget.
    #[inline]
    pub fn tick(&mut self) -> Result<(), RunError> {
        self.ops.stmts += 1;
        if self.stmt_limit != 0 && self.ops.stmts > self.stmt_limit {
            return Err(RunError::new(format!(
                "statement budget of {} exceeded (non-converging loop?)",
                self.stmt_limit
            )));
        }
        Ok(())
    }
}

/// Build a frame for `unit` over its name table: `parameter` constants
/// set, dummies bound from `bound` (`(slot, binding)`), local (non-dummy)
/// arrays allocated.
pub(crate) fn build_frame(
    m: &mut Machine,
    unit: &Unit,
    names: &Arc<Names>,
    bound: Vec<(u32, Binding)>,
) -> Result<Frame, RunError> {
    let mut frame = Frame::new(names.clone());
    for &(slot, v) in &names.consts {
        frame.scalars.vals[slot as usize] = Some(v);
    }

    // bind dummies first (so adjustable array bounds can see them)
    for (slot, b) in bound {
        match b {
            Binding::Scalar(v) => frame.scalars.vals[slot as usize] = Some(v),
            Binding::Array(id) => frame.arrays.vals[slot as usize] = Some(id),
        }
    }

    // allocate local declared arrays (skip dummies already bound)
    for d in &unit.decls {
        let (names, is_int, common_block) = match &d.kind {
            DeclKind::Var { ty, names } => (names, *ty == Type::Integer, None),
            DeclKind::Dimension { names } => (names, false, None),
            DeclKind::Common { names, block } => (names, false, Some(block)),
            DeclKind::Parameter { .. } => continue,
        };
        for n in names {
            if let Some(block) = common_block {
                if n.dims.is_empty() {
                    return Err(RunError::new(format!(
                        "scalar `{}` in common /{block}/: common scalars are not \
                         supported — pass scalars as arguments",
                        n.name
                    ))
                    .at(d.line));
                }
                // shared storage: every unit declaring this block member
                // binds the same array (first declaration allocates)
                let key = (block.clone(), n.name.clone());
                if let Some(&id) = m.commons.get(&key) {
                    frame.arrays.insert(&n.name, id);
                    continue;
                }
            }
            if n.dims.is_empty() || unit.params.contains(&n.name) {
                continue;
            }
            if frame.arrays.contains_key(&n.name) {
                continue; // e.g. typed twice (real + dimension)
            }
            let lookup = |nm: &str| match frame.scalars.get(nm) {
                Some(Value::Int(v)) => Some(*v),
                Some(Value::Real(v)) => Some(*v as i64),
                _ => None,
            };
            let mut bounds = Vec::with_capacity(n.dims.len());
            for dim in &n.dims {
                let hi = dim.upper.const_int(&lookup).ok_or_else(|| {
                    RunError::new(format!(
                        "cannot resolve bound of `{}` in unit `{}`",
                        n.name, unit.name
                    ))
                    .at(d.line)
                })?;
                let lo = match &dim.lower {
                    Some(e) => e.const_int(&lookup).ok_or_else(|| {
                        RunError::new(format!("cannot resolve lower bound of `{}`", n.name))
                            .at(d.line)
                    })?,
                    None => 1,
                };
                bounds.push((lo, hi));
            }
            let id = m.alloc(ArrayVal::new(bounds, is_int).map_err(|e| e.at(d.line))?);
            frame.arrays.insert(&n.name, id);
            if let Some(block) = common_block {
                m.commons.insert((block.clone(), n.name.clone()), id);
            }
        }
    }
    Ok(frame)
}

/// A value bound to a dummy parameter at a call.
#[derive(Debug, Clone)]
pub enum Binding {
    /// Scalar (copy-in; copy-out is handled by the caller).
    Scalar(Value),
    /// Array, by reference.
    Array(ArrayId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;

    fn frame_of(m: &mut Machine, unit: &Unit) -> Result<Frame, RunError> {
        build_frame(m, unit, &Arc::new(Names::of(unit)), Vec::new())
    }

    #[test]
    fn frame_implicit_and_declared_types() {
        let f = parse(
            "      program p
      real n2x
      integer xcount
      x = 1
      end
",
        )
        .unwrap();
        let mut m = Machine::default();
        let frame = frame_of(&mut m, &f.units[0]).unwrap();
        assert!(frame.is_integer("i"));
        assert!(!frame.is_integer("x"));
        assert!(
            !frame.is_integer("n2x"),
            "declared real overrides implicit integer"
        );
        assert!(
            frame.is_integer("xcount"),
            "declared integer overrides implicit real"
        );
    }

    #[test]
    fn scalar_store_coerces() {
        let mut fr = Frame::default();
        fr.set_scalar("i", Value::Real(2.9)).unwrap();
        assert_eq!(fr.get_scalar("i"), Value::Int(2));
        fr.set_scalar("x", Value::Int(3)).unwrap();
        assert_eq!(fr.get_scalar("x"), Value::Real(3.0));
    }

    #[test]
    fn uninitialized_defaults() {
        // names the unit mentions (slots) and names it does not
        let f = parse("      program p\n      y = i + x\n      end\n").unwrap();
        let mut m = Machine::default();
        for fr in [frame_of(&mut m, &f.units[0]).unwrap(), Frame::default()] {
            assert_eq!(fr.get_scalar("i"), Value::Int(0));
            assert_eq!(fr.get_scalar("x"), Value::Real(0.0));
        }
    }

    #[test]
    fn scalar_iteration_lists_only_assigned_names() {
        let f = parse(
            "      program p
      integer n
      parameter (n = 4)
      real v(n)
      y = i + x
      end
",
        )
        .unwrap();
        let mut m = Machine::default();
        let mut fr = frame_of(&mut m, &f.units[0]).unwrap();
        let names = |fr: &Frame| {
            fr.scalars
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&fr), ["n"], "only the parameter constant is bound");
        fr.set_scalar("y", Value::Real(1.0)).unwrap();
        fr.set_scalar("acfhi1", Value::Int(3)).unwrap();
        assert_eq!(names(&fr), ["n", "y", "acfhi1"]);
        assert_eq!(fr.scalars.len(), 3);
        assert!(!fr.scalars.contains_key("i"));
        assert_eq!(fr.arrays.iter().map(|(n, _)| n).collect::<Vec<_>>(), ["v"]);
    }

    #[test]
    fn frame_allocates_local_arrays_with_parameters() {
        let f = parse(
            "      program p
      integer n
      parameter (n = 10)
      real v(n, 0:n+1)
      x = 1
      end
",
        )
        .unwrap();
        let mut m = Machine::default();
        let frame = frame_of(&mut m, &f.units[0]).unwrap();
        let id = frame.arrays["v"];
        assert_eq!(m.array(id).bounds, vec![(1, 10), (0, 11)]);
    }

    #[test]
    fn dummy_params_not_allocated() {
        let f = parse(
            "      subroutine s(v, n)
      integer n
      real v(n, n)
      return
      end
",
        )
        .unwrap();
        let mut m = Machine::default();
        let caller_arr = m.alloc(ArrayVal::new(vec![(1, 4), (1, 4)], false).unwrap());
        let names = Arc::new(Names::of(&f.units[0]));
        let [v, n] = names.params() else {
            panic!("two dummies")
        };
        let bound = vec![
            (*v, Binding::Array(caller_arr)),
            (*n, Binding::Scalar(Value::Int(4))),
        ];
        let frame = build_frame(&mut m, &f.units[0], &names, bound).unwrap();
        assert_eq!(frame.arrays["v"], caller_arr);
        assert_eq!(m.arrays.len(), 1, "no duplicate allocation for the dummy");
    }

    #[test]
    fn unresolvable_bound_errors() {
        let f = parse(
            "      program p
      real v(m)
      x = 1
      end
",
        )
        .unwrap();
        let mut m = Machine::default();
        assert!(frame_of(&mut m, &f.units[0]).is_err());
    }

    #[test]
    fn stmt_budget_enforced() {
        let mut m = Machine {
            stmt_limit: 3,
            ..Default::default()
        };
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_err());
    }
}
