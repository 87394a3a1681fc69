//! Abstract syntax tree for the Fortran subset Auto-CFD consumes.
//!
//! Design notes:
//!
//! * Every [`Stmt`] carries its 1-based **source line** and a stable
//!   [`StmtId`]. The paper's synchronization-point machinery is defined in
//!   terms of *positions (line numbers) in the program* (§5), and all the
//!   analysis crates key their maps by `StmtId`.
//! * Array references and function calls share Fortran's `name(args)`
//!   syntax; the parser produces [`Expr::Index`] for both and resolution
//!   happens downstream where declarations are visible (the IR crate knows
//!   which names are arrays).
//! * Structured (`do`/`end do`, block `if`) and label-terminated
//!   (`do 10 i=...` … `10 continue`) forms both parse into the same tree.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stable identifier of a statement within a parsed [`SourceFile`].
///
/// Ids are assigned in program order by the parser and are unique across
/// the whole file (all units). Analysis results in the `ir`, `depend` and
/// `syncopt` crates are keyed by `StmtId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StmtId(pub u32);

impl std::fmt::Display for StmtId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A complete source file: one or more program units plus the `!$acf`
/// directives found anywhere in the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceFile {
    /// Program units in source order (at most one `program`, any number of
    /// `subroutine`s / `function`s).
    pub units: Vec<Unit>,
    /// All `!$acf` directives, in source order.
    pub directives: Vec<crate::directive::Directive>,
}

impl SourceFile {
    /// The `program` unit, if present.
    pub fn main_unit(&self) -> Option<&Unit> {
        self.units.iter().find(|u| u.kind == UnitKind::Program)
    }

    /// Look up a unit by (lower-case) name.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.units.iter().find(|u| u.name == name)
    }
}

/// Kind of program unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitKind {
    /// `program name`
    Program,
    /// `subroutine name(args)`
    Subroutine,
    /// `function name(args)` (typed functions are treated as real-valued)
    Function,
}

/// A program unit: `program`, `subroutine` or `function`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Unit {
    /// Unit kind.
    pub kind: UnitKind,
    /// Lower-cased unit name.
    pub name: String,
    /// Dummy-argument names, lower-cased (empty for `program`).
    pub params: Vec<String>,
    /// Specification part: type declarations, `dimension`, `parameter`,
    /// `common`.
    pub decls: Vec<Decl>,
    /// Executable part.
    pub body: Vec<Stmt>,
    /// Source line of the unit header.
    pub line: u32,
}

impl Unit {
    /// Find the declaration of `name` (lower-case), searching all
    /// declaration kinds.
    pub fn decl_of(&self, name: &str) -> Option<&VarDecl> {
        self.decls.iter().find_map(|d| match &d.kind {
            DeclKind::Var { names, .. }
            | DeclKind::Dimension { names }
            | DeclKind::Common { names, .. } => names.iter().find(|v| v.name == name),
            DeclKind::Parameter { .. } => None,
        })
    }

    /// True if `name` is declared as an array (has dimension bounds) in
    /// this unit.
    pub fn is_array(&self, name: &str) -> bool {
        self.decl_of(name).is_some_and(|v| !v.dims.is_empty())
    }

    /// The declared element type of `name`, if a type statement mentions it.
    pub fn type_of(&self, name: &str) -> Option<Type> {
        self.decls.iter().find_map(|d| match &d.kind {
            DeclKind::Var { ty, names } if names.iter().any(|v| v.name == name) => Some(*ty),
            _ => None,
        })
    }

    /// Names assigned by `parameter` statements with their defining
    /// expressions.
    pub fn parameters(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.decls
            .iter()
            .flat_map(|d| match &d.kind {
                DeclKind::Parameter { assigns } => assigns.as_slice(),
                _ => &[],
            })
            .map(|(n, e)| (n.as_str(), e))
    }

    /// The `parameter` constants that fold to an integer, each folded
    /// with the constants declared before it in scope (as the
    /// interpreter binds them).
    pub fn int_parameters(&self) -> BTreeMap<&str, i64> {
        let mut out = BTreeMap::new();
        for (name, expr) in self.parameters() {
            if let Some(v) = expr.const_int(&|n| out.get(n).copied()) {
                out.insert(name, v);
            }
        }
        out
    }
}

/// Fortran scalar element types supported by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `integer`
    Integer,
    /// `real` (stored as f64 by the interpreter)
    Real,
    /// `double precision`
    DoublePrecision,
    /// `logical`
    Logical,
}

/// One bound of an array dimension: `lower:upper` (lower defaults to 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimBound {
    /// Lower bound; `None` means the Fortran default of 1.
    pub lower: Option<Expr>,
    /// Upper bound (must be a specification expression: literals,
    /// parameters, `+ - * /`).
    pub upper: Expr,
}

/// A declared entity: a name plus its (possibly empty) dimension list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarDecl {
    /// Lower-cased name.
    pub name: String,
    /// Dimension bounds; empty for scalars.
    pub dims: Vec<DimBound>,
}

/// A specification statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decl {
    /// What kind of specification statement this is.
    pub kind: DeclKind,
    /// Source line.
    pub line: u32,
}

/// Kinds of specification statements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeclKind {
    /// `real a, b(10,20)` / `integer n` / …
    Var {
        /// Element type.
        ty: Type,
        /// Declared names.
        names: Vec<VarDecl>,
    },
    /// `dimension a(10,20)`
    Dimension {
        /// Declared names (all with dims).
        names: Vec<VarDecl>,
    },
    /// `parameter (n = 100, eps = 1.0e-5)`
    Parameter {
        /// `(name, value-expression)` pairs.
        assigns: Vec<(String, Expr)>,
    },
    /// `common /blk/ a, b(10)`
    Common {
        /// Common-block name (empty for blank common).
        block: String,
        /// Member names.
        names: Vec<VarDecl>,
    },
}

/// An executable statement with its label, source line and stable id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// Numeric statement label, if any (`10 continue`).
    pub label: Option<u32>,
    /// 1-based source line.
    pub line: u32,
    /// Stable id assigned by the parser.
    pub id: StmtId,
    /// The statement itself.
    pub kind: StmtKind,
}

/// Assignment target: scalar or array element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LValue {
    /// Lower-cased variable name.
    pub name: String,
    /// Subscript expressions; empty for scalars.
    pub indices: Vec<Expr>,
}

/// I/O unit designator for simplified `read`/`write`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IoUnit {
    /// `read *, …` / `write(*,*) …` — list-directed standard I/O.
    Star,
    /// `read(u,*)` with an integer unit (treated as a named input stream
    /// by the interpreter; the restructurer rewrites these as §3 requires).
    Unit(i64),
}

/// Executable statement kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// `target = value`
    Assign {
        /// Left-hand side.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// Block `if (cond) then … [else if (c) then …]* [else …] end if`
    If {
        /// Condition of the `if` arm.
        cond: Expr,
        /// `then` branch body.
        then: Vec<Stmt>,
        /// `else if` arms in order.
        else_ifs: Vec<(Expr, Vec<Stmt>)>,
        /// `else` branch body, if present.
        els: Option<Vec<Stmt>>,
    },
    /// Logical `if (cond) stmt` (single statement, no `then`).
    LogicalIf {
        /// Condition.
        cond: Expr,
        /// The guarded statement.
        stmt: Box<Stmt>,
    },
    /// `do var = from, to [, step]` … `end do` (or label-terminated form).
    Do {
        /// Induction variable.
        var: String,
        /// Initial value.
        from: Expr,
        /// Final value (inclusive).
        to: Expr,
        /// Step; `None` means 1.
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Terminal label for `do NN` form (kept for faithful re-printing).
        term_label: Option<u32>,
    },
    /// `do while (cond)` … `end do`
    DoWhile {
        /// Continuation condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `goto NN`
    Goto {
        /// Target label.
        target: u32,
    },
    /// `continue` (no-op; typically a label carrier).
    Continue,
    /// `call name(args)`
    Call {
        /// Lower-cased subroutine name.
        name: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `return`
    Return,
    /// `stop`
    Stop,
    /// Simplified list-directed `read`.
    Read {
        /// I/O unit.
        unit: IoUnit,
        /// Input items.
        items: Vec<LValue>,
    },
    /// Simplified list-directed `write`/`print`.
    Write {
        /// I/O unit.
        unit: IoUnit,
        /// Output items.
        items: Vec<Expr>,
    },
}

impl Stmt {
    /// Child statement lists of this statement, in source order.
    pub fn child_bodies(&self) -> Vec<&[Stmt]> {
        match &self.kind {
            StmtKind::Do { body, .. } | StmtKind::DoWhile { body, .. } => vec![body.as_slice()],
            StmtKind::If {
                then,
                else_ifs,
                els,
                ..
            } => {
                let mut v = vec![then.as_slice()];
                v.extend(else_ifs.iter().map(|(_, b)| b.as_slice()));
                if let Some(e) = els {
                    v.push(e.as_slice());
                }
                v
            }
            StmtKind::LogicalIf { stmt, .. } => vec![std::slice::from_ref(stmt)],
            _ => vec![],
        }
    }

    /// Visit this statement and all descendants in pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        for body in self.child_bodies() {
            for s in body {
                s.walk(f);
            }
        }
    }
}

/// Walk every statement in a list (and descendants) in pre-order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        s.walk(f);
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `.or.`
    Or,
    /// `.and.`
    And,
    /// `.eq.` / `==`
    Eq,
    /// `.ne.` / `/=`
    Ne,
    /// `.lt.` / `<`
    Lt,
    /// `.le.` / `<=`
    Le,
    /// `.gt.` / `>`
    Gt,
    /// `.ge.` / `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
}

impl BinOp {
    /// True for `.and.`/`.or.`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// True for the six relational operators.
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Unary minus.
    Neg,
    /// `.not.`
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Real literal (also covers `1d0`-style doubles).
    RealLit(f64),
    /// Character literal (only meaningful in `write`).
    StrLit(String),
    /// `.true.` / `.false.`
    LogicalLit(bool),
    /// Scalar variable reference.
    Var(String),
    /// `name(args)` — array element reference **or** function call;
    /// disambiguated downstream against declarations/intrinsics.
    Index {
        /// Lower-cased name.
        name: String,
        /// Subscripts / actual arguments.
        indices: Vec<Expr>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Visit this expression and all sub-expressions in pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Index { indices, .. } => {
                for e in indices {
                    e.walk(f);
                }
            }
            Expr::Bin { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Un { expr, .. } => expr.walk(f),
            _ => {}
        }
    }

    /// Collect the names of all `Index` references (arrays or calls) in
    /// this expression.
    pub fn indexed_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Index { name, .. } = e {
                out.push(name.as_str());
            }
        });
        out
    }

    /// Evaluate as a constant integer specification expression, resolving
    /// names through `lookup` (used for array bounds with `parameter`s).
    pub fn const_int(&self, lookup: &impl Fn(&str) -> Option<i64>) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            Expr::RealLit(v) if v.fract() == 0.0 => Some(*v as i64),
            Expr::Var(n) => lookup(n),
            Expr::Un {
                op: UnOp::Neg,
                expr,
            } => expr.const_int(lookup).map(|v| -v),
            Expr::Bin { op, lhs, rhs } => {
                let (a, b) = (lhs.const_int(lookup)?, rhs.const_int(lookup)?);
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div => (b != 0).then(|| a / b),
                    BinOp::Pow => (b >= 0).then(|| a.pow(b as u32)),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_lookup(_: &str) -> Option<i64> {
        None
    }

    #[test]
    fn const_int_literals_and_arith() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::IntLit(2),
            Expr::bin(BinOp::Mul, Expr::IntLit(3), Expr::IntLit(4)),
        );
        assert_eq!(e.const_int(&no_lookup), Some(14));
    }

    #[test]
    fn const_int_division_by_zero_is_none() {
        let e = Expr::bin(BinOp::Div, Expr::IntLit(1), Expr::IntLit(0));
        assert_eq!(e.const_int(&no_lookup), None);
    }

    #[test]
    fn const_int_through_lookup() {
        let e = Expr::bin(BinOp::Sub, Expr::var("n"), Expr::IntLit(1));
        let lookup = |s: &str| (s == "n").then_some(100);
        assert_eq!(e.const_int(&lookup), Some(99));
    }

    #[test]
    fn const_int_pow() {
        let e = Expr::bin(BinOp::Pow, Expr::IntLit(2), Expr::IntLit(10));
        assert_eq!(e.const_int(&no_lookup), Some(1024));
        let neg = Expr::bin(BinOp::Pow, Expr::IntLit(2), Expr::IntLit(-1));
        assert_eq!(neg.const_int(&no_lookup), None);
    }

    #[test]
    fn indexed_names_collects_nested() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::Index {
                name: "v".into(),
                indices: vec![Expr::var("i")],
            },
            Expr::Index {
                name: "u".into(),
                indices: vec![Expr::Index {
                    name: "w".into(),
                    indices: vec![Expr::IntLit(1)],
                }],
            },
        );
        assert_eq!(e.indexed_names(), vec!["v", "u", "w"]);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Add.is_logical());
        assert!(BinOp::Le.is_relational());
        assert!(!BinOp::Pow.is_relational());
    }

    #[test]
    fn walk_visits_all_children() {
        let s = Stmt {
            label: None,
            line: 1,
            id: StmtId(0),
            kind: StmtKind::Do {
                var: "i".into(),
                from: Expr::IntLit(1),
                to: Expr::IntLit(10),
                step: None,
                term_label: None,
                body: vec![Stmt {
                    label: None,
                    line: 2,
                    id: StmtId(1),
                    kind: StmtKind::Continue,
                }],
            },
        };
        let mut seen = vec![];
        s.walk(&mut |st| seen.push(st.id.0));
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn int_parameters_fold_in_declaration_order() {
        let file = crate::parse(
            "      program p
      parameter (n = 40, m = n - 1, istep = -1, h = 0.5, k = j + 1)
      end
",
        )
        .unwrap();
        let params = file.units[0].int_parameters();
        assert_eq!(
            params.into_iter().collect::<Vec<_>>(),
            vec![("istep", -1), ("m", 39), ("n", 40)]
        );
    }
}
