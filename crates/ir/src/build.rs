//! IR construction: AST + directives → [`ProgramIr`].

use crate::model::*;
use autocfd_fortran::ast::{self, Expr, LValue, SourceFile, Stmt, StmtKind};
use autocfd_fortran::error::{FortranError, Result};
use autocfd_fortran::{DirectiveSet, StmtId};
use std::collections::{BTreeMap, BTreeSet};

/// Fortran intrinsic functions recognized by the frontend; `name(args)`
/// with one of these names is a function call, never an array access.
pub const INTRINSICS: &[&str] = &[
    "abs", "max", "min", "sqrt", "exp", "log", "sin", "cos", "tan", "atan", "mod", "float", "real",
    "int", "nint", "sign", "amax1", "amin1", "dble", "iabs",
];

/// True if `name` is an intrinsic function.
pub fn is_intrinsic(name: &str) -> bool {
    INTRINSICS.contains(&name)
}

/// Build the program IR from a parsed source file.
///
/// Errors if required directives are missing or inconsistent (no `grid`
/// directive, a `status` array that is never declared, a mapping whose
/// rank disagrees with the declaration).
pub fn build_ir(file: SourceFile) -> Result<ProgramIr> {
    let directives = DirectiveSet::from_directives(&file.directives)?;
    let grid = directives
        .grid
        .clone()
        .ok_or_else(|| FortranError::directive(0, "missing `!$acf grid(...)` directive"))?;
    let grid_rank = grid.len();

    // ---- status-array table ------------------------------------------
    let mut status_arrays = BTreeMap::new();
    for decl in &directives.status {
        // Find the declaring unit (first declaration wins).
        let mut found = None;
        for unit in &file.units {
            if let Some(vd) = unit.decl_of(&decl.name) {
                if vd.dims.is_empty() {
                    return Err(FortranError::directive(
                        0,
                        format!("status array `{}` is declared as a scalar", decl.name),
                    ));
                }
                found = Some((unit, vd));
                break;
            }
        }
        let (unit, vd) = found.ok_or_else(|| {
            FortranError::directive(0, format!("status array `{}` is never declared", decl.name))
        })?;

        let params = unit.int_parameters();
        let lookup = |n: &str| params.get(n).copied();

        let extents: Vec<Option<i64>> = vd
            .dims
            .iter()
            .map(|d| {
                let hi = d.upper.const_int(&lookup)?;
                let lo = d.lower.as_ref().map_or(Some(1), |e| e.const_int(&lookup))?;
                Some(hi - lo + 1)
            })
            .collect();
        let lower_bounds: Vec<i64> = vd
            .dims
            .iter()
            .map(|d| {
                d.lower
                    .as_ref()
                    .and_then(|e| e.const_int(&lookup))
                    .unwrap_or(1)
            })
            .collect();

        let dim_axis = match &decl.mapping {
            Some(m) => {
                if m.len() != vd.dims.len() {
                    return Err(FortranError::directive(
                        0,
                        format!(
                            "status mapping for `{}` has {} dims but declaration has {}",
                            decl.name,
                            m.len(),
                            vd.dims.len()
                        ),
                    ));
                }
                StatusArrayInfo::mapping_from_directive(m)
            }
            None => StatusArrayInfo::default_mapping(vd.dims.len(), grid_rank),
        };

        status_arrays.insert(
            decl.name.clone(),
            StatusArrayInfo {
                name: decl.name.clone(),
                extents,
                lower_bounds,
                dim_axis,
            },
        );
    }

    // ---- per-unit IR ---------------------------------------------------
    let unit_names: BTreeSet<String> = file.units.iter().map(|u| u.name.clone()).collect();
    let units: Vec<UnitIr> = file
        .units
        .iter()
        .map(|u| UnitBuilder::new(&status_arrays, &unit_names).build(u))
        .collect();

    check_status_array_aliasing(&file, &status_arrays)?;

    Ok(ProgramIr {
        file,
        directives,
        status_arrays,
        units,
    })
}

/// Enforce the name-preservation convention the interprocedural analysis
/// relies on: a status array passed to a subroutine/function must bind a
/// dummy argument of the *same name*. Renaming would make the callee's
/// accesses invisible to the dependency analysis (unsound), so it is a
/// compile-time error.
fn check_status_array_aliasing(
    file: &SourceFile,
    status_arrays: &BTreeMap<String, StatusArrayInfo>,
) -> Result<()> {
    for unit in &file.units {
        let mut err: Option<FortranError> = None;
        ast::walk_stmts(&unit.body, &mut |s| {
            if err.is_some() {
                return;
            }
            let (callee, args) = match &s.kind {
                StmtKind::Call { name, args } => (name, args),
                _ => return,
            };
            let Some(target) = file.unit(callee) else {
                return;
            };
            for (pos, arg) in args.iter().enumerate() {
                if let Expr::Var(n) = arg {
                    if status_arrays.contains_key(n) {
                        match target.params.get(pos) {
                            Some(dummy) if dummy == n => {}
                            Some(dummy) => {
                                err = Some(FortranError::parse(
                                    s.line,
                                    format!(
                                        "status array `{n}` passed to `{callee}` as dummy \
                                         `{dummy}`: status arrays must keep their names \
                                         across units (rename the dummy argument)"
                                    ),
                                ));
                                return;
                            }
                            None => {}
                        }
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(())
}

struct UnitBuilder<'a> {
    status: &'a BTreeMap<String, StatusArrayInfo>,
    unit_names: &'a BTreeSet<String>,
    loops: Vec<LoopInfo>,
    root_loops: Vec<LoopId>,
    accesses: Vec<ArrayAccess>,
    calls: Vec<CallSite>,
    stmt_order: BTreeMap<StmtId, usize>,
    stmt_line: BTreeMap<StmtId, u32>,
    stmt_loop: BTreeMap<StmtId, Option<LoopId>>,
    do_stmt_loop: BTreeMap<StmtId, LoopId>,
    loop_stack: Vec<LoopId>,
    order: usize,
}

impl<'a> UnitBuilder<'a> {
    fn new(
        status: &'a BTreeMap<String, StatusArrayInfo>,
        unit_names: &'a BTreeSet<String>,
    ) -> Self {
        Self {
            status,
            unit_names,
            loops: Vec::new(),
            root_loops: Vec::new(),
            accesses: Vec::new(),
            calls: Vec::new(),
            stmt_order: BTreeMap::new(),
            stmt_line: BTreeMap::new(),
            stmt_loop: BTreeMap::new(),
            do_stmt_loop: BTreeMap::new(),
            loop_stack: Vec::new(),
            order: 0,
        }
    }

    fn build(mut self, unit: &ast::Unit) -> UnitIr {
        self.visit_stmts(&unit.body);
        self.finalize();
        UnitIr {
            name: unit.name.clone(),
            loops: self.loops,
            root_loops: self.root_loops,
            accesses: self.accesses,
            calls: self.calls,
            stmt_order: self.stmt_order,
            stmt_line: self.stmt_line,
            stmt_loop: self.stmt_loop,
            do_stmt_loop: self.do_stmt_loop,
        }
    }

    fn current_loop(&self) -> Option<LoopId> {
        self.loop_stack.last().copied()
    }

    fn loop_vars(&self) -> BTreeSet<&str> {
        self.loop_stack
            .iter()
            .map(|id| self.loops[id.0 as usize].var.as_str())
            .filter(|v| !v.is_empty())
            .collect()
    }

    fn visit_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.visit_stmt(s);
        }
    }

    fn note_stmt(&mut self, s: &Stmt) {
        self.stmt_order.insert(s.id, self.order);
        self.order += 1;
        self.stmt_line.insert(s.id, s.line);
        self.stmt_loop.insert(s.id, self.current_loop());
    }

    fn visit_stmt(&mut self, s: &Stmt) {
        self.note_stmt(s);
        match &s.kind {
            StmtKind::Do {
                var,
                from,
                to,
                step,
                body,
                ..
            } => {
                self.visit_expr_refs(s, from);
                self.visit_expr_refs(s, to);
                if let Some(e) = step {
                    self.visit_expr_refs(s, e);
                }
                self.enter_loop(s, var.clone(), body);
            }
            StmtKind::DoWhile { cond, body } => {
                self.visit_expr_refs(s, cond);
                self.enter_loop(s, String::new(), body);
            }
            StmtKind::If {
                cond,
                then,
                else_ifs,
                els,
            } => {
                self.visit_expr_refs(s, cond);
                self.visit_stmts(then);
                for (c, body) in else_ifs {
                    self.visit_expr_refs(s, c);
                    self.visit_stmts(body);
                }
                if let Some(body) = els {
                    self.visit_stmts(body);
                }
            }
            StmtKind::LogicalIf { cond, stmt } => {
                self.visit_expr_refs(s, cond);
                self.visit_stmt(stmt);
            }
            StmtKind::Assign { target, value } => {
                self.visit_lvalue_assign(s, target);
                self.visit_expr_refs(s, value);
            }
            StmtKind::Call { name, args } => {
                self.calls.push(CallSite {
                    stmt: s.id,
                    line: s.line,
                    callee: name.clone(),
                    loop_id: self.current_loop(),
                });
                for a in args {
                    self.visit_expr_refs(s, a);
                }
            }
            StmtKind::Read { items, .. } => {
                // Reading into a status array is an assignment to it
                // (§3: the restructurer must modify read statements).
                for lv in items {
                    self.visit_lvalue_assign(s, lv);
                }
            }
            StmtKind::Write { items, .. } => {
                for e in items {
                    self.visit_expr_refs(s, e);
                }
            }
            StmtKind::Goto { .. } | StmtKind::Continue | StmtKind::Return | StmtKind::Stop => {}
        }
    }

    fn enter_loop(&mut self, s: &Stmt, var: String, body: &[Stmt]) {
        let id = LoopId(self.loops.len() as u32);
        let parent = self.current_loop();
        let depth = self.loop_stack.len();
        self.loops.push(LoopInfo {
            id,
            stmt: s.id,
            var,
            parent,
            children: Vec::new(),
            depth,
            line_start: s.line,
            line_end: s.line,
            assigned: BTreeSet::new(),
            referenced: BTreeSet::new(),
            indexes_status_dim: false,
            is_field_root: false,
        });
        self.do_stmt_loop.insert(s.id, id);
        match parent {
            Some(p) => self.loops[p.0 as usize].children.push(id),
            None => self.root_loops.push(id),
        }
        self.loop_stack.push(id);
        self.visit_stmts(body);
        self.loop_stack.pop();

        // line_end = max line seen inside
        let mut max_line = s.line;
        ast::walk_stmts(body, &mut |st| max_line = max_line.max(st.line));
        self.loops[id.0 as usize].line_end = max_line;
    }

    fn visit_lvalue_assign(&mut self, s: &Stmt, lv: &LValue) {
        if self.status.contains_key(&lv.name) {
            let patterns = self.decode_indices(&lv.indices);
            self.push_access(s, &lv.name, true, patterns);
        }
        // subscripts of the target are themselves references
        for e in &lv.indices {
            self.visit_expr_refs(s, e);
        }
    }

    fn visit_expr_refs(&mut self, s: &Stmt, e: &Expr) {
        match e {
            Expr::Index { name, indices } => {
                if self.status.contains_key(name) {
                    let patterns = self.decode_indices(indices);
                    self.push_access(s, name, false, patterns);
                } else if !is_intrinsic(name) && !self.unit_names.contains(name) {
                    // Unknown indexed name: a non-status array; harmless.
                }
                for i in indices {
                    self.visit_expr_refs(s, i);
                }
            }
            Expr::Var(name) if self.status.contains_key(name) => {
                // Whole-array reference (e.g. passed to a call).
                let rank = self.status[name].dim_axis.len();
                self.push_access(s, name, false, vec![IndexPattern::Other; rank]);
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.visit_expr_refs(s, lhs);
                self.visit_expr_refs(s, rhs);
            }
            Expr::Un { expr, .. } => self.visit_expr_refs(s, expr),
            _ => {}
        }
    }

    fn push_access(&mut self, s: &Stmt, array: &str, is_assign: bool, patterns: Vec<IndexPattern>) {
        self.accesses.push(ArrayAccess {
            stmt: s.id,
            line: s.line,
            loop_id: self.current_loop(),
            array: array.to_string(),
            is_assign,
            patterns,
        });
    }

    /// Decode subscripts against the current loop-variable stack.
    fn decode_indices(&self, indices: &[Expr]) -> Vec<IndexPattern> {
        let vars = self.loop_vars();
        indices.iter().map(|e| decode_index(e, &vars)).collect()
    }

    /// After the walk: aggregate per-loop assigned/referenced sets,
    /// detect status-dimension indexing, and mark field roots.
    fn finalize(&mut self) {
        // assigned/referenced aggregation: every access contributes to all
        // enclosing loops.
        let accesses = std::mem::take(&mut self.accesses);
        for a in &accesses {
            let mut cur = a.loop_id;
            while let Some(id) = cur {
                let info = &mut self.loops[id.0 as usize];
                if a.is_assign {
                    info.assigned.insert(a.array.clone());
                } else {
                    info.referenced.insert(a.array.clone());
                }
                cur = info.parent;
            }
        }
        // indexes_status_dim: loop var appears in a status dimension of
        // some access inside the loop.
        for li in 0..self.loops.len() {
            let var = self.loops[li].var.clone();
            if var.is_empty() {
                continue;
            }
            let id = LoopId(li as u32);
            let hit = accesses.iter().any(|a| {
                let in_nest = a.loop_id.is_some_and(|l| self.loop_is_in(l, id));
                in_nest
                    && a.patterns.iter().enumerate().any(|(d, p)| {
                        matches!(p, IndexPattern::LoopVar { var: v, .. } if *v == var)
                            && self
                                .status
                                .get(&a.array)
                                .and_then(|s| s.dim_axis.get(d))
                                .is_some_and(|ax| ax.is_some())
                    })
            });
            self.loops[li].indexes_status_dim = hit;
        }
        // field roots: indexes status dims and no ancestor does.
        for li in 0..self.loops.len() {
            if !self.loops[li].indexes_status_dim {
                continue;
            }
            let mut anc = self.loops[li].parent;
            let mut ancestor_indexes = false;
            while let Some(p) = anc {
                if self.loops[p.0 as usize].indexes_status_dim {
                    ancestor_indexes = true;
                    break;
                }
                anc = self.loops[p.0 as usize].parent;
            }
            self.loops[li].is_field_root = !ancestor_indexes;
        }
        self.accesses = accesses;
    }

    fn loop_is_in(&self, inner: LoopId, outer: LoopId) -> bool {
        let mut cur = Some(inner);
        while let Some(c) = cur {
            if c == outer {
                return true;
            }
            cur = self.loops[c.0 as usize].parent;
        }
        false
    }
}

/// Decode one subscript expression against the set of enclosing loop
/// variables.
pub fn decode_index(e: &Expr, loop_vars: &BTreeSet<&str>) -> IndexPattern {
    match e {
        Expr::IntLit(v) => IndexPattern::Constant(*v),
        Expr::Var(n) => {
            if loop_vars.contains(n.as_str()) {
                IndexPattern::LoopVar {
                    var: n.clone(),
                    offset: 0,
                }
            } else {
                IndexPattern::Scalar(n.clone())
            }
        }
        Expr::Bin { op, lhs, rhs } => {
            use autocfd_fortran::BinOp;
            let sign = match op {
                BinOp::Add => 1,
                BinOp::Sub => -1,
                _ => return IndexPattern::Other,
            };
            match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Var(n), Expr::IntLit(c)) if loop_vars.contains(n.as_str()) => {
                    IndexPattern::LoopVar {
                        var: n.clone(),
                        offset: sign * c,
                    }
                }
                (Expr::IntLit(c), Expr::Var(n))
                    if *op == BinOp::Add && loop_vars.contains(n.as_str()) =>
                {
                    IndexPattern::LoopVar {
                        var: n.clone(),
                        offset: *c,
                    }
                }
                _ => IndexPattern::Other,
            }
        }
        _ => IndexPattern::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;

    fn ir(src: &str) -> ProgramIr {
        build_ir(parse(src).expect("parse")).expect("build_ir")
    }

    const JACOBI: &str = "
!$acf grid(100, 100)
!$acf status v, vn
      program jacobi
      real v(100,100), vn(100,100)
      integer i, j, it
      do it = 1, 50
        do i = 2, 99
          do j = 2, 99
            vn(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
        do i = 2, 99
          do j = 2, 99
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";

    #[test]
    fn status_array_table() {
        let p = ir(JACOBI);
        assert_eq!(p.status_arrays.len(), 2);
        let v = &p.status_arrays["v"];
        assert_eq!(v.extents, vec![Some(100), Some(100)]);
        assert_eq!(v.dim_axis, vec![Some(0), Some(1)]);
    }

    #[test]
    fn missing_grid_directive_errors() {
        let r = build_ir(parse("      program p\n      x = 1\n      end\n").unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn undeclared_status_array_errors() {
        let src =
            "!$acf grid(10,10)\n!$acf status ghost\n      program p\n      x = 1\n      end\n";
        assert!(build_ir(parse(src).unwrap()).is_err());
    }

    #[test]
    fn scalar_status_array_errors() {
        let src = "!$acf grid(10,10)\n!$acf status x\n      program p\n      real x\n      x = 1.0\n      end\n";
        assert!(build_ir(parse(src).unwrap()).is_err());
    }

    #[test]
    fn loop_tree_shape() {
        let p = ir(JACOBI);
        let u = &p.units[0];
        // loops: it, i, j, i, j
        assert_eq!(u.loops.len(), 5);
        assert_eq!(u.root_loops.len(), 1);
        let it = u.loop_info(u.root_loops[0]);
        assert_eq!(it.var, "it");
        assert_eq!(it.children.len(), 2);
        assert_eq!(it.depth, 0);
        let i1 = u.loop_info(it.children[0]);
        assert_eq!(i1.var, "i");
        assert_eq!(i1.depth, 1);
    }

    #[test]
    fn field_roots_are_sweep_outermosts() {
        let p = ir(JACOBI);
        let u = &p.units[0];
        let roots: Vec<&LoopInfo> = u.field_roots().collect();
        // the two i-loops are field roots; the it-loop and j-loops are not
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|l| l.var == "i"));
        let it = u.loop_info(u.root_loops[0]);
        assert!(!it.is_field_root);
        assert!(!it.indexes_status_dim);
    }

    #[test]
    fn assigned_and_referenced_sets() {
        let p = ir(JACOBI);
        let u = &p.units[0];
        let sweep1 = u.loop_info(u.loop_info(u.root_loops[0]).children[0]);
        assert!(sweep1.assigned.contains("vn"));
        assert!(sweep1.referenced.contains("v"));
        assert!(!sweep1.assigned.contains("v"));
        let sweep2 = u.loop_info(u.loop_info(u.root_loops[0]).children[1]);
        assert!(sweep2.assigned.contains("v"));
        assert!(sweep2.referenced.contains("vn"));
    }

    #[test]
    fn access_patterns_decode_stencil() {
        let p = ir(JACOBI);
        let u = &p.units[0];
        let refs: Vec<&ArrayAccess> = u
            .accesses
            .iter()
            .filter(|a| a.array == "v" && !a.is_assign)
            .collect();
        // v(i-1,j) v(i+1,j) v(i,j-1) v(i,j+1) and v(i,j) (copy loop ref? no,
        // copy loop assigns v and references vn) — so 4 references.
        assert_eq!(refs.len(), 4);
        let offsets: BTreeSet<(i64, i64)> = refs
            .iter()
            .map(|a| {
                (
                    a.patterns[0].offset().unwrap(),
                    a.patterns[1].offset().unwrap(),
                )
            })
            .collect();
        assert_eq!(offsets, BTreeSet::from([(-1, 0), (1, 0), (0, -1), (0, 1)]));
    }

    #[test]
    fn read_into_status_array_is_assignment() {
        let src = "
!$acf grid(10,10)
!$acf status v
      program p
      real v(10,10)
      read(5,*) v(1,1)
      end
";
        let p = ir(src);
        let a = &p.units[0].accesses[0];
        assert!(a.is_assign);
        assert_eq!(
            a.patterns,
            vec![IndexPattern::Constant(1), IndexPattern::Constant(1)]
        );
    }

    #[test]
    fn whole_array_call_arg_is_reference() {
        let src = "
!$acf grid(10,10)
!$acf status v
      program p
      real v(10,10)
      call init(v, 10)
      end
      subroutine init(v, n)
      integer n
      real v(n,n)
      return
      end
";
        let p = ir(src);
        let u = &p.units[0];
        assert_eq!(u.calls.len(), 1);
        assert_eq!(u.calls[0].callee, "init");
        assert!(u.accesses.iter().any(|a| a.array == "v" && !a.is_assign));
    }

    #[test]
    fn intrinsic_not_treated_as_array() {
        let src = "
!$acf grid(10,10)
!$acf status v
      program p
      real v(10,10)
      v(1,1) = abs(x) + max(a, b)
      end
";
        let p = ir(src);
        // only the assignment access to v
        assert_eq!(p.units[0].accesses.len(), 1);
    }

    #[test]
    fn packed_dimension_mapping() {
        let src = "
!$acf grid(50, 20)
!$acf status q(*, i, j)
      program p
      real q(5, 50, 20)
      integer i, j, m
      do m = 1, 5
        do i = 2, 49
          do j = 2, 19
            q(m, i, j) = q(m, i-1, j)
          end do
        end do
      end do
      end
";
        let p = ir(src);
        let q = &p.status_arrays["q"];
        assert_eq!(q.dim_axis, vec![None, Some(0), Some(1)]);
        let u = &p.units[0];
        // the m-loop does not index a status dim, i and j loops do
        let m = u.loop_info(u.root_loops[0]);
        assert!(
            !m.indexes_status_dim,
            "packed dim must not make m a field loop"
        );
        // field root is the i-loop
        let roots: Vec<&LoopInfo> = u.field_roots().collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].var, "i");
    }

    #[test]
    fn mapping_rank_mismatch_errors() {
        let src = "
!$acf grid(10,10)
!$acf status q(i, j)
      program p
      real q(5, 10, 10)
      q(1,1,1) = 0.0
      end
";
        assert!(build_ir(parse(src).unwrap()).is_err());
    }

    #[test]
    fn dependency_distance_two_decodes() {
        let src = "
!$acf grid(40, 40)
!$acf status v
      program p
      real v(40,40)
      integer i, j
      do i = 3, 38
        do j = 1, 40
          v(i,j) = v(i-2,j)
        end do
      end do
      end
";
        let p = ir(src);
        let r = p.units[0].accesses.iter().find(|a| !a.is_assign).unwrap();
        assert_eq!(
            r.patterns[0],
            IndexPattern::LoopVar {
                var: "i".into(),
                offset: -2
            }
        );
    }

    #[test]
    fn status_array_renaming_rejected() {
        let src = "
!$acf grid(10,10)
!$acf status v
      program p
      real v(10,10)
      call init(v, 10)
      end
      subroutine init(a, n)
      integer n
      real a(n,n)
      return
      end
";
        let e = build_ir(parse(src).unwrap()).unwrap_err();
        assert!(e.message.contains("must keep their names"), "{e}");
    }

    #[test]
    fn non_status_array_renaming_allowed() {
        let src = "
!$acf grid(10,10)
!$acf status v
      program p
      real v(10,10), work(10)
      v(1,1) = 0.0
      call init(work, 10)
      end
      subroutine init(a, n)
      integer n
      real a(n)
      return
      end
";
        assert!(build_ir(parse(src).unwrap()).is_ok());
    }

    #[test]
    fn stmt_order_is_preorder() {
        let p = ir(JACOBI);
        let u = &p.units[0];
        let orders: Vec<usize> = u.stmt_order.values().copied().collect();
        let mut sorted = orders.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), orders.len());
    }

    #[test]
    fn boundary_constant_subscripts() {
        let src = "
!$acf grid(30, 30)
!$acf status v
      program p
      real v(30,30)
      integer j
      do j = 1, 30
        v(1,j) = 0.0
        v(30,j) = 1.0
      end do
      end
";
        let p = ir(src);
        let u = &p.units[0];
        let assigns: Vec<&ArrayAccess> = u.accesses.iter().filter(|a| a.is_assign).collect();
        assert_eq!(assigns.len(), 2);
        assert_eq!(assigns[0].patterns[0], IndexPattern::Constant(1));
        assert_eq!(assigns[1].patterns[0], IndexPattern::Constant(30));
    }

    #[test]
    fn scalar_subscript_pattern() {
        let src = "
!$acf grid(10,10)
!$acf status v
      program p
      real v(10,10)
      integer n
      n = 5
      v(n, 1) = 2.0
      end
";
        let p = ir(src);
        let a = p.units[0].accesses.iter().find(|a| a.is_assign).unwrap();
        assert_eq!(a.patterns[0], IndexPattern::Scalar("n".into()));
    }
}
