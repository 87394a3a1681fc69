//! Codegen-side analyses: loop-axis inference and reduction recognition.

use autocfd_fortran::ast::{Expr, Stmt, StmtKind};
use autocfd_fortran::BinOp;
use autocfd_ir::{IndexPattern, LoopId, ProgramIr, UnitIr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The grid axis a loop's induction variable spans, if unambiguous.
///
/// A loop `do i = …` spans axis `a` when `i` appears as a subscript of
/// some status array in a dimension mapped to `a` within the loop's nest.
/// Loops whose variable indexes several different axes (rare, e.g.
/// diagonal sweeps) are not localized.
pub fn loop_axis(ir: &ProgramIr, unit: &UnitIr, id: LoopId) -> Option<usize> {
    let var = &unit.loop_info(id).var;
    if var.is_empty() {
        return None;
    }
    let mut axes: BTreeSet<usize> = BTreeSet::new();
    for acc in &unit.accesses {
        let in_nest = acc.loop_id.is_some_and(|l| unit.is_in_loop(l, id));
        if !in_nest {
            continue;
        }
        let info = match ir.status_arrays.get(&acc.array) {
            Some(i) => i,
            None => continue,
        };
        for (d, p) in acc.patterns.iter().enumerate() {
            if let IndexPattern::LoopVar { var: v, .. } = p {
                if v == var {
                    if let Some(Some(a)) = info.dim_axis.get(d) {
                        axes.insert(*a);
                    }
                }
            }
        }
    }
    if axes.len() == 1 {
        axes.into_iter().next()
    } else {
        None
    }
}

/// Kind of recognized reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReduceOpKind {
    /// `x = max(x, e)` or `if (e .gt. x) x = e`.
    Max,
    /// `x = min(x, e)` or `if (e .lt. x) x = e`.
    Min,
    /// `x = x + e`.
    Sum,
}

impl ReduceOpKind {
    /// Name used in the generated `acf_reduce_<op>_<var>` call.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOpKind::Max => "max",
            ReduceOpKind::Min => "min",
            ReduceOpKind::Sum => "sum",
        }
    }
}

/// A recognized scalar reduction inside a field loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reduction {
    /// The reduced scalar.
    pub var: String,
    /// The operator.
    pub op: ReduceOpKind,
}

/// Recognize the scalar reductions computed by the statements of a loop
/// body (recursively). Patterns (the forms CFD convergence tests use):
///
/// * `x = max(x, e)` / `x = min(x, e)` / `x = amax1(x, e)` …
/// * `if (e .gt. x) x = e` and `if (x .lt. e) x = e` (and the min duals)
/// * `x = x + e` / `x = e + x`
pub fn detect_reductions(body: &[Stmt]) -> Vec<Reduction> {
    let mut out: Vec<Reduction> = Vec::new();
    let mut push = |var: &str, op: ReduceOpKind| {
        if !out.iter().any(|r| r.var == var) {
            out.push(Reduction {
                var: var.to_string(),
                op,
            });
        }
    };
    autocfd_fortran::ast::walk_stmts(body, &mut |s| match &s.kind {
        StmtKind::Assign { target, value } if target.indices.is_empty() => {
            if let Some(op) = assign_reduction(&target.name, value) {
                push(&target.name, op);
            }
        }
        StmtKind::LogicalIf { cond, stmt } => {
            if let StmtKind::Assign { target, value } = &stmt.kind {
                if target.indices.is_empty() {
                    if let Some(op) = guarded_reduction(&target.name, cond, value) {
                        push(&target.name, op);
                    }
                }
            }
        }
        _ => {}
    });
    out
}

/// `x = max(x, …)` / `x = x + e` forms.
fn assign_reduction(x: &str, value: &Expr) -> Option<ReduceOpKind> {
    match value {
        Expr::Index { name, indices } if matches!(name.as_str(), "max" | "amax1") => indices
            .iter()
            .any(|e| is_var(e, x))
            .then_some(ReduceOpKind::Max),
        Expr::Index { name, indices } if matches!(name.as_str(), "min" | "amin1") => indices
            .iter()
            .any(|e| is_var(e, x))
            .then_some(ReduceOpKind::Min),
        Expr::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
        } => (is_var(lhs, x) || is_var(rhs, x)).then_some(ReduceOpKind::Sum),
        _ => None,
    }
}

/// `if (e .gt. x) x = e` forms: the guard compares the stored value
/// against the current `x`.
fn guarded_reduction(x: &str, cond: &Expr, value: &Expr) -> Option<ReduceOpKind> {
    if let Expr::Bin { op, lhs, rhs } = cond {
        let (e_side_left, x_side) = if is_var(rhs, x) {
            (true, false)
        } else if is_var(lhs, x) {
            (false, true)
        } else {
            return None;
        };
        // the assigned value must be the compared expression
        let compared = if e_side_left {
            lhs.as_ref()
        } else {
            rhs.as_ref()
        };
        if compared != value {
            return None;
        }
        let _ = x_side;
        return match (op, e_side_left) {
            (BinOp::Gt, true) | (BinOp::Lt, false) => Some(ReduceOpKind::Max),
            (BinOp::Lt, true) | (BinOp::Gt, false) => Some(ReduceOpKind::Min),
            _ => None,
        };
    }
    None
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(e, Expr::Var(n) if n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;
    use autocfd_ir::build_ir;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse(src).unwrap().units[0].body.clone()
    }

    #[test]
    fn detects_max_intrinsic_form() {
        let b = body_of(
            "      program p
      do i = 1, 10
        err = max(err, d)
      end do
      end
",
        );
        assert_eq!(
            detect_reductions(&b),
            vec![Reduction {
                var: "err".into(),
                op: ReduceOpKind::Max
            }]
        );
    }

    #[test]
    fn detects_guarded_max_both_orders() {
        let b = body_of(
            "      program p
      do i = 1, 10
        if (d .gt. err) err = d
        if (small .lt. lo) lo = small
      end do
      end
",
        );
        let rs = detect_reductions(&b);
        assert!(rs.contains(&Reduction {
            var: "err".into(),
            op: ReduceOpKind::Max
        }));
        assert!(rs.contains(&Reduction {
            var: "lo".into(),
            op: ReduceOpKind::Min
        }));
    }

    #[test]
    fn detects_sum() {
        let b = body_of(
            "      program p
      do i = 1, 10
        s = s + v(i)
        t = v(i) + t
      end do
      end
",
        );
        let rs = detect_reductions(&b);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.op == ReduceOpKind::Sum));
    }

    #[test]
    fn ignores_non_reductions() {
        let b = body_of(
            "      program p
      do i = 1, 10
        x = y + 1.0
        z = max(a, b)
        if (a .gt. b) c = a
      end do
      end
",
        );
        assert!(detect_reductions(&b).is_empty());
    }

    #[test]
    fn guarded_assignment_must_store_compared_value() {
        // `if (d .gt. err) err = q` is NOT a max-reduction
        let b = body_of(
            "      program p
      do i = 1, 10
        if (d .gt. err) err = q
      end do
      end
",
        );
        assert!(detect_reductions(&b).is_empty());
    }

    #[test]
    fn loop_axis_inference() {
        let ir = build_ir(
            parse(
                "
!$acf grid(40, 20)
!$acf status v
      program p
      real v(40,20)
      integer i, j
      do i = 1, 40
        do j = 1, 20
          v(i,j) = 1.0
        end do
      end do
      end
",
            )
            .unwrap(),
        )
        .unwrap();
        let u = &ir.units[0];
        assert_eq!(loop_axis(&ir, u, LoopId(0)), Some(0));
        assert_eq!(loop_axis(&ir, u, LoopId(1)), Some(1));
    }

    #[test]
    fn ambiguous_axis_not_localized() {
        let ir = build_ir(
            parse(
                "
!$acf grid(40, 40)
!$acf status v
      program p
      real v(40,40)
      integer i
      do i = 1, 40
        v(i,i) = 1.0
      end do
      end
",
            )
            .unwrap(),
        )
        .unwrap();
        let u = &ir.units[0];
        assert_eq!(loop_axis(&ir, u, LoopId(0)), None);
    }
}
