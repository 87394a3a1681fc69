//! Expression evaluation and intrinsic functions.

use crate::exec::{Exec, Hooks};
use crate::machine::{Frame, Machine, Names, RunError};
use crate::value::Value;
use autocfd_fortran::ast::{SourceFile, Unit};
use autocfd_fortran::{BinOp, Expr, UnOp};

/// An expression with every name resolved to a slot of its unit's
/// [`Names`], borrowing the rest from the program.
#[derive(Debug, Clone)]
pub(crate) enum RExpr<'p> {
    Int(i64),
    Real(f64),
    Logical(bool),
    /// A character literal outside a `write` item: evaluating it fails.
    Str(&'p str),
    Var(u32, &'p str),
    /// `name(args)`: an array element when the frame binds an array to
    /// `slot`, else an intrinsic or a user function.
    Index {
        slot: u32,
        name: &'p str,
        args: Box<[RExpr<'p>]>,
        callee: Callee<'p>,
    },
    /// A binary operator; `.and.` / `.or.` evaluate their right side
    /// only when needed.
    Bin(BinOp, Box<[RExpr<'p>; 2]>),
    Neg(Box<RExpr<'p>>),
    Not(Box<RExpr<'p>>),
}

/// What `name(args)` calls when `name` is not an array.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Callee<'p> {
    Intrinsic,
    /// A unit of the program, if one has the name.
    Unit(Option<(usize, &'p Unit)>),
}

/// The program unit named `name`, with its index.
pub(crate) fn find_unit<'p>(file: &'p SourceFile, name: &str) -> Option<(usize, &'p Unit)> {
    file.units.iter().enumerate().find(|(_, u)| u.name == name)
}

impl<'p> RExpr<'p> {
    /// Resolve `e` against `names`, the table of the unit it occurs in.
    pub(crate) fn new(file: &'p SourceFile, names: &Names, e: &'p Expr) -> RExpr<'p> {
        let list = |es: &'p [Expr]| es.iter().map(|x| RExpr::new(file, names, x)).collect();
        match e {
            Expr::IntLit(v) => RExpr::Int(*v),
            Expr::RealLit(v) => RExpr::Real(*v),
            Expr::StrLit(s) => RExpr::Str(s),
            Expr::LogicalLit(b) => RExpr::Logical(*b),
            Expr::Var(name) => RExpr::Var(names.mentioned(name), name),
            Expr::Index { name, indices } => RExpr::Index {
                slot: names.mentioned(name),
                name,
                args: list(indices),
                callee: if is_intrinsic_name(name) {
                    Callee::Intrinsic
                } else {
                    Callee::Unit(find_unit(file, name))
                },
            },
            Expr::Bin { op, lhs, rhs } => RExpr::Bin(
                *op,
                Box::new([RExpr::new(file, names, lhs), RExpr::new(file, names, rhs)]),
            ),
            Expr::Un { op, expr } => {
                let x = Box::new(RExpr::new(file, names, expr));
                match op {
                    UnOp::Neg => RExpr::Neg(x),
                    UnOp::Not => RExpr::Not(x),
                }
            }
        }
    }
}

/// Evaluated operands of one subscript list or intrinsic call: on the
/// stack for lists of up to eight, the common case.
pub(crate) enum Operands<T> {
    Stack([T; 8], usize),
    Heap(Vec<T>),
}

impl<T: Copy> Operands<T> {
    /// Evaluate `args` in order with `f`, stopping at the first error.
    #[inline(always)]
    fn collect<'a, 'p: 'a>(
        args: &'a [RExpr<'p>],
        fill: T,
        mut f: impl FnMut(&'a RExpr<'p>) -> Result<T, Failed>,
    ) -> Result<Self, Failed> {
        if args.len() <= 8 {
            let mut buf = [fill; 8];
            for (b, a) in buf.iter_mut().zip(args) {
                *b = f(a)?;
            }
            Ok(Operands::Stack(buf, args.len()))
        } else {
            args.iter()
                .map(f)
                .collect::<Result<_, _>>()
                .map(Operands::Heap)
        }
    }
}

impl<T> std::ops::Deref for Operands<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Operands::Stack(buf, n) => &buf[..*n],
            Operands::Heap(v) => v,
        }
    }
}

impl<'p, H: Hooks> Exec<'p, H> {
    /// Evaluate a resolved expression in the given frame.
    pub(crate) fn eval(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        e: &RExpr<'p>,
    ) -> Result<Value, Failed> {
        match e {
            RExpr::Int(v) => Ok(Value::Int(*v)),
            RExpr::Real(v) => Ok(Value::Real(*v)),
            RExpr::Logical(b) => Ok(Value::Logical(*b)),
            RExpr::Var(slot, name) => match frame.array(*slot) {
                None => Ok(frame.scalar(*slot)),
                Some(_) => Err(fail(format_args!("array `{name}` used as a scalar value"))),
            },
            RExpr::Index {
                slot,
                name,
                args,
                callee,
            } => match frame.array(*slot) {
                Some(id) => {
                    let idx = self.subscripts(m, frame, args)?;
                    m.ops.loads += 1;
                    let a = m.array(id);
                    let v = a.get(&idx)?;
                    Ok(if a.is_int {
                        Value::Int(v as i64)
                    } else {
                        Value::Real(v)
                    })
                }
                None => self.call(m, frame, name, args, callee),
            },
            RExpr::Bin(op, sides) => {
                let [lhs, rhs] = &**sides;
                // short-circuit logicals
                if *op == BinOp::And {
                    let l = self.eval(m, frame, lhs)?.as_bool()?;
                    if !l {
                        return Ok(Value::Logical(false));
                    }
                    return Ok(Value::Logical(self.eval(m, frame, rhs)?.as_bool()?));
                }
                if *op == BinOp::Or {
                    let l = self.eval(m, frame, lhs)?.as_bool()?;
                    if l {
                        return Ok(Value::Logical(true));
                    }
                    return Ok(Value::Logical(self.eval(m, frame, rhs)?.as_bool()?));
                }
                let l = self.eval(m, frame, lhs)?;
                let r = self.eval(m, frame, rhs)?;
                Ok(binop(m, *op, l, r)?)
            }
            RExpr::Neg(x) => match self.eval(m, frame, x)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Real(r) => Ok(Value::Real(-r)),
                _ => Err(fail(format_args!("negation of non-numeric value"))),
            },
            RExpr::Not(x) => Ok(Value::Logical(!self.eval(m, frame, x)?.as_bool()?)),
            RExpr::Str(s) => Err(fail(format_args!(
                "character literal '{s}' is only allowed as a `write` item"
            ))),
        }
    }

    /// `name(args)` where `name` is not an array in the frame: an
    /// intrinsic or a user function. Kept out of [`Exec::eval`] so the
    /// array and arithmetic paths stay small.
    #[inline(never)]
    fn call(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        name: &str,
        args: &[RExpr<'p>],
        callee: &Callee<'p>,
    ) -> Result<Value, Failed> {
        match callee {
            Callee::Intrinsic => {
                let vals = Operands::collect(args, Value::Int(0), |a| self.eval(m, frame, a))?;
                Ok(apply_intrinsic(m, name, &vals)?)
            }
            Callee::Unit(unit) => Ok(self.call_function(m, frame, name, *unit, args)?),
        }
    }

    /// Evaluate a subscript list to integers.
    #[inline]
    pub(crate) fn subscripts(
        &mut self,
        m: &mut Machine,
        frame: &mut Frame,
        args: &[RExpr<'p>],
    ) -> Result<Operands<i64>, Failed> {
        Operands::collect(args, 0, |a| Ok(self.eval(m, frame, a)?.as_i64()?))
    }
}

/// An evaluation error, boxed so that [`Exec::eval`]'s result fits in
/// two registers.
pub(crate) type Failed = Box<RunError>;

/// An evaluation error, built out of line.
#[cold]
#[inline(never)]
fn fail(message: std::fmt::Arguments<'_>) -> Failed {
    Box::new(RunError::new(message.to_string()))
}

/// Apply a numeric/relational binary operator with Fortran promotion
/// rules (int⊕int stays integer; any real operand promotes).
pub fn binop(m: &mut Machine, op: BinOp, l: Value, r: Value) -> Result<Value, RunError> {
    use BinOp::*;
    if op.is_relational() {
        let res = match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => compare(op, *a as f64, *b as f64),
            _ => compare(op, l.as_f64()?, r.as_f64()?),
        };
        return Ok(Value::Logical(res));
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return Err(RunError::new("integer division by zero"));
                    }
                    a / b
                }
                Pow => {
                    if b >= 0 {
                        let mut acc = 1i64;
                        for _ in 0..b {
                            acc = acc.wrapping_mul(a);
                        }
                        acc
                    } else {
                        // Fortran integer power with negative exponent
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
                _ => unreachable!("logical ops handled by caller"),
            };
            Ok(Value::Int(v))
        }
        (l, r) => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            m.ops.flops += 1;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Pow => a.powf(b),
                _ => unreachable!("logical ops handled by caller"),
            };
            Ok(Value::Real(v))
        }
    }
}

fn compare(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!(),
    }
}

/// Names recognized as intrinsic functions.
pub fn is_intrinsic_name(name: &str) -> bool {
    autocfd_ir::build::is_intrinsic(name)
}

/// Apply an intrinsic to evaluated arguments.
pub fn apply_intrinsic(m: &mut Machine, name: &str, args: &[Value]) -> Result<Value, RunError> {
    let need = |n: usize| -> Result<(), RunError> {
        if args.len() < n {
            Err(RunError::new(format!("`{name}` needs {n} argument(s)")))
        } else {
            Ok(())
        }
    };
    let f = |i: usize| args[i].as_f64();
    m.ops.flops += 1;
    match name {
        "abs" => {
            need(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(v.abs())),
                v => Ok(Value::Real(v.as_f64()?.abs())),
            }
        }
        "iabs" => {
            need(1)?;
            Ok(Value::Int(args[0].as_i64()?.abs()))
        }
        "max" | "amax1" => {
            need(1)?;
            let all_int = name == "max" && args.iter().all(Value::is_int);
            let mut acc = f(0)?;
            for (i, _) in args.iter().enumerate().skip(1) {
                acc = acc.max(f(i)?);
            }
            Ok(if all_int {
                Value::Int(acc as i64)
            } else {
                Value::Real(acc)
            })
        }
        "min" | "amin1" => {
            need(1)?;
            let all_int = name == "min" && args.iter().all(Value::is_int);
            let mut acc = f(0)?;
            for (i, _) in args.iter().enumerate().skip(1) {
                acc = acc.min(f(i)?);
            }
            Ok(if all_int {
                Value::Int(acc as i64)
            } else {
                Value::Real(acc)
            })
        }
        "sqrt" => {
            need(1)?;
            let v = f(0)?;
            if v < 0.0 {
                return Err(RunError::new("sqrt of negative value"));
            }
            Ok(Value::Real(v.sqrt()))
        }
        "exp" => {
            need(1)?;
            Ok(Value::Real(f(0)?.exp()))
        }
        "log" => {
            need(1)?;
            let v = f(0)?;
            if v <= 0.0 {
                return Err(RunError::new("log of non-positive value"));
            }
            Ok(Value::Real(v.ln()))
        }
        "sin" => {
            need(1)?;
            Ok(Value::Real(f(0)?.sin()))
        }
        "cos" => {
            need(1)?;
            Ok(Value::Real(f(0)?.cos()))
        }
        "tan" => {
            need(1)?;
            Ok(Value::Real(f(0)?.tan()))
        }
        "atan" => {
            need(1)?;
            Ok(Value::Real(f(0)?.atan()))
        }
        "mod" => {
            need(2)?;
            match (&args[0], &args[1]) {
                (Value::Int(a), Value::Int(b)) => {
                    if *b == 0 {
                        return Err(RunError::new("mod by zero"));
                    }
                    Ok(Value::Int(a % b))
                }
                _ => Ok(Value::Real(f(0)? % f(1)?)),
            }
        }
        "sign" => {
            // sign(a, b) = |a| with the sign of b
            need(2)?;
            let (a, b) = (f(0)?, f(1)?);
            Ok(Value::Real(if b < 0.0 { -a.abs() } else { a.abs() }))
        }
        "float" | "real" | "dble" => {
            need(1)?;
            Ok(Value::Real(f(0)?))
        }
        "int" => {
            need(1)?;
            Ok(Value::Int(f(0)? as i64))
        }
        "nint" => {
            need(1)?;
            Ok(Value::Int(f(0)?.round() as i64))
        }
        other => Err(RunError::new(format!("unimplemented intrinsic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {

    use crate::exec::tree_walk;
    use autocfd_fortran::parse;

    fn eval_str(expr: &str) -> String {
        let src = format!("      program p\n      r = {expr}\n      write(*,*) r\n      end\n");
        let m = tree_walk(&parse(&src).unwrap(), vec![]).unwrap();
        m.output.last().unwrap().clone()
    }

    fn eval_int(expr: &str) -> String {
        let src = format!("      program p\n      i = {expr}\n      write(*,*) i\n      end\n");
        let m = tree_walk(&parse(&src).unwrap(), vec![]).unwrap();
        m.output.last().unwrap().clone()
    }

    #[test]
    fn intrinsics_numeric() {
        assert_eq!(eval_str("abs(-2.5)"), "2.500000");
        assert_eq!(eval_str("sqrt(16.0)"), "4.000000");
        assert_eq!(eval_str("max(1.0, 5.0, 3.0)"), "5.000000");
        assert_eq!(eval_str("min(1.0, 5.0, -3.0)"), "-3.000000");
        assert_eq!(eval_str("exp(0.0)"), "1.000000");
        assert_eq!(eval_str("sign(3.0, -1.0)"), "-3.000000");
        assert_eq!(eval_str("sign(-3.0, 2.0)"), "3.000000");
        assert_eq!(eval_str("amax1(1.5, 2.5)"), "2.500000");
    }

    #[test]
    fn intrinsics_integer() {
        assert_eq!(eval_int("mod(7, 3)"), "1");
        assert_eq!(eval_int("iabs(-4)"), "4");
        assert_eq!(eval_int("int(3.9)"), "3");
        assert_eq!(eval_int("nint(3.9)"), "4");
        assert_eq!(eval_int("max(2, 7, 5)"), "7");
    }

    #[test]
    fn integer_pow() {
        assert_eq!(eval_int("2 ** 10"), "1024");
        assert_eq!(eval_int("2 ** 0"), "1");
        assert_eq!(eval_int("3 ** (-1)"), "0"); // Fortran integer semantics
        assert_eq!(eval_int("(-1) ** 5"), "-1");
    }

    #[test]
    fn real_pow() {
        assert_eq!(eval_str("2.0 ** 0.5"), format!("{:.6}", 2.0f64.sqrt()));
    }

    #[test]
    fn mixed_promotion() {
        assert_eq!(eval_str("1 + 0.5"), "1.500000");
        assert_eq!(eval_int("7 / 2"), "3");
        assert_eq!(eval_str("7 / 2.0"), "3.500000");
    }

    #[test]
    fn short_circuit_and() {
        // if .and. did not short-circuit, v(0) would be out of bounds
        let src = "
      program p
      real v(5)
      i = 0
      if (i .ge. 1 .and. v(i) .gt. 0.0) then
        write(*,*) 'yes'
      else
        write(*,*) 'no'
      end if
      end
";
        let m = tree_walk(&parse(src).unwrap(), vec![]).unwrap();
        assert_eq!(m.output, vec!["no"]);
    }

    #[test]
    fn short_circuit_or() {
        let src = "
      program p
      real v(5)
      i = 0
      if (i .lt. 1 .or. v(i) .gt. 0.0) then
        write(*,*) 'yes'
      end if
      end
";
        let m = tree_walk(&parse(src).unwrap(), vec![]).unwrap();
        assert_eq!(m.output, vec!["yes"]);
    }

    #[test]
    fn not_operator() {
        let src = "
      program p
      if (.not. (1 .gt. 2)) then
        write(*,*) 'ok'
      end if
      end
";
        let m = tree_walk(&parse(src).unwrap(), vec![]).unwrap();
        assert_eq!(m.output, vec!["ok"]);
    }

    #[test]
    fn division_by_zero_errors() {
        let src = "      program p\n      i = 1 / 0\n      end\n";
        assert!(tree_walk(&parse(src).unwrap(), vec![]).is_err());
        let src = "      program p\n      x = sqrt(-1.0)\n      end\n";
        assert!(tree_walk(&parse(src).unwrap(), vec![]).is_err());
    }

    #[test]
    fn array_as_scalar_errors() {
        let src = "      program p\n      real v(5)\n      x = v + 1.0\n      end\n";
        let e = tree_walk(&parse(src).unwrap(), vec![]).unwrap_err();
        assert!(e.message.contains("used as a scalar"));
    }
}
