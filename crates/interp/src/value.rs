//! Runtime values and arrays.

use crate::machine::RunError;

/// A scalar runtime value. Character literals are not values: they are
/// legal only as `write` items, which print them directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Fortran `integer`.
    Int(i64),
    /// Fortran `real` / `double precision` (both stored as f64).
    Real(f64),
    /// Fortran `logical`.
    Logical(bool),
}

impl Value {
    /// Coerce to f64 (Fortran numeric context).
    #[inline]
    pub fn as_f64(self) -> Result<f64, RunError> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::Real(v) => Ok(v),
            Value::Logical(_) => Err(RunError::new("logical/character used in numeric context")),
        }
    }

    /// Coerce to i64 (subscript / loop-bound context; reals truncate like
    /// Fortran assignment to integer).
    #[inline]
    pub fn as_i64(self) -> Result<i64, RunError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Real(v) => Ok(v as i64),
            Value::Logical(_) => Err(RunError::new("logical/character used in integer context")),
        }
    }

    /// Coerce to logical.
    #[inline]
    pub fn as_bool(self) -> Result<bool, RunError> {
        match self {
            Value::Logical(b) => Ok(b),
            _ => Err(RunError::new("numeric value used in logical context")),
        }
    }

    /// True if this is an integer value.
    #[inline]
    pub fn is_int(&self) -> bool {
        matches!(self, Value::Int(_))
    }
}

/// Fortran's implicit typing rule: names starting with i–n are integer,
/// everything else real.
pub fn implicit_is_integer(name: &str) -> bool {
    matches!(name.chars().next(), Some('i'..='n'))
}

/// A column-major array with per-dimension declared bounds, storing f64
/// elements (integer arrays round on load — adequate for the CFD subset,
/// where status and work arrays are real).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayVal {
    /// Declared `(lower, upper)` bounds per dimension.
    pub bounds: Vec<(i64, i64)>,
    /// Column-major element storage.
    pub data: Vec<f64>,
    /// True if declared `integer` (loads round to the nearest integer).
    pub is_int: bool,
}

impl ArrayVal {
    /// Allocate a zero-filled array.
    pub fn new(bounds: Vec<(i64, i64)>, is_int: bool) -> Result<Self, RunError> {
        let mut len = 1usize;
        for &(lo, hi) in &bounds {
            if hi < lo {
                return Err(RunError::new(format!("array bound {hi} < {lo}")));
            }
            len = len
                .checked_mul((hi - lo + 1) as usize)
                .ok_or_else(|| RunError::new("array too large"))?;
        }
        if len > 1 << 30 {
            return Err(RunError::new("array too large"));
        }
        Ok(Self {
            bounds,
            data: vec![0.0; len],
            is_int,
        })
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    /// Extent of dimension `d`.
    pub fn extent(&self, d: usize) -> i64 {
        let (lo, hi) = self.bounds[d];
        hi - lo + 1
    }

    /// Column-major linear offset of `idx`, bounds-checked.
    #[inline]
    pub fn offset(&self, idx: &[i64]) -> Result<usize, RunError> {
        if idx.len() != self.bounds.len() {
            return Err(RunError::new(format!(
                "rank mismatch: {} subscripts for rank-{} array",
                idx.len(),
                self.bounds.len()
            )));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, (&i, &(lo, hi))) in idx.iter().zip(&self.bounds).enumerate() {
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

    /// Load element at `idx`.
    #[inline]
    pub fn get(&self, idx: &[i64]) -> Result<f64, RunError> {
        let off = self.offset(idx)?;
        let v = self.data[off];
        Ok(if self.is_int { v.round() } else { v })
    }

    /// Store element at `idx`.
    #[inline]
    pub fn set(&mut self, idx: &[i64], v: f64) -> Result<(), RunError> {
        let off = self.offset(idx)?;
        self.data[off] = if self.is_int { v.trunc() } else { v };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_typing_rule() {
        assert!(implicit_is_integer("i"));
        assert!(implicit_is_integer("n"));
        assert!(implicit_is_integer("index"));
        assert!(!implicit_is_integer("x"));
        assert!(!implicit_is_integer("err"));
        assert!(!implicit_is_integer("a"));
        assert!(!implicit_is_integer("omega"));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Real(2.7).as_i64().unwrap(), 2);
        assert_eq!(Value::Real(-2.7).as_i64().unwrap(), -2); // truncation
        assert!(Value::Logical(true).as_bool().unwrap());
        assert!(Value::Logical(true).as_f64().is_err());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn column_major_layout() {
        // a(2,3): offsets a(1,1)=0, a(2,1)=1, a(1,2)=2 — first index fastest
        let a = ArrayVal::new(vec![(1, 2), (1, 3)], false).unwrap();
        assert_eq!(a.offset(&[1, 1]).unwrap(), 0);
        assert_eq!(a.offset(&[2, 1]).unwrap(), 1);
        assert_eq!(a.offset(&[1, 2]).unwrap(), 2);
        assert_eq!(a.offset(&[2, 3]).unwrap(), 5);
        assert_eq!(a.data.len(), 6);
    }

    #[test]
    fn custom_lower_bounds() {
        let a = ArrayVal::new(vec![(0, 11), (-1, 1)], false).unwrap();
        assert_eq!(a.rank(), 2);
        assert_eq!(a.extent(0), 12);
        assert_eq!(a.extent(1), 3);
        assert_eq!(a.offset(&[0, -1]).unwrap(), 0);
        assert_eq!(a.offset(&[11, 1]).unwrap(), 35);
    }

    #[test]
    fn bounds_checking() {
        let a = ArrayVal::new(vec![(1, 5)], false).unwrap();
        assert!(a.offset(&[0]).is_err());
        assert!(a.offset(&[6]).is_err());
        assert!(a.offset(&[1, 1]).is_err()); // rank mismatch
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = ArrayVal::new(vec![(1, 4), (1, 4)], false).unwrap();
        a.set(&[2, 3], 1.5).unwrap();
        assert_eq!(a.get(&[2, 3]).unwrap(), 1.5);
        assert_eq!(a.get(&[3, 2]).unwrap(), 0.0);
    }

    #[test]
    fn integer_array_truncates() {
        let mut a = ArrayVal::new(vec![(1, 3)], true).unwrap();
        a.set(&[1], 2.9).unwrap();
        assert_eq!(a.get(&[1]).unwrap(), 2.0);
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(ArrayVal::new(vec![(5, 1)], false).is_err());
    }
}
