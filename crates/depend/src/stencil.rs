//! Stencil extraction: which neighbor offsets a field loop reads/writes.
//!
//! Implements the reference-pattern side of §4.2: the analysis must cope
//! with references that are "not a regular five-point or nine-point
//! stencil", references on only one dimension or direction (case 2),
//! boundary code with constant subscripts (case 3), packed dimensions
//! (case 4), and dependency distances larger than one (case 5).

use autocfd_ir::{ArrayAccess, IndexPattern, LoopId, ProgramIr, UnitIr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The reference pattern of one status array within one field loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stencil {
    /// The array.
    pub array: String,
    /// Per grid axis, the set of reference offsets seen (0 = center).
    pub offsets: Vec<BTreeSet<i64>>,
    /// Whether the loop also contains whole-array or undecodable accesses
    /// (forces conservative full-halo treatment).
    pub has_opaque: bool,
    /// Whether any access had a constant subscript in a status dimension
    /// (boundary code, §4.2 case 3).
    pub has_boundary: bool,
}

impl Stencil {
    /// Ghost width needed per axis and direction:
    /// `ghost(axis)[0]` = layers needed from the lower neighbor
    /// (negative offsets), `[1]` = from the upper neighbor.
    pub fn ghost(&self, axis: usize) -> [u64; 2] {
        let set = match self.offsets.get(axis) {
            Some(s) => s,
            None => return [0, 0],
        };
        let low = set
            .iter()
            .filter(|&&o| o < 0)
            .map(|o| o.unsigned_abs())
            .max()
            .unwrap_or(0);
        let high = set
            .iter()
            .filter(|&&o| o > 0)
            .map(|o| o.unsigned_abs())
            .max()
            .unwrap_or(0);
        [low, high]
    }

    /// True if some reference offset is nonzero on `axis` (a partition cut
    /// on that axis induces communication).
    pub fn crosses(&self, axis: usize) -> bool {
        self.has_opaque || self.ghost(axis) != [0, 0]
    }

    fn new(array: &str, rank: usize) -> Self {
        Self {
            array: array.to_string(),
            offsets: vec![BTreeSet::new(); rank],
            has_opaque: false,
            has_boundary: false,
        }
    }
}

/// Extract the reference stencil of `array` within field loop `id`
/// (the loop and its whole nest). Only *references* (reads) contribute
/// offsets; assignments define the center.
pub fn loop_stencil(ir: &ProgramIr, unit: &UnitIr, id: LoopId, array: &str) -> Stencil {
    let info = match ir.status_arrays.get(array) {
        Some(i) => i,
        None => return Stencil::new(array, 0),
    };
    let rank = ir.grid_rank();
    let mut st = Stencil::new(array, rank);
    for acc in unit.accesses_in_loop(id, array) {
        if acc.is_assign {
            continue;
        }
        accumulate(&mut st, acc, info);
    }
    st
}

fn accumulate(st: &mut Stencil, acc: &ArrayAccess, info: &autocfd_ir::StatusArrayInfo) {
    for (d, pat) in acc.patterns.iter().enumerate() {
        let axis = match info.dim_axis.get(d).copied().flatten() {
            Some(a) => a,
            None => continue, // packed dimension: ignore (§4.2 case 4)
        };
        match pat {
            IndexPattern::LoopVar { offset, .. } => {
                st.offsets[axis].insert(*offset);
            }
            IndexPattern::Constant(_) => {
                st.has_boundary = true;
            }
            IndexPattern::Scalar(_) | IndexPattern::Other => {
                st.has_opaque = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;
    use autocfd_ir::build_ir;

    fn ir_of(src: &str) -> ProgramIr {
        build_ir(parse(src).unwrap()).unwrap()
    }

    fn first_field_root(ir: &ProgramIr) -> (usize, LoopId) {
        let u = &ir.units[0];
        (0, u.field_roots().next().unwrap().id)
    }

    #[test]
    fn five_point_stencil() {
        let ir = ir_of(
            "
!$acf grid(50, 50)
!$acf status v, vn
      program p
      real v(50,50), vn(50,50)
      integer i, j
      do i = 2, 49
        do j = 2, 49
          vn(i,j) = 0.25*(v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
        end do
      end do
      end
",
        );
        let (ui, l) = first_field_root(&ir);
        let st = loop_stencil(&ir, &ir.units[ui], l, "v");
        assert_eq!(st.ghost(0), [1, 1]);
        assert!(st.crosses(0) && st.crosses(1));
    }

    #[test]
    fn nine_point_stencil() {
        let ir = ir_of(
            "
!$acf grid(50, 50)
!$acf status v, vn
      program p
      real v(50,50), vn(50,50)
      integer i, j
      do i = 2, 49
        do j = 2, 49
          vn(i,j) = v(i-1,j-1) + v(i-1,j) + v(i-1,j+1) + v(i,j-1)
     &      + v(i,j+1) + v(i+1,j-1) + v(i+1,j) + v(i+1,j+1)
        end do
      end do
      end
",
        );
        let (ui, l) = first_field_root(&ir);
        let st = loop_stencil(&ir, &ir.units[ui], l, "v");
        assert_eq!(st.offsets, vec![BTreeSet::from([-1, 0, 1]); 2]);
        assert_eq!(st.ghost(0), [1, 1]);
        assert_eq!(st.ghost(1), [1, 1]);
    }

    #[test]
    fn one_directional_reference() {
        // §4.2 case 2: references only on one dimension, one direction.
        let ir = ir_of(
            "
!$acf grid(50, 50)
!$acf status v, w
      program p
      real v(50,50), w(50,50)
      integer i, j
      do i = 2, 50
        do j = 1, 50
          w(i,j) = v(i-1,j)
        end do
      end do
      end
",
        );
        let (ui, l) = first_field_root(&ir);
        let st = loop_stencil(&ir, &ir.units[ui], l, "v");
        assert_eq!(st.ghost(0), [1, 0]);
        assert_eq!(st.ghost(1), [0, 0]);
        assert!(st.crosses(0));
        assert!(!st.crosses(1));
    }

    #[test]
    fn one_dimensional_both_directions() {
        let ir = ir_of(
            "
!$acf grid(50, 50)
!$acf status v, w
      program p
      real v(50,50), w(50,50)
      integer i, j
      do i = 2, 49
        do j = 1, 50
          w(i,j) = v(i-1,j) + v(i+1,j)
        end do
      end do
      end
",
        );
        let (ui, l) = first_field_root(&ir);
        let st = loop_stencil(&ir, &ir.units[ui], l, "v");
        assert_eq!(st.ghost(0), [1, 1]);
        assert!(!st.crosses(1));
    }

    #[test]
    fn distance_two_multigrid() {
        // §4.2 case 5: multiple-grid methods with distance > 1.
        let ir = ir_of(
            "
!$acf grid(60, 60)
!$acf status v, w
      program p
      real v(60,60), w(60,60)
      integer i, j
      do i = 3, 58
        do j = 1, 60
          w(i,j) = v(i-2,j) + v(i+2,j)
        end do
      end do
      end
",
        );
        let (ui, l) = first_field_root(&ir);
        let st = loop_stencil(&ir, &ir.units[ui], l, "v");
        assert_eq!(st.ghost(0), [2, 2]);
    }

    #[test]
    fn packed_dimension_ignored() {
        // §4.2 case 4: the packed dim must not contribute offsets.
        let ir = ir_of(
            "
!$acf grid(40, 40)
!$acf status q(*, i, j)
      program p
      real q(5, 40, 40)
      integer m, i, j
      do m = 2, 5
        do i = 2, 39
          do j = 1, 40
            q(m, i, j) = q(m - 1, i - 1, j)
          end do
        end do
      end do
      end
",
        );
        let u = &ir.units[0];
        let root = u.field_roots().next().unwrap().id;
        let st = loop_stencil(&ir, u, root, "q");
        // Only axis 0 (the i dim) has an offset; the m-1 on the packed dim
        // is invisible to grid analysis.
        assert_eq!(st.ghost(0), [1, 0]);
        assert_eq!(st.ghost(1), [0, 0]);
        assert!(!st.has_opaque);
    }

    #[test]
    fn boundary_constant_marks_flag() {
        let ir = ir_of(
            "
!$acf grid(30, 30)
!$acf status v, w
      program p
      real v(30,30), w(30,30)
      integer j
      do j = 1, 30
        w(1,j) = v(30,j)
      end do
      end
",
        );
        let u = &ir.units[0];
        let root = u.field_roots().next().unwrap().id;
        let st = loop_stencil(&ir, u, root, "v");
        assert!(st.has_boundary);
    }

    #[test]
    fn opaque_forces_crossing() {
        let ir = ir_of(
            "
!$acf grid(30, 30)
!$acf status v
      program p
      real v(30,30)
      integer i, j, n
      do i = 1, 30
        do j = 1, 30
          v(i,j) = v(n, j)
        end do
      end do
      end
",
        );
        let u = &ir.units[0];
        let root = u.field_roots().next().unwrap().id;
        let st = loop_stencil(&ir, u, root, "v");
        assert!(st.has_opaque);
        assert!(st.crosses(0) && st.crosses(1));
    }
}
