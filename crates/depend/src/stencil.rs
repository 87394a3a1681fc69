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

/// Named stencil shapes (for reporting; the analysis works from raw
/// offsets and never *requires* a regular shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StencilShape {
    /// Only the center point (offset 0 on every axis).
    Point,
    /// The classic 5-point stencil (2-D: center + 4 axis neighbors).
    FivePoint,
    /// The 9-point stencil (2-D: the full 3×3 neighborhood).
    NinePoint,
    /// Offsets confined to a single axis (§4.2 case 2).
    OneDimensional,
    /// Offsets confined to a single direction of a single axis.
    OneDirectional,
    /// Anything else.
    General,
}

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
    /// Whether some single access had nonzero offsets on two axes at once
    /// (a diagonal neighbor — distinguishes 9-point from 5-point).
    pub has_diagonal: bool,
}

impl Stencil {
    /// Dependency distance per axis: the maximum |offset|.
    pub fn distance(&self, axis: usize) -> u64 {
        self.offsets
            .get(axis)
            .map(|s| s.iter().map(|o| o.unsigned_abs()).max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Maximum dependency distance over all axes.
    #[cfg(test)]
    fn max_distance(&self) -> u64 {
        (0..self.offsets.len())
            .map(|a| self.distance(a))
            .max()
            .unwrap_or(0)
    }

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

    /// Classify the shape (for reports and the `ir`-level taxonomy).
    pub fn shape(&self) -> StencilShape {
        if self.has_opaque {
            return StencilShape::General;
        }
        let rank = self.offsets.len();
        let active: Vec<usize> = (0..rank)
            .filter(|&a| self.offsets[a].iter().any(|&o| o != 0))
            .collect();
        if active.is_empty() {
            return StencilShape::Point;
        }
        if active.len() == 1 {
            let a = active[0];
            let has_neg = self.offsets[a].iter().any(|&o| o < 0);
            let has_pos = self.offsets[a].iter().any(|&o| o > 0);
            return if has_neg != has_pos {
                StencilShape::OneDirectional
            } else {
                StencilShape::OneDimensional
            };
        }
        if rank == 2 && active.len() == 2 {
            let unit = |a: usize| self.offsets[a].iter().all(|&o| o.abs() <= 1);
            if unit(0) && unit(1) {
                // Distinguish 5-point (no diagonal use) from 9-point by the
                // per-access record: we approximate from per-axis sets — a
                // loop reading i±1 and j±1 *in separate accesses* is
                // 5-point; with diagonals it would also be recorded, so we
                // report the denser 9-point only when diagonal pairs exist.
                return if self.has_diagonal {
                    StencilShape::NinePoint
                } else {
                    StencilShape::FivePoint
                };
            }
        }
        StencilShape::General
    }

    /// Signed dependence "distance vectors" induced by this stencil over
    /// the cut axes, for self-dependence classification: a reference at
    /// offset `o` creates a dependence of distance `-o` in iteration
    /// space (reading `i-1` depends on the iteration one *earlier*, i.e.
    /// a lexicographically-forward dependence of +1).
    pub fn dependence_distances(&self, axis: usize) -> BTreeSet<i64> {
        self.offsets
            .get(axis)
            .map(|s| s.iter().filter(|&&o| o != 0).map(|o| -o).collect())
            .unwrap_or_default()
    }
}

impl Stencil {
    fn new(array: &str, rank: usize) -> Self {
        Self {
            array: array.to_string(),
            offsets: vec![BTreeSet::new(); rank],
            has_opaque: false,
            has_boundary: false,
            has_diagonal: false,
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
    let mut this_access_axes_nonzero = 0usize;
    for (d, pat) in acc.patterns.iter().enumerate() {
        let axis = match info.dim_axis.get(d).copied().flatten() {
            Some(a) => a,
            None => continue, // packed dimension: ignore (§4.2 case 4)
        };
        match pat {
            IndexPattern::LoopVar { offset, .. } => {
                st.offsets[axis].insert(*offset);
                if *offset != 0 {
                    this_access_axes_nonzero += 1;
                }
            }
            IndexPattern::Constant(_) => {
                st.has_boundary = true;
            }
            IndexPattern::Scalar(_) | IndexPattern::Other => {
                st.has_opaque = true;
            }
        }
    }
    if this_access_axes_nonzero >= 2 {
        st.has_diagonal = true;
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
        assert_eq!(st.shape(), StencilShape::FivePoint);
        assert_eq!(st.distance(0), 1);
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
        assert_eq!(st.shape(), StencilShape::NinePoint);
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
        assert_eq!(st.shape(), StencilShape::OneDirectional);
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
        assert_eq!(st.shape(), StencilShape::OneDimensional);
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
        assert_eq!(st.distance(0), 2);
        assert_eq!(st.ghost(0), [2, 2]);
        assert_eq!(st.max_distance(), 2);
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
        assert_eq!(st.shape(), StencilShape::General);
    }

    #[test]
    fn dependence_distances_negate_offsets() {
        let ir = ir_of(
            "
!$acf grid(30, 30)
!$acf status v
      program p
      real v(30,30)
      integer i, j
      do i = 2, 29
        do j = 1, 30
          v(i,j) = v(i-1,j) + v(i+1,j)
        end do
      end do
      end
",
        );
        let u = &ir.units[0];
        let root = u.field_roots().next().unwrap().id;
        let st = loop_stencil(&ir, u, root, "v");
        assert_eq!(st.dependence_distances(0), BTreeSet::from([-1, 1]));
    }
}
