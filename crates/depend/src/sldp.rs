//! `S_LDP` — the set of field-loop dependency pairs (§4.2).
//!
//! "Our dependency test algorithm generates a set of field loop dependency
//! pairs, called `S_LDP`. Each element in this set records a pair of
//! dependent field loops and records other related information, such as
//! dependent status arrays and dependency distances."
//!
//! This is *analysis after partitioning*: the pair set is computed against
//! a concrete set of cut axes, so a reference that never crosses a
//! demarcation line generates no pair at all.

use crate::stencil::{loop_stencil, Stencil};
use autocfd_ir::{classify, LoopId, ProgramIr, UnitIr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The ghost-layer requirement of one status array within one pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayDep {
    /// Per grid axis: `[layers needed from lower neighbor, from upper]`.
    pub ghost: Vec<[u64; 2]>,
    /// True if accesses could not be decoded; the ghost widths are then
    /// the conservative default distance in every direction.
    pub opaque: bool,
}

impl ArrayDep {
    /// Merge another requirement into this one (pointwise max).
    pub fn merge(&mut self, other: &ArrayDep) {
        self.opaque |= other.opaque;
        for (g, o) in self.ghost.iter_mut().zip(&other.ghost) {
            g[0] = g[0].max(o[0]);
            g[1] = g[1].max(o[1]);
        }
    }
}

/// One element of `S_LDP`: a dependent (A-type, R-type) field-loop pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopDepPair {
    /// The assigning (A-type or C-type) field loop.
    pub l_a: LoopId,
    /// The referencing (R-type or C-type) field loop.
    pub l_r: LoopId,
    /// True if `l_r` precedes `l_a` in program order: the dependence is
    /// carried by an enclosing iteration (frame) loop, and the
    /// synchronization point belongs after `l_a` for the *next* frame.
    pub wraps: bool,
    /// Per-array ghost requirements ("complete dependent information").
    pub deps: BTreeMap<String, ArrayDep>,
}

impl LoopDepPair {
    /// True if this is a self-dependent field loop (Figure 3): the A-type
    /// and R-type loop are the same loop.
    pub fn is_self_dependent(&self) -> bool {
        self.l_a == self.l_r
    }
}

/// The complete dependency-pair set of one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sldp {
    /// Unit name.
    pub unit: String,
    /// All dependency pairs, ordered by (l_a, l_r).
    pub pairs: Vec<LoopDepPair>,
}

impl Sldp {
    /// Pairs that are *not* self-dependent (need inter-loop sync points).
    pub fn sync_pairs(&self) -> impl Iterator<Item = &LoopDepPair> {
        self.pairs.iter().filter(|p| !p.is_self_dependent())
    }

    /// Self-dependent pairs (handled by mirror-image decomposition, §4.2).
    pub fn self_pairs(&self) -> impl Iterator<Item = &LoopDepPair> {
        self.pairs.iter().filter(|p| p.is_self_dependent())
    }
}

/// Build `S_LDP` for `unit` against the partition's `cut_axes` (axes with
/// more than one part). `default_distance` is the `!$acf distance`
/// fallback used for opaque accesses.
pub fn analyze_unit(
    ir: &ProgramIr,
    unit: &UnitIr,
    cut_axes: &[usize],
    default_distance: u64,
) -> Sldp {
    let rank = ir.grid_rank();
    let mut pairs: BTreeMap<(LoopId, LoopId), LoopDepPair> = BTreeMap::new();

    for array in ir.status_arrays.keys() {
        // Field roots that write / read this array.
        let writers: Vec<LoopId> = unit
            .field_roots()
            .filter(|l| classify(unit, l.id, array).writes())
            .map(|l| l.id)
            .collect();
        let readers: Vec<LoopId> = unit
            .field_roots()
            .filter(|l| classify(unit, l.id, array).reads())
            .map(|l| l.id)
            .collect();

        for &l_a in &writers {
            for &l_r in &readers {
                let stencil = loop_stencil(ir, unit, l_r, array);
                let write_shifted = has_shifted_writes(ir, unit, l_a, array);
                let opaque = stencil.has_opaque || write_shifted;
                if !opaque && !cut_axes.iter().any(|&a| stencil.crosses(a)) {
                    continue; // never crosses a demarcation line
                }
                let dep = array_dep(&stencil, rank, cut_axes, default_distance, opaque);
                let order = |l: LoopId| unit.stmt_order[&unit.loop_info(l).stmt];
                let wraps = order(l_r) < order(l_a);
                pairs
                    .entry((l_a, l_r))
                    .and_modify(|p| {
                        p.deps
                            .entry(array.clone())
                            .and_modify(|d| d.merge(&dep))
                            .or_insert_with(|| dep.clone());
                    })
                    .or_insert_with(|| LoopDepPair {
                        l_a,
                        l_r,
                        wraps,
                        deps: BTreeMap::from([(array.clone(), dep.clone())]),
                    });
            }
        }
    }

    Sldp {
        unit: unit.name.clone(),
        pairs: pairs.into_values().collect(),
    }
}

/// Whether `l_a` writes `array` at a non-center status-dimension offset
/// (rare; forces conservative treatment).
fn has_shifted_writes(ir: &ProgramIr, unit: &UnitIr, l_a: LoopId, array: &str) -> bool {
    let info = match ir.status_arrays.get(array) {
        Some(i) => i,
        None => return false,
    };
    unit.accesses_in_loop(l_a, array)
        .filter(|a| a.is_assign)
        .any(|a| {
            a.patterns.iter().enumerate().any(|(d, p)| {
                info.dim_axis.get(d).copied().flatten().is_some()
                    && match p {
                        autocfd_ir::IndexPattern::LoopVar { offset, .. } => *offset != 0,
                        autocfd_ir::IndexPattern::Constant(_) => false, // boundary write
                        _ => true,
                    }
            })
        })
}

fn array_dep(
    stencil: &Stencil,
    rank: usize,
    cut_axes: &[usize],
    default_distance: u64,
    opaque: bool,
) -> ArrayDep {
    let mut ghost = vec![[0u64; 2]; rank];
    for &a in cut_axes {
        ghost[a] = if opaque {
            [default_distance, default_distance]
        } else {
            stencil.ghost(a)
        };
    }
    ArrayDep { ghost, opaque }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;
    use autocfd_ir::build_ir;

    fn ir_of(src: &str) -> ProgramIr {
        build_ir(parse(src).unwrap()).unwrap()
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
    fn jacobi_pairs_cut_x() {
        let ir = ir_of(JACOBI);
        let s = analyze_unit(&ir, &ir.units[0], &[0], 1);
        // Sweep1 assigns vn reading v; sweep2 assigns v reading vn.
        // Pairs: (sweep2 writes v, sweep1 reads v) — wraps (v written in
        // sweep2 is read by sweep1 of the NEXT frame);
        // (sweep1 writes vn, sweep2 reads vn) — but vn is read at center
        // only, which never crosses a cut → no pair.
        assert_eq!(s.pairs.len(), 1);
        let p = &s.pairs[0];
        assert!(p.wraps);
        assert!(p.deps.contains_key("v"));
        assert_eq!(p.deps["v"].ghost[0], [1, 1]);
        assert_eq!(p.deps["v"].ghost[1], [0, 0]); // axis 1 not cut
    }

    #[test]
    fn jacobi_pairs_cut_both() {
        let ir = ir_of(JACOBI);
        let s = analyze_unit(&ir, &ir.units[0], &[0, 1], 1);
        assert_eq!(s.pairs.len(), 1);
        assert_eq!(s.pairs[0].deps["v"].ghost, vec![[1, 1], [1, 1]]);
    }

    #[test]
    fn no_cut_no_pairs() {
        let ir = ir_of(JACOBI);
        let s = analyze_unit(&ir, &ir.units[0], &[], 1);
        assert!(s.pairs.is_empty());
    }

    #[test]
    fn center_only_copy_generates_no_pair() {
        // A loop that copies at the center never communicates.
        let ir = ir_of(
            "
!$acf grid(50,50)
!$acf status a, b
      program p
      real a(50,50), b(50,50)
      integer i, j
      do i = 1, 50
        do j = 1, 50
          a(i,j) = 1.0
        end do
      end do
      do i = 1, 50
        do j = 1, 50
          b(i,j) = a(i,j)
        end do
      end do
      end
",
        );
        let s = analyze_unit(&ir, &ir.units[0], &[0, 1], 1);
        assert!(s.pairs.is_empty());
    }

    #[test]
    fn self_dependent_pair_detected() {
        let ir = ir_of(
            "
!$acf grid(50,50)
!$acf status v
      program gs
      real v(50,50)
      integer i, j
      do i = 2, 49
        do j = 2, 49
          v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
        end do
      end do
      end
",
        );
        let s = analyze_unit(&ir, &ir.units[0], &[0], 1);
        assert_eq!(s.pairs.len(), 1);
        assert!(s.pairs[0].is_self_dependent());
        assert_eq!(s.self_pairs().count(), 1);
        assert_eq!(s.sync_pairs().count(), 0);
    }

    #[test]
    fn forward_pair_not_wrapping() {
        let ir = ir_of(
            "
!$acf grid(50,50)
!$acf status a, b
      program p
      real a(50,50), b(50,50)
      integer i, j
      do i = 1, 50
        do j = 1, 50
          a(i,j) = 1.0
        end do
      end do
      do i = 2, 49
        do j = 1, 50
          b(i,j) = a(i-1,j) + a(i+1,j)
        end do
      end do
      end
",
        );
        let s = analyze_unit(&ir, &ir.units[0], &[0], 1);
        assert_eq!(s.pairs.len(), 1);
        assert!(!s.pairs[0].wraps);
        assert!(!s.pairs[0].is_self_dependent());
    }

    #[test]
    fn multiple_arrays_merge_into_one_pair() {
        // §4.2 case 1: multiple status arrays in one field loop pair.
        let ir = ir_of(
            "
!$acf grid(50,50)
!$acf status u, v, w
      program p
      real u(50,50), v(50,50), w(50,50)
      integer i, j
      do i = 1, 50
        do j = 1, 50
          u(i,j) = 1.0
          v(i,j) = 2.0
        end do
      end do
      do i = 2, 49
        do j = 1, 50
          w(i,j) = u(i-1,j) + v(i+1,j) + v(i-2,j)
        end do
      end do
      end
",
        );
        let s = analyze_unit(&ir, &ir.units[0], &[0], 1);
        assert_eq!(s.pairs.len(), 1, "one loop pair with two dependent arrays");
        let p = &s.pairs[0];
        assert_eq!(p.deps.len(), 2);
        assert_eq!(p.deps["u"].ghost[0], [1, 0]);
        assert_eq!(p.deps["v"].ghost[0], [2, 1]);
    }

    #[test]
    fn opaque_access_uses_default_distance() {
        let ir = ir_of(
            "
!$acf grid(50,50)
!$acf status a, b
      program p
      real a(50,50), b(50,50)
      integer i, j, m
      do i = 1, 50
        do j = 1, 50
          a(i,j) = 1.0
        end do
      end do
      do i = 1, 50
        do j = 1, 50
          b(i,j) = a(m, j)
        end do
      end do
      end
",
        );
        let s = analyze_unit(&ir, &ir.units[0], &[0], 2);
        assert_eq!(s.pairs.len(), 1);
        let d = &s.pairs[0].deps["a"];
        assert!(d.opaque);
        assert_eq!(d.ghost[0], [2, 2]);
    }

    #[test]
    fn array_dep_merge_takes_max() {
        let mut a = ArrayDep {
            ghost: vec![[1, 0], [0, 0]],
            opaque: false,
        };
        let b = ArrayDep {
            ghost: vec![[0, 2], [1, 1]],
            opaque: true,
        };
        a.merge(&b);
        assert_eq!(a.ghost, vec![[1, 2], [1, 1]]);
        assert!(a.opaque);
    }
}
