//! Loop relations — Definitions 6.1–6.4 of the paper (§5.1).
//!
//! With `L = <index, S>` and the extended loop body `S* = {S_s} ∪ S ∪ {S_e}`:
//!
//! * **Def 6.1** (inner/outer): `L2 ⊂ L1` iff `S2* ⊂ S1*` — here, iff `L2`
//!   is strictly nested inside `L1`.
//! * **Def 6.2** (direct inner/outer): `L1 ⊢ L2` iff `L2 ⊂ L1` with no
//!   loop strictly between them.
//! * **Def 6.3** (adjacent): `L1 ∥ L2` iff both have no outer loop, or
//!   both have the *same* direct outer loop.
//! * **Def 6.4** (simple): `L` is simple iff no two loops inside `L` are
//!   adjacent — i.e. `L`'s interior loop structure is a single chain.

use crate::model::{LoopId, UnitIr};

/// Def 6.1 — `inner ⊂ outer`: strictly nested (any depth).
fn is_inner(unit: &UnitIr, inner: LoopId, outer: LoopId) -> bool {
    inner != outer && unit.is_in_loop(inner, outer)
}

/// Def 6.2 — `outer ⊢ inner`: directly nested.
fn is_direct_inner(unit: &UnitIr, inner: LoopId, outer: LoopId) -> bool {
    unit.loop_info(inner).parent == Some(outer)
}

/// Def 6.2 — the direct outer loop of `id`, if any.
fn direct_outer(unit: &UnitIr, id: LoopId) -> Option<LoopId> {
    unit.loop_info(id).parent
}

/// Def 6.3 — `a ∥ b`: adjacent loops (same direct outer loop, or both
/// top-level). A loop is not adjacent to itself.
fn is_adjacent(unit: &UnitIr, a: LoopId, b: LoopId) -> bool {
    a != b && unit.loop_info(a).parent == unit.loop_info(b).parent
}

/// Def 6.4 — `L` is a simple loop: no pair of adjacent loops inside it.
/// Equivalently, every loop in `L`'s nest (including `L`) has at most one
/// direct inner loop.
fn is_simple(unit: &UnitIr, id: LoopId) -> bool {
    fn chain(unit: &UnitIr, id: LoopId) -> bool {
        let ch = &unit.loop_info(id).children;
        match ch.len() {
            0 => true,
            1 => chain(unit, ch[0]),
            _ => false,
        }
    }
    chain(unit, id)
}

/// The chain of loops from `id` outward to its outermost enclosing loop
/// (starting with `id` itself).
fn outward_chain(unit: &UnitIr, id: LoopId) -> Vec<LoopId> {
    let mut out = vec![id];
    let mut cur = unit.loop_info(id).parent;
    while let Some(p) = cur {
        out.push(p);
        cur = unit.loop_info(p).parent;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ir;
    use autocfd_fortran::parse;

    /// L0(i) { L1(j) { L2(k) } ; L3(m) } ; L4(n)
    const NEST: &str = "
!$acf grid(10, 10)
!$acf status v
      program nest
      real v(10,10)
      integer i, j, k, m, n
      do i = 1, 10
        do j = 1, 10
          do k = 1, 10
            v(1,1) = v(1,1) + 1.0
          end do
        end do
        do m = 1, 10
          x = m
        end do
      end do
      do n = 1, 10
        y = n
      end do
      end
";

    fn unit() -> crate::model::UnitIr {
        let p = build_ir(parse(NEST).unwrap()).unwrap();
        p.units[0].clone()
    }

    #[test]
    fn inner_relation() {
        let u = unit();
        let (l0, l1, l2, l3, l4) = (LoopId(0), LoopId(1), LoopId(2), LoopId(3), LoopId(4));
        assert!(is_inner(&u, l1, l0));
        assert!(is_inner(&u, l2, l0)); // transitive
        assert!(is_inner(&u, l2, l1));
        assert!(is_inner(&u, l3, l0));
        assert!(!is_inner(&u, l0, l0)); // strict
        assert!(!is_inner(&u, l0, l1));
        assert!(!is_inner(&u, l4, l0));
    }

    #[test]
    fn direct_inner_relation() {
        let u = unit();
        assert!(is_direct_inner(&u, LoopId(1), LoopId(0)));
        assert!(is_direct_inner(&u, LoopId(2), LoopId(1)));
        assert!(!is_direct_inner(&u, LoopId(2), LoopId(0))); // not direct
        assert_eq!(direct_outer(&u, LoopId(2)), Some(LoopId(1)));
        assert_eq!(direct_outer(&u, LoopId(0)), None);
    }

    #[test]
    fn adjacency() {
        let u = unit();
        // l1 and l3 share direct outer l0
        assert!(is_adjacent(&u, LoopId(1), LoopId(3)));
        // l0 and l4 are both top-level
        assert!(is_adjacent(&u, LoopId(0), LoopId(4)));
        // l1 and l2 are nested, not adjacent
        assert!(!is_adjacent(&u, LoopId(1), LoopId(2)));
        // not self-adjacent
        assert!(!is_adjacent(&u, LoopId(1), LoopId(1)));
    }

    #[test]
    fn simplicity() {
        let u = unit();
        // l0 contains adjacent l1,l3 → not simple
        assert!(!is_simple(&u, LoopId(0)));
        // l1 contains only the k chain → simple
        assert!(is_simple(&u, LoopId(1)));
        assert!(is_simple(&u, LoopId(2)));
        assert!(is_simple(&u, LoopId(4)));
    }

    #[test]
    fn outward_chain_order() {
        let u = unit();
        assert_eq!(
            outward_chain(&u, LoopId(2)),
            vec![LoopId(2), LoopId(1), LoopId(0)]
        );
        assert_eq!(outward_chain(&u, LoopId(4)), vec![LoopId(4)]);
    }
}
