//! Field-loop classification (§2, Figure 1 of the paper).
//!
//! For each status array `v`, a field loop is one of:
//!
//! * **A-type** (assignment-only): the loop assigns `v` but never reads it,
//! * **R-type** (reference-only): the loop reads `v` but never assigns it,
//! * **C-type** (combined): the loop both assigns and reads `v`,
//! * **O-type** (unrelated): the loop does not touch `v` at all.
//!
//! Classification is with respect to the *whole loop nest* (the loop and
//! everything inside it), matching Figure 1's two-level examples.

use crate::model::{LoopId, UnitIr};
use serde::{Deserialize, Serialize};

/// The four loop types of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopClass {
    /// Assignment-only (Fig 1a).
    AType,
    /// Reference-only (Fig 1b).
    RType,
    /// Combined assignment and reference (Fig 1c).
    CType,
    /// Unrelated (Fig 1d).
    OType,
}

impl std::fmt::Display for LoopClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LoopClass::AType => "A",
            LoopClass::RType => "R",
            LoopClass::CType => "C",
            LoopClass::OType => "O",
        };
        f.write_str(s)
    }
}

impl LoopClass {
    /// True if the loop writes the array (A or C).
    pub fn writes(self) -> bool {
        matches!(self, LoopClass::AType | LoopClass::CType)
    }

    /// True if the loop reads the array (R or C).
    pub fn reads(self) -> bool {
        matches!(self, LoopClass::RType | LoopClass::CType)
    }
}

/// Classify loop `id` with respect to status array `array` (Figure 1).
pub fn classify(unit: &UnitIr, id: LoopId, array: &str) -> LoopClass {
    let info = unit.loop_info(id);
    match (
        info.assigned.contains(array),
        info.referenced.contains(array),
    ) {
        (true, true) => LoopClass::CType,
        (true, false) => LoopClass::AType,
        (false, true) => LoopClass::RType,
        (false, false) => LoopClass::OType,
    }
}

/// All status arrays for which loop `id` is A- or C-type (it writes them).
#[cfg(test)]
fn written_arrays(unit: &UnitIr, id: LoopId) -> Vec<String> {
    unit.loop_info(id).assigned.iter().cloned().collect()
}

/// All status arrays for which loop `id` is R- or C-type (it reads them).
#[cfg(test)]
fn read_arrays(unit: &UnitIr, id: LoopId) -> Vec<String> {
    unit.loop_info(id).referenced.iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ir;
    use autocfd_fortran::parse;

    /// Figure 1 of the paper, transliterated: one loop of each type over
    /// status array `v`.
    const FIG1: &str = "
!$acf grid(20, 20)
!$acf status v, w
      program fig1
      real v(20,20), w(20,20)
      integer i, j
c     (a) A-type: assignment-only
      do i = 1, 20
        do j = 1, 20
          v(i,j) = 1.0
        end do
      end do
c     (b) R-type: reference-only
      do i = 2, 19
        do j = 2, 19
          w(i,j) = v(i-1,j) + v(i+1,j)
        end do
      end do
c     (c) C-type: combined
      do i = 2, 19
        do j = 2, 19
          v(i,j) = v(i-1,j-1) * 0.5
        end do
      end do
c     (d) O-type: unrelated
      do i = 1, 20
        do j = 1, 20
          w(i,j) = 0.0
        end do
      end do
      end
";

    #[test]
    fn classify_fig1_all_four_types() {
        let p = build_ir(parse(FIG1).unwrap()).unwrap();
        let u = &p.units[0];
        let roots: Vec<_> = u.root_loops.clone();
        assert_eq!(roots.len(), 4);
        assert_eq!(classify(u, roots[0], "v"), LoopClass::AType);
        assert_eq!(classify(u, roots[1], "v"), LoopClass::RType);
        assert_eq!(classify(u, roots[2], "v"), LoopClass::CType);
        assert_eq!(classify(u, roots[3], "v"), LoopClass::OType);
    }

    #[test]
    fn classification_is_per_array() {
        let p = build_ir(parse(FIG1).unwrap()).unwrap();
        let u = &p.units[0];
        let roots = u.root_loops.clone();
        // loop (b) writes w while reading v
        assert_eq!(classify(u, roots[1], "w"), LoopClass::AType);
        // loop (d) is A-type for w, O-type for v
        assert_eq!(classify(u, roots[3], "w"), LoopClass::AType);
    }

    #[test]
    fn reads_writes_predicates() {
        assert!(LoopClass::AType.writes());
        assert!(!LoopClass::AType.reads());
        assert!(LoopClass::CType.writes());
        assert!(LoopClass::CType.reads());
        assert!(LoopClass::RType.reads());
        assert!(!LoopClass::OType.reads() && !LoopClass::OType.writes());
    }

    #[test]
    fn display_letters() {
        assert_eq!(LoopClass::AType.to_string(), "A");
        assert_eq!(LoopClass::OType.to_string(), "O");
    }

    #[test]
    fn written_read_arrays_lists() {
        let p = build_ir(parse(FIG1).unwrap()).unwrap();
        let u = &p.units[0];
        let roots = u.root_loops.clone();
        assert_eq!(written_arrays(u, roots[2]), vec!["v".to_string()]);
        assert_eq!(read_arrays(u, roots[1]), vec!["v".to_string()]);
    }
}
