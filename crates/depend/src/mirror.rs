//! Mirror-image decomposition — §4.2 and Figure 4 of the paper.
//!
//! A Fig 3(b)-style self-dependent loop has dependences both along and
//! against the lexicographic order, so neither loop reordering nor a
//! plain wavefront applies. The paper's method "first decomposes a
//! dependency graph of a program into subgraphs based on the access
//! direction of status arrays. Then traditional techniques of wavefront,
//! or pipelining are applied to subgraphs."
//!
//! Operationally (per cut axis of the partition):
//!
//! * the **forward subgraph** (reads at negative offsets = dependences in
//!   lexicographic order) becomes a *pipeline*: each subtask must receive
//!   the freshly-updated boundary layers from its lower neighbor before
//!   sweeping its own subgrid;
//! * the **mirror subgraph** (reads at positive offsets = dependences
//!   against the order) is satisfied by exchanging the *pre-sweep* values
//!   of the upper boundary — exactly what the sequential loop reads at
//!   `i+1` (not yet updated) — so it costs a communication but no
//!   serialization.
//!
//! Executing "old-value exchange, then forward pipeline" is *exactly*
//! equivalent to the sequential loop (verified end-to-end by the
//! interpreter tests), while only the forward component serializes
//! subtasks — which is why the paper's case study 1 sees muted speedups
//! (§6.2).

use crate::stencil::Stencil;
use serde::{Deserialize, Serialize};

/// One boundary transfer obligation of a decomposed self-dependent loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStep {
    /// Cut axis the transfer is along.
    pub axis: usize,
    /// Direction the data comes *from*: −1 = lower neighbor, +1 = upper.
    pub dir: i32,
    /// Number of boundary layers (the dependency distance).
    pub width: u64,
}

/// The decomposition of one self-dependent loop's dependence graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MirrorDecomposition {
    /// Forward-subgraph obligations: receive *updated* layers before
    /// computing (serializing pipeline dependences).
    pub forward: Vec<PipelineStep>,
    /// Mirror-subgraph obligations: receive *old* (pre-sweep) layers
    /// before computing (pure communication, no serialization).
    pub mirror: Vec<PipelineStep>,
}

impl MirrorDecomposition {
    /// True if the forward set is empty — the loop needs no pipelining at
    /// all (only old-value halo exchange).
    #[cfg(test)]
    fn is_fully_parallel(&self) -> bool {
        self.forward.is_empty()
    }

    /// Axes that carry pipeline (serializing) dependences.
    #[cfg(test)]
    fn pipeline_axes(&self) -> Vec<usize> {
        let mut axes: Vec<usize> = self.forward.iter().map(|s| s.axis).collect();
        axes.sort_unstable();
        axes.dedup();
        axes
    }
}

/// Decompose the dependence graph of a self-dependent loop with reference
/// stencil `stencil` over the partition's `cut_axes`.
///
/// ```
/// use autocfd_depend::graph::DepGraph;
/// // the Fig 3(b)/Fig 4 loop: cyclic as a whole, two DAGs when split
/// let g = DepGraph::from_offsets(4, 4, &[(-1, 0), (1, 0), (0, -1), (0, 1)]);
/// assert!(g.has_cycle());
/// let (forward, mirror) = g.mirror_split();
/// assert!(!forward.has_cycle() && !mirror.has_cycle());
/// ```
pub fn mirror_decompose(stencil: &Stencil, cut_axes: &[usize]) -> MirrorDecomposition {
    let mut forward = Vec::new();
    let mut mirror = Vec::new();
    for &axis in cut_axes {
        let [low, high] = stencil.ghost(axis);
        // reads at negative offsets (from lower neighbor) are forward
        // dependences: need *updated* values → pipeline.
        if low > 0 {
            forward.push(PipelineStep {
                axis,
                dir: -1,
                width: low,
            });
        }
        // reads at positive offsets are mirror dependences: need *old*
        // values from the upper neighbor.
        if high > 0 {
            mirror.push(PipelineStep {
                axis,
                dir: 1,
                width: high,
            });
        }
    }
    MirrorDecomposition { forward, mirror }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;
    use autocfd_ir::{build_ir, ProgramIr};

    fn stencil_of(src: &str, array: &str) -> Stencil {
        let ir: ProgramIr = build_ir(parse(src).unwrap()).unwrap();
        let u = &ir.units[0];
        let root = u.field_roots().next().expect("field root").id;
        crate::stencil::loop_stencil(&ir, u, root, array)
    }

    const GAUSS_SEIDEL: &str = "
!$acf grid(40,40)
!$acf status v
      program gs
      real v(40,40)
      integer i, j
      do i = 2, 39
        do j = 2, 39
          v(i,j) = 0.25*(v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
        end do
      end do
      end
";

    #[test]
    fn mirror_decompose_fig3b_one_axis() {
        let st = stencil_of(GAUSS_SEIDEL, "v");
        let d = mirror_decompose(&st, &[0]);
        assert_eq!(
            d.forward,
            vec![PipelineStep {
                axis: 0,
                dir: -1,
                width: 1
            }]
        );
        assert_eq!(
            d.mirror,
            vec![PipelineStep {
                axis: 0,
                dir: 1,
                width: 1
            }]
        );
        assert!(!d.is_fully_parallel());
        assert_eq!(d.pipeline_axes(), vec![0]);
    }

    #[test]
    fn mirror_decompose_fig3b_two_axes() {
        let st = stencil_of(GAUSS_SEIDEL, "v");
        let d = mirror_decompose(&st, &[0, 1]);
        assert_eq!(d.forward.len(), 2);
        assert_eq!(d.mirror.len(), 2);
        assert_eq!(d.pipeline_axes(), vec![0, 1]);
    }

    #[test]
    fn forward_only_loop_has_empty_mirror() {
        let st = stencil_of(
            "
!$acf grid(40,40)
!$acf status v
      program f
      real v(40,40)
      integer i, j
      do i = 2, 40
        do j = 2, 40
          v(i,j) = v(i-1,j) + v(i,j-1)
        end do
      end do
      end
",
            "v",
        );
        let d = mirror_decompose(&st, &[0, 1]);
        assert!(d.mirror.is_empty());
        assert_eq!(d.forward.len(), 2);
    }

    #[test]
    fn backward_only_loop_is_mirror_only() {
        let st = stencil_of(
            "
!$acf grid(40,40)
!$acf status v
      program b
      real v(40,40)
      integer i, j
      do i = 1, 39
        do j = 1, 40
          v(i,j) = v(i+1,j)
        end do
      end do
      end
",
            "v",
        );
        let d = mirror_decompose(&st, &[0]);
        assert!(d.forward.is_empty());
        assert!(d.is_fully_parallel());
        assert_eq!(
            d.mirror,
            vec![PipelineStep {
                axis: 0,
                dir: 1,
                width: 1
            }]
        );
    }

    #[test]
    fn distance_two_widths() {
        let st = stencil_of(
            "
!$acf grid(40,40)
!$acf status v
      program d2
      real v(40,40)
      integer i, j
      do i = 3, 38
        do j = 1, 40
          v(i,j) = v(i-2,j) + v(i+2,j)
        end do
      end do
      end
",
            "v",
        );
        let d = mirror_decompose(&st, &[0]);
        assert_eq!(d.forward[0].width, 2);
        assert_eq!(d.mirror[0].width, 2);
    }

    #[test]
    fn uncut_axes_contribute_nothing() {
        let st = stencil_of(GAUSS_SEIDEL, "v");
        let d = mirror_decompose(&st, &[]);
        assert!(d.forward.is_empty() && d.mirror.is_empty());
        assert!(d.is_fully_parallel());
    }
}
