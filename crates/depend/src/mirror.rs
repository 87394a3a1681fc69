//! Mirror-image decomposition — §4.2 and Figures 3–4 of the paper.
//!
//! A self-dependent field loop (Fig 3) reads the array it writes. The
//! paper's method "first decomposes a dependency graph of a program into
//! subgraphs based on the access direction of status arrays. Then
//! traditional techniques of wavefront, or pipelining are applied to
//! subgraphs." Across one cut axis, every read of the loop is either
//! *behind* the sweep (the sequential loop has already updated that
//! layer) or *ahead* of it (not yet updated):
//!
//! * reads behind the sweep form the **forward subgraph** and become a
//!   *pipeline*: a subtask receives the freshly-updated boundary layers
//!   from the neighbour the sweep comes from before sweeping its own
//!   subgrid. Fig 3(a), whose reads are all behind, is this half alone —
//!   its wavefront is realised as the same pipeline across subgrids;
//! * reads ahead of the sweep form the **mirror subgraph** and are
//!   satisfied by exchanging the *pre-sweep* layers of the neighbour the
//!   sweep goes towards — exactly what the sequential loop reads there —
//!   so they cost a communication but no serialisation.
//!
//! For an ascending sweep "behind" is the lower neighbour, for a
//! descending sweep the upper one. Executing "old-value exchange, then
//! forward pipeline" is exactly the sequential loop (pinned bit-exact by
//! the interpreter suites), while only the forward half serialises
//! subtasks — which is why the paper's case study 1 sees muted speedups
//! (§6.2).

use crate::stencil::Stencil;
use serde::{Deserialize, Serialize};

/// One boundary-slab transfer obligation of a self-dependent loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipeStep {
    /// Grid axis of the transfer.
    pub axis: usize,
    /// Where the incoming data comes from: −1 = lower neighbor, +1 = upper.
    pub dir: i32,
    /// Slab width in grid layers (the dependency distance).
    pub width: u64,
}

/// The decomposition of one array of one self-dependent loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorDecomposition {
    /// Forward-subgraph obligations: receive *updated* layers before
    /// computing (serializing pipeline dependences).
    pub forward: Vec<PipeStep>,
    /// Mirror-subgraph obligations: receive *old* (pre-sweep) layers
    /// before computing (pure communication, no serialization).
    pub mirror: Vec<PipeStep>,
}

/// Why a self-dependent loop cannot be decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecomposeError {
    /// The loop reads the array at undecodable subscripts.
    Opaque,
    /// The stencil crosses cut `axis` but the sweep direction along it is
    /// unknown.
    UnknownSweep {
        /// The crossed cut axis.
        axis: usize,
    },
}

/// Decompose one array of a self-dependent loop: its reference `stencil`,
/// the partition's `cut_axes`, and `sweep(axis)`, the sign of the loop's
/// step along each crossed cut axis (`None` when unknown). Returns
/// `Ok(None)` when no reference crosses a cut.
///
/// ```
/// use autocfd_depend::{mirror_decompose, PipeStep, Stencil};
/// use std::collections::BTreeSet;
/// // Fig 3(b): v(i,j) from v(i±1,j) and v(i,j±1), cut on axis 0 only
/// let fig3b = Stencil {
///     array: "v".into(),
///     offsets: vec![BTreeSet::from([-1, 0, 1]); 2],
///     has_opaque: false,
///     has_boundary: false,
/// };
/// let step = |dir| PipeStep { axis: 0, dir, width: 1 };
/// // ascending sweep: updated layers from below, old ones from above
/// let d = mirror_decompose(&fig3b, &[0], |_| Some(1)).unwrap().unwrap();
/// assert_eq!((d.forward, d.mirror), (vec![step(-1)], vec![step(1)]));
/// // descending sweep: the two directions trade places
/// let d = mirror_decompose(&fig3b, &[0], |_| Some(-1)).unwrap().unwrap();
/// assert_eq!((d.forward, d.mirror), (vec![step(1)], vec![step(-1)]));
/// ```
pub fn mirror_decompose(
    stencil: &Stencil,
    cut_axes: &[usize],
    sweep: impl Fn(usize) -> Option<i64>,
) -> Result<Option<MirrorDecomposition>, DecomposeError> {
    if stencil.has_opaque {
        return Err(DecomposeError::Opaque);
    }
    let mut forward = Vec::new();
    let mut mirror = Vec::new();
    for &axis in cut_axes {
        let [low, high] = stencil.ghost(axis);
        if low == 0 && high == 0 {
            continue;
        }
        let sign = sweep(axis).ok_or(DecomposeError::UnknownSweep { axis })?;
        // (layers behind the sweep, the side they come from), then ahead
        let (behind, ahead) = if sign < 0 {
            ((high, 1), (low, -1))
        } else {
            ((low, -1), (high, 1))
        };
        for ((width, dir), steps) in [(behind, &mut forward), (ahead, &mut mirror)] {
            if width > 0 {
                steps.push(PipeStep { axis, dir, width });
            }
        }
    }
    Ok((!forward.is_empty() || !mirror.is_empty())
        .then_some(MirrorDecomposition { forward, mirror }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_fortran::parse;
    use autocfd_ir::build_ir;

    /// The stencil of `v` in the program's first field loop.
    fn stencil_of(src: &str) -> Stencil {
        let ir = build_ir(parse(src).unwrap()).unwrap();
        let u = &ir.units[0];
        let root = u.field_roots().next().expect("field root").id;
        crate::stencil::loop_stencil(&ir, u, root, "v")
    }

    /// A stencil with the given reference offsets per axis.
    fn offsets(per_axis: &[&[i64]]) -> Stencil {
        Stencil {
            array: "v".into(),
            offsets: per_axis
                .iter()
                .map(|o| o.iter().copied().collect())
                .collect(),
            has_opaque: false,
            has_boundary: false,
        }
    }

    fn step(axis: usize, dir: i32, width: u64) -> PipeStep {
        PipeStep { axis, dir, width }
    }

    /// `(forward, mirror)` with every crossed axis swept in direction `sign`.
    fn decompose(st: &Stencil, cut_axes: &[usize], sign: i64) -> (Vec<PipeStep>, Vec<PipeStep>) {
        let d = mirror_decompose(st, cut_axes, |_| Some(sign))
            .unwrap()
            .expect("crosses a cut");
        (d.forward, d.mirror)
    }

    /// Figure 3(b): a Gauss–Seidel sweep reads both sides of every cut.
    const FIG3B: &str = "
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
        let st = stencil_of(FIG3B);
        assert_eq!(
            decompose(&st, &[0], 1),
            (vec![step(0, -1, 1)], vec![step(0, 1, 1)])
        );
    }

    #[test]
    fn mirror_decompose_fig3b_two_axes() {
        let st = stencil_of(FIG3B);
        assert_eq!(
            decompose(&st, &[0, 1], 1),
            (
                vec![step(0, -1, 1), step(1, -1, 1)],
                vec![step(0, 1, 1), step(1, 1, 1)]
            )
        );
    }

    /// Figure 3(a), `v(i,j) = v(i-1,j) + v(i,j-1)`: every read is behind
    /// an ascending sweep, on both axes.
    #[test]
    fn forward_only_loop_has_empty_mirror() {
        let st = offsets(&[&[-1, 0], &[-1, 0]]);
        let fwd = vec![step(0, -1, 1), step(1, -1, 1)];
        assert_eq!(decompose(&st, &[0, 1], 1), (fwd, vec![]));
        assert_eq!(decompose(&st, &[0], 1), (vec![step(0, -1, 1)], vec![]));
    }

    /// An ascending loop that only reads ahead (`v(i,j) = v(i+1,j)`) needs
    /// old values only: no pipeline at all.
    #[test]
    fn backward_only_loop_is_mirror_only() {
        let st = offsets(&[&[1], &[0]]);
        assert_eq!(decompose(&st, &[0], 1), (vec![], vec![step(0, 1, 1)]));
    }

    /// The same loop swept downwards (a back-substitution): `i+1` is now
    /// behind the sweep, so it pipelines from the upper neighbour.
    #[test]
    fn descending_read_ahead_loop_is_forward_only() {
        let st = offsets(&[&[1], &[0]]);
        assert_eq!(decompose(&st, &[0], -1), (vec![step(0, 1, 1)], vec![]));
    }

    /// Per crossed axis, a descending sweep takes its forward step from the
    /// upper neighbour and its mirror step from the lower one; the axes'
    /// directions are independent.
    #[test]
    fn descending_sweeps_flip_per_axis() {
        let st = stencil_of(FIG3B);
        assert_eq!(
            decompose(&st, &[0, 1], -1),
            (
                vec![step(0, 1, 1), step(1, 1, 1)],
                vec![step(0, -1, 1), step(1, -1, 1)]
            )
        );
        let down_i = |a| Some(if a == 0 { -1 } else { 1 });
        let d = mirror_decompose(&st, &[0, 1], down_i).unwrap().unwrap();
        assert_eq!(d.forward, vec![step(0, 1, 1), step(1, -1, 1)]);
        assert_eq!(d.mirror, vec![step(0, -1, 1), step(1, 1, 1)]);
    }

    /// §4.2 case 5: the widths are the dependency distances per side.
    #[test]
    fn distance_two_widths() {
        let st = offsets(&[&[-2, 0, 1], &[0]]);
        assert_eq!(
            decompose(&st, &[0], 1),
            (vec![step(0, -1, 2)], vec![step(0, 1, 1)])
        );
        assert_eq!(
            decompose(&st, &[0], -1),
            (vec![step(0, 1, 1)], vec![step(0, -1, 2)])
        );
    }

    /// Partitioning first makes dependences along uncut axes free: they
    /// produce no steps, and their sweep direction is never asked for.
    #[test]
    fn uncut_axes_contribute_nothing() {
        assert_eq!(
            mirror_decompose(&stencil_of(FIG3B), &[], |_| None),
            Ok(None)
        );
        let st = offsets(&[&[0], &[-1]]);
        let only_axis_1 = |a| (a == 1).then_some(1);
        assert_eq!(mirror_decompose(&st, &[0], only_axis_1), Ok(None));
        let d = mirror_decompose(&st, &[0, 1], only_axis_1)
            .unwrap()
            .unwrap();
        assert_eq!((d.forward, d.mirror), (vec![step(1, -1, 1)], vec![]));
    }

    /// Behind on axis 0, ahead on axis 1: each axis splits on its own.
    #[test]
    fn mixed_axes_split_per_axis() {
        let st = offsets(&[&[-1, 0], &[0, 1]]);
        assert_eq!(
            decompose(&st, &[0, 1], 1),
            (vec![step(0, -1, 1)], vec![step(1, 1, 1)])
        );
        assert_eq!(decompose(&st, &[1], 1), (vec![], vec![step(1, 1, 1)]));
    }

    #[test]
    fn crossed_axis_without_a_known_sweep_is_refused() {
        let st = stencil_of(FIG3B);
        let sweep = |a| (a == 1).then_some(1);
        assert_eq!(
            mirror_decompose(&st, &[0, 1], sweep),
            Err(DecomposeError::UnknownSweep { axis: 0 })
        );
        assert!(mirror_decompose(&st, &[1], sweep).is_ok());
    }

    #[test]
    fn opaque_stencil_is_refused() {
        let st = Stencil {
            has_opaque: true,
            ..offsets(&[&[0], &[0]])
        };
        assert_eq!(
            mirror_decompose(&st, &[0], |_| Some(1)),
            Err(DecomposeError::Opaque)
        );
    }
}
