//! Self-dependent field loops of Figure 3, end to end from Fortran source:
//! `S_LDP` finds the loop as a self-pair exactly when its reads cross a
//! cut, and [`mirror_decompose`](crate::mirror_decompose) splits that
//! loop's stencil into its forward and mirror halves.

#[cfg(test)]
mod tests {
    use crate::{analyze_unit, loop_stencil, mirror_decompose, PipeStep};
    use autocfd_fortran::parse;
    use autocfd_ir::build_ir;

    type Halves = (Vec<PipeStep>, Vec<PipeStep>);

    /// For the program's one field loop over `v`, cut on `cut_axes` and
    /// swept in direction `sign`: `None` when `S_LDP` holds no pair for it,
    /// else its `(forward, mirror)` steps. Asserts that `S_LDP` and the
    /// decomposition agree on whether the loop crosses a cut at all.
    fn self_dependence(src: &str, cut_axes: &[usize], sign: i64) -> Option<Halves> {
        let ir = build_ir(parse(src).unwrap()).unwrap();
        let u = &ir.units[0];
        let root = u.field_roots().next().expect("field root").id;
        let sldp = analyze_unit(&ir, u, cut_axes, 1);
        let st = loop_stencil(&ir, u, root, "v");
        let d = mirror_decompose(&st, cut_axes, |_| Some(sign)).unwrap();
        assert_eq!(sldp.pairs.len(), usize::from(d.is_some()));
        assert_eq!(sldp.self_pairs().count(), sldp.pairs.len());
        d.map(|d| (d.forward, d.mirror))
    }

    fn step(axis: usize, dir: i32, width: u64) -> PipeStep {
        PipeStep { axis, dir, width }
    }

    /// Figure 3(a): forward-only self-dependence — a pipeline, no mirror.
    #[test]
    fn selfdep_fig3a_wavefront() {
        let src = "
!$acf grid(40,40)
!$acf status v
      program f3a
      real v(40,40)
      integer i, j
      do i = 2, 40
        do j = 2, 40
          v(i,j) = v(i-1,j) + v(i,j-1)
        end do
      end do
      end
";
        assert_eq!(
            self_dependence(src, &[0, 1], 1),
            Some((vec![step(0, -1, 1), step(1, -1, 1)], vec![]))
        );
        assert_eq!(
            self_dependence(src, &[0], 1),
            Some((vec![step(0, -1, 1)], vec![]))
        );
    }

    /// Figure 3(b): reads on both sides of every cut — both halves.
    #[test]
    fn selfdep_fig3b_mirror() {
        let src = "
!$acf grid(40,40)
!$acf status v
      program f3b
      real v(40,40)
      integer i, j
      do i = 2, 39
        do j = 2, 39
          v(i,j) = 0.25*(v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
        end do
      end do
      end
";
        assert_eq!(
            self_dependence(src, &[0], 1),
            Some((vec![step(0, -1, 1)], vec![step(0, 1, 1)]))
        );
        assert_eq!(
            self_dependence(src, &[0, 1], 1),
            Some((
                vec![step(0, -1, 1), step(1, -1, 1)],
                vec![step(0, 1, 1), step(1, 1, 1)]
            ))
        );
    }

    /// A loop reading only ahead of its ascending sweep needs old values
    /// alone; the reverse sweep turns the same reads into a pipeline from
    /// the upper neighbour.
    #[test]
    fn backward_only_reverse_sweep() {
        let src = "
!$acf grid(40,40)
!$acf status v
      program back
      real v(40,40)
      integer i, j
      do i = 1, 39
        do j = 1, 40
          v(i,j) = v(i+1,j) * 0.5
        end do
      end do
      end
";
        assert_eq!(
            self_dependence(src, &[0], 1),
            Some((vec![], vec![step(0, 1, 1)]))
        );
        assert_eq!(
            self_dependence(src, &[0], -1),
            Some((vec![step(0, 1, 1)], vec![]))
        );
    }

    /// Self-dependence only along axis 1: with only axis 0 cut the loop is
    /// no self-pair at all — partitioning first makes it free.
    #[test]
    fn uncut_axis_dependences_are_invisible() {
        let src = "
!$acf grid(40,40)
!$acf status v
      program p
      real v(40,40)
      integer i, j
      do i = 1, 40
        do j = 2, 40
          v(i,j) = v(i,j-1)
        end do
      end do
      end
";
        assert_eq!(self_dependence(src, &[0], 1), None);
        assert_eq!(
            self_dependence(src, &[1], 1),
            Some((vec![step(1, -1, 1)], vec![]))
        );
    }
}
