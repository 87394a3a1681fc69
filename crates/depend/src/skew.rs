//! Loop skewing and wavefront scheduling — the paper's §4.2 reference
//! for Fig 3(a) loops ("parallelized using a wavefront method or a loop
//! skewing technique [2, 22]", citing Wolfe's *Loop Skewing: The
//! Wavefront Method Revisited*).
//!
//! A self-dependent loop whose dependence distance vectors are all
//! lexicographically positive (e.g. `{(1,0), (0,1)}` for a loop reading
//! `v(i-1,j)` and `v(i,j-1)`) cannot run either loop in parallel
//! directly — but:
//!
//! * **skewing** by factor `f` maps `(i, j) ↦ (i + f·j, j)`; with `f`
//!   large enough every dependence is carried by the (sequential) outer
//!   skewed index, making the inner loop fully parallel;
//! * a **wavefront schedule** executes the iteration space in levels
//!   (anti-diagonals for the classic case): all points of a level are
//!   mutually independent and may run concurrently.
//!
//! Auto-CFD's execution engine realizes wavefronts *across subgrids* as
//! pipelines (see [`crate::mirror`]); this module provides the
//! intra-grid analysis: legality, the minimal skew factor, and explicit
//! wavefront level assignments that tests validate against the
//! dependence graph.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A 2-D dependence distance vector (lexicographic iteration order).
pub type Dist2 = (i64, i64);

/// True if every distance vector is lexicographically positive — the
/// precondition for wavefront/skewing (Fig 3a); a Fig 3(b) loop fails
/// this and needs mirror-image decomposition instead.
pub fn all_lexicographically_positive(dists: &[Dist2]) -> bool {
    dists.iter().all(|&(a, b)| a > 0 || (a == 0 && b > 0))
}

/// The minimal non-negative skew factor `f` such that after
/// `(i, j) ↦ (i + f·j, j)` every dependence vector `(a, b)` becomes
/// `(a + f·b, b)` with strictly positive first component — i.e. the
/// transformed *inner* loop carries no dependence and is parallel.
///
/// Returns `None` when the vectors are not all lexicographically
/// positive (skewing cannot help a Fig 3(b) loop).
pub fn min_skew_factor(dists: &[Dist2]) -> Option<i64> {
    if !all_lexicographically_positive(dists) {
        return None;
    }
    // f must satisfy: for all (a,b): a + f*b >= 1.
    //  - b > 0: any f >= ceil((1-a)/b) — grows the lower bound when a <= 0
    //  - b == 0: a >= 1 already (lexicographic positivity)
    //  - b < 0: f <= (a-1)/(-b) — an upper bound
    let mut lo = 0i64;
    let mut hi = i64::MAX;
    for &(a, b) in dists {
        match b.cmp(&0) {
            std::cmp::Ordering::Greater => {
                let need = (1 - a).div_euclid(b) + i64::from((1 - a).rem_euclid(b) != 0);
                lo = lo.max(need.max(0));
            }
            std::cmp::Ordering::Equal => {
                debug_assert!(a >= 1);
            }
            std::cmp::Ordering::Less => {
                let cap = (a - 1).div_euclid(-b);
                hi = hi.min(cap);
            }
        }
    }
    for &(a, b) in dists {
        if a + lo * b < 1 && b >= 0 {
            return None; // cannot happen for lexicographically positive sets
        }
    }
    if lo <= hi {
        Some(lo)
    } else {
        None
    }
}

/// A wavefront schedule over an `m × n` iteration space: `level[(i,j)]`
/// gives the earliest step at which `(i, j)` may execute; all points
/// sharing a level are independent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WavefrontSchedule {
    /// Extents.
    pub m: i64,
    /// Extents.
    pub n: i64,
    /// Level per point (1-based points).
    pub level: BTreeMap<(i64, i64), u32>,
}

impl WavefrontSchedule {
    /// Number of sequential steps (the critical path + 1).
    pub fn depth(&self) -> u32 {
        self.level.values().copied().max().map_or(0, |v| v + 1)
    }

    /// Points per level, in order — the parallel "waves".
    pub fn waves(&self) -> Vec<Vec<(i64, i64)>> {
        let mut out = vec![Vec::new(); self.depth() as usize];
        for (&p, &l) in &self.level {
            out[l as usize].push(p);
        }
        out
    }

    /// Maximum parallelism (widest wave).
    #[cfg(test)]
    fn max_width(&self) -> usize {
        self.waves().iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Compute the wavefront schedule of a loop with read `offsets` over an
/// `m × n` space: level(p) = 1 + max level of the producers p depends on
/// (longest dependence chain into p). Returns `None` for cyclic (Fig 3b)
/// dependence graphs.
pub fn wavefront_schedule(m: i64, n: i64, offsets: &[Dist2]) -> Option<WavefrontSchedule> {
    // dependence vectors are the negated offsets; reject non-positive
    let dists: Vec<Dist2> = offsets.iter().map(|&(a, b)| (-a, -b)).collect();
    if !all_lexicographically_positive(&dists) {
        return None;
    }
    let mut level: BTreeMap<(i64, i64), u32> = BTreeMap::new();
    // lexicographic order guarantees producers are computed before
    // consumers when scanning i then j
    for i in 1..=m {
        for j in 1..=n {
            let mut l = 0u32;
            for &(oi, oj) in offsets {
                let p = (i + oi, j + oj);
                if p.0 >= 1 && p.0 <= m && p.1 >= 1 && p.1 <= n {
                    if let Some(&pl) = level.get(&p) {
                        l = l.max(pl + 1);
                    }
                }
            }
            level.insert((i, j), l);
        }
    }
    Some(WavefrontSchedule { m, n, level })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepGraph;

    #[test]
    fn lexicographic_positivity() {
        assert!(all_lexicographically_positive(&[(1, 0), (0, 1), (1, -3)]));
        assert!(!all_lexicographically_positive(&[(1, 0), (-1, 0)]));
        assert!(!all_lexicographically_positive(&[(0, -1)]));
        assert!(!all_lexicographically_positive(&[(0, 0)]));
    }

    #[test]
    fn classic_skew_factor_is_zero_when_inner_is_free() {
        // deps only on the outer loop: no skewing needed
        assert_eq!(min_skew_factor(&[(1, 0), (2, 0)]), Some(0));
    }

    #[test]
    fn fig3a_needs_skew_one() {
        // v(i-1,j) + v(i,j-1): dists {(1,0),(0,1)} — (0,1) has a=0, so
        // f >= 1; (1,0) imposes nothing
        assert_eq!(min_skew_factor(&[(1, 0), (0, 1)]), Some(1));
    }

    #[test]
    fn negative_second_component_caps_factor() {
        // dist (2,-1): a + f*b >= 1 → f <= 1; dist (0,1) needs f >= 1
        assert_eq!(min_skew_factor(&[(2, -1), (0, 1)]), Some(1));
        // (1,-1) caps f at 0, but (0,1) needs 1 → infeasible by skewing
        assert_eq!(min_skew_factor(&[(1, -1), (0, 1)]), None);
    }

    #[test]
    fn fig3b_rejected() {
        assert_eq!(min_skew_factor(&[(1, 0), (-1, 0), (0, 1), (0, -1)]), None);
        assert!(wavefront_schedule(4, 4, &[(-1, 0), (1, 0)]).is_none());
    }

    #[test]
    fn wavefront_of_fig3a_is_antidiagonals() {
        // reading (i-1,j) and (i,j-1): level = (i-1)+(j-1)
        let ws = wavefront_schedule(4, 5, &[(-1, 0), (0, -1)]).unwrap();
        for i in 1..=4 {
            for j in 1..=5 {
                assert_eq!(ws.level[&(i, j)], (i + j - 2) as u32, "({i},{j})");
            }
        }
        assert_eq!(ws.depth(), 4 + 5 - 1);
        assert_eq!(ws.max_width(), 4);
    }

    #[test]
    fn wavefront_depth_matches_graph_critical_path() {
        for offsets in [
            vec![(-1i64, 0i64)],
            vec![(-1, 0), (0, -1)],
            vec![(-2, 0), (0, -1)],
            vec![(-1, -1), (-1, 0)],
        ] {
            let ws = wavefront_schedule(5, 6, &offsets).unwrap();
            let g = DepGraph::from_offsets(5, 6, &offsets);
            assert_eq!(
                ws.depth() as usize,
                g.critical_path().unwrap() + 1,
                "offsets {offsets:?}"
            );
        }
    }

    #[test]
    fn waves_partition_the_space() {
        let ws = wavefront_schedule(6, 6, &[(-1, 0), (0, -1)]).unwrap();
        let total: usize = ws.waves().iter().map(Vec::len).sum();
        assert_eq!(total, 36);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every dependence edge goes from a strictly earlier wave to a
        /// later one — the schedule is legal.
        #[test]
        fn schedule_respects_all_dependences(
            offsets in proptest::collection::vec((-2i64..=0, -2i64..=2), 1..4),
            m in 3i64..8, n in 3i64..8,
        ) {
            // force lexicographically-negative offsets (positive dists)
            let offsets: Vec<(i64,i64)> = offsets
                .into_iter()
                .map(|(a, b)| if a == 0 && b >= 0 { (a, -(b.abs() + 1)) } else { (a, b) })
                .filter(|&(a, b)| (a, b) != (0, 0))
                .collect();
            prop_assume!(!offsets.is_empty());
            prop_assume!(all_lexicographically_positive(
                &offsets.iter().map(|&(a, b)| (-a, -b)).collect::<Vec<_>>()
            ));
            let ws = wavefront_schedule(m, n, &offsets).unwrap();
            for i in 1..=m {
                for j in 1..=n {
                    for &(oi, oj) in &offsets {
                        let p = (i + oi, j + oj);
                        if p.0 >= 1 && p.0 <= m && p.1 >= 1 && p.1 <= n {
                            prop_assert!(
                                ws.level[&p] < ws.level[&(i, j)],
                                "dep {:?} -> ({i},{j}) not ordered", p
                            );
                        }
                    }
                }
            }
        }

        /// The computed skew factor is minimal and sufficient.
        #[test]
        fn skew_factor_minimal_and_sufficient(
            dists in proptest::collection::vec((0i64..4, -3i64..4), 1..5),
        ) {
            let dists: Vec<(i64,i64)> = dists
                .into_iter()
                .map(|(a, b)| if a == 0 && b <= 0 { (a + 1, b) } else { (a, b) })
                .collect();
            prop_assume!(all_lexicographically_positive(&dists));
            if let Some(f) = min_skew_factor(&dists) {
                // sufficient: all transformed first components positive
                for &(a, b) in &dists {
                    prop_assert!(a + f * b >= 1, "f={f} fails ({a},{b})");
                }
                // minimal: f-1 fails for some vector (unless f == 0)
                if f > 0 {
                    prop_assert!(
                        dists.iter().any(|&(a, b)| a + (f - 1) * b < 1),
                        "f={f} not minimal for {dists:?}"
                    );
                }
            }
        }
    }
}
