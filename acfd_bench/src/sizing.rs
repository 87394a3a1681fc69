//! Workload definitions and the seed → input mapping.
//!
//! The program under test receives only generated Fortran source. The
//! seed picks the grid extents: each extent moves by up to the stated
//! jitter, but only combinations whose point count stays within a small
//! tolerance of the centre are drawn, so different seeds give different
//! programs of the same amount of work and `wall_s` stays comparable
//! across seeds.

use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};

pub const DEFAULT_SEED: u64 = 20030;

/// Workload names and the reason each exists (`BENCHMARK.json` repeats
/// them; a unit test keeps the two in step).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sprayer-compute2",
        "case study 2 at the paper's grid on 2 in-process ranks: compute is ~95% of every rank's wall, so interp::kernel does nearly all the work",
    ),
    (
        "aerofoil-overlap2",
        "case study 1, 3-D with mirror-image pipelines and overlap on: ~6x the messages, ~5x the bytes, wait+comm 7-12% of wall, the only isend/irecv path",
    ),
    (
        "sprayer-tcp2-small",
        "small grid over loopback TCP with rendezvous in every rep: ~95% of wall is runtime-net send/wait, the kernel does ~4%",
    ),
    (
        "compile-batch",
        "40 generated programs through compile + lowering + plan JSON and the plan cache: the pre-compiler itself, run-time layers idle",
    ),
];

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` that differs per `stream` name, so workloads
    /// draw independently of each other.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draw grid extents around `centre`: each within ±`jitter` of its
/// centre value, the product within ±`tol` of the centre product.
pub fn draw_extents(rng: &mut Rng, centre: &[u64], jitter: f64, tol: f64) -> Vec<u64> {
    let target: u64 = centre.iter().product();
    let ranges: Vec<(u64, u64)> = centre
        .iter()
        .map(|&c| {
            let c = c as f64;
            (
                (c * (1.0 - jitter)).ceil() as u64,
                (c * (1.0 + jitter)).floor() as u64,
            )
        })
        .collect();
    let mut candidates: Vec<Vec<u64>> = Vec::new();
    let mut cur: Vec<u64> = ranges.iter().map(|r| r.0).collect();
    loop {
        let points: u64 = cur.iter().product();
        if (points as f64 - target as f64).abs() <= tol * target as f64 {
            candidates.push(cur.clone());
        }
        // odometer over the ranges, first axis fastest
        let mut axis = 0;
        loop {
            if axis == cur.len() {
                return candidates.swap_remove(rng.below(candidates.len()));
            }
            if cur[axis] < ranges[axis].1 {
                cur[axis] += 1;
                break;
            }
            cur[axis] = ranges[axis].0;
            axis += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    Sprayer,
    Aerofoil,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Inproc,
    Tcp,
}

impl Transport {
    /// The name journals and merged traces carry.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Inproc => "inproc",
            Transport::Tcp => "tcp",
        }
    }
}

/// How a workload executes its programs in the timed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// One program on its partition's ranks, plus the plain
    /// single-threaded run of the original as the baseline.
    Parallel { overlap: bool, transport: Transport },
    /// Every program of the batch once, sequentially (`compile-batch`:
    /// its `wall_s` is a cold compile pass, not this).
    SequentialBatch,
}

/// One generated input program.
#[derive(Debug, Clone)]
pub struct Program {
    pub case: Case,
    pub label: String,
    pub source: String,
    pub parts: Vec<u32>,
    pub extents: Vec<u64>,
    pub frames: u64,
    pub width: usize,
}

impl Program {
    fn new(case: Case, extents: Vec<u64>, frames: u64, width: usize, parts: &[u32]) -> Program {
        let p = CaseParams {
            ni: extents[0],
            nj: extents[1],
            nk: extents.get(2).copied().unwrap_or(0),
            frames,
            width,
        };
        let (tag, source) = match case {
            Case::Sprayer => ("sprayer", sprayer_program(&p)),
            Case::Aerofoil => ("aerofoil", aerofoil_program(&p)),
        };
        let join = |v: Vec<String>| v.join("x");
        Program {
            case,
            label: format!(
                "{tag}-{}-w{width}-p{}",
                join(extents.iter().map(u64::to_string).collect()),
                join(parts.iter().map(u32::to_string).collect())
            ),
            source,
            parts: parts.to_vec(),
            extents,
            frames,
            width,
        }
    }

    /// The same program at another frame count (the tree cross-check
    /// runs two frames; the tree walk is ~10× slower than the kernels).
    pub fn with_frames(&self, frames: u64) -> Program {
        Program::new(
            self.case,
            self.extents.clone(),
            frames,
            self.width,
            &self.parts,
        )
    }

    pub fn point_frames(&self) -> u64 {
        self.extents.iter().product::<u64>() * self.frames
    }

    pub fn lines(&self) -> usize {
        self.source.lines().count()
    }
}

/// A workload's inputs and execution shape.
pub struct Workload {
    pub name: &'static str,
    pub exec: Exec,
    pub programs: Vec<Program>,
}

/// Seed-free centre values of the three run workloads. The grids are
/// the paper's; the frames (time steps, each the same work) are cut from
/// its 40/96/200 so that an in-process parallel run takes a quarter of a
/// second and a sixteen-second run holds two dozen of them. A metric's
/// value is its fastest run, and on the shared sandbox a run is only as
/// fast as the code when both cores stay undisturbed for all of it:
/// when a neighbour is busy, none of ten half-second runs may manage
/// that, while a few of twenty-five shorter ones do.
struct RunSpec {
    case: Case,
    centre: &'static [u64],
    width: usize,
    frames: u64,
    parts: &'static [u32],
    overlap: bool,
    transport: Transport,
}

fn run_spec(name: &str) -> Option<RunSpec> {
    Some(match name {
        "sprayer-compute2" => RunSpec {
            case: Case::Sprayer,
            centre: &[300, 100],
            width: 10,
            frames: 8,
            parts: &[2, 1],
            overlap: false,
            transport: Transport::Inproc,
        },
        "aerofoil-overlap2" => RunSpec {
            case: Case::Aerofoil,
            centre: &[48, 24, 10],
            width: 8,
            frames: 16,
            parts: &[2, 1, 1],
            overlap: true,
            transport: Transport::Inproc,
        },
        "sprayer-tcp2-small" => RunSpec {
            case: Case::Sprayer,
            centre: &[48, 32],
            width: 10,
            frames: 24,
            parts: &[2, 1],
            overlap: false,
            transport: Transport::Tcp,
        },
        _ => return None,
    })
}

/// Build workload `name`'s inputs from `seed`. `quick` shrinks them for
/// tests: two frames, an 8-program batch.
pub fn workload(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let name = WORKLOADS.iter().find(|w| w.0 == name)?.0;
    let mut rng = Rng::new(seed, name);
    if let Some(s) = run_spec(name) {
        let extents = draw_extents(&mut rng, s.centre, 0.06, 0.005);
        let frames = if quick { 2 } else { s.frames };
        return Some(Workload {
            name,
            exec: Exec::Parallel {
                overlap: s.overlap,
                transport: s.transport,
            },
            programs: vec![Program::new(s.case, extents, frames, s.width, s.parts)],
        });
    }
    // compile-batch: both generators × widths × four partitions each.
    // Compile time does not depend on the grid size, so the grids are
    // small and every program can also be executed and verified.
    let widths: &[usize] = if quick { &[4, 16] } else { &[4, 8, 16, 32, 64] };
    let parts2: &[&[u32]] = &[&[2, 1], &[1, 2], &[2, 2], &[3, 2]];
    let parts3: &[&[u32]] = &[&[2, 1, 1], &[1, 2, 1], &[2, 2, 1], &[3, 2, 1]];
    let take = if quick { 2 } else { 4 };
    let mut programs = Vec::new();
    for (case, centre, parts) in [
        (Case::Sprayer, &[24u64, 16][..], parts2),
        (Case::Aerofoil, &[14, 10, 6][..], parts3),
    ] {
        for &width in widths {
            for p in parts.iter().step_by(if quick { 2 } else { 1 }).take(take) {
                let extents = draw_extents(&mut rng, centre, 0.15, 0.03);
                programs.push(Program::new(case, extents, 2, width, p));
            }
        }
    }
    Some(Workload {
        name,
        exec: Exec::SequentialBatch,
        programs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (name, _) in WORKLOADS {
            let a = workload(name, 7, false).unwrap();
            let b = workload(name, 7, false).unwrap();
            let sources = |w: &Workload| -> Vec<String> {
                w.programs.iter().map(|p| p.source.clone()).collect()
            };
            assert_eq!(sources(&a), sources(&b), "{name}");
        }
        let distinct: std::collections::BTreeSet<Vec<u64>> = (0..32)
            .map(|s| {
                workload("sprayer-compute2", s, false).unwrap().programs[0]
                    .extents
                    .clone()
            })
            .collect();
        assert!(
            distinct.len() >= 4,
            "seeds must vary the grid: {distinct:?}"
        );
    }

    #[test]
    fn jitter_stays_within_six_percent_and_keeps_the_point_count() {
        for (name, centre) in [
            ("sprayer-compute2", &[300u64, 100][..]),
            ("aerofoil-overlap2", &[48, 24, 10]),
            ("sprayer-tcp2-small", &[48, 32]),
        ] {
            let target: u64 = centre.iter().product();
            for seed in 0..200 {
                let w = workload(name, seed, false).unwrap();
                let e = &w.programs[0].extents;
                for (got, want) in e.iter().zip(centre) {
                    let rel = (*got as f64 - *want as f64).abs() / *want as f64;
                    assert!(rel <= 0.06, "{name} seed {seed}: {e:?}");
                }
                let points: u64 = e.iter().product();
                let rel = (points as f64 - target as f64).abs() / target as f64;
                assert!(rel <= 0.005, "{name} seed {seed}: {e:?} = {points} points");
            }
        }
    }

    #[test]
    fn batch_shape() {
        let full = workload("compile-batch", DEFAULT_SEED, false).unwrap();
        assert_eq!(full.programs.len(), 40);
        let labels: std::collections::BTreeSet<&str> =
            full.programs.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels.len(), 40, "programs must differ");
        let quick = workload("compile-batch", DEFAULT_SEED, true).unwrap();
        assert_eq!(quick.programs.len(), 8);
        assert!(workload("no-such-workload", 1, false).is_none());
    }
}
