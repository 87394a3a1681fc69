//! Differential test of the compiled-kernel engine against the tree walk
//! on generated loop nests the case studies never exercise: random 2-D and
//! 3-D nests in random (permuted) loop order with steps 1, 2 and -1, so
//! rows form along the innermost loop and along enclosing ones; stencil
//! offsets up to ±3 in one or two random dimensions, bodies mixing
//! row-eligible stores with inner-carried sweeps, integer arrays, scalar
//! temporaries and logical-`if` reductions, `sqrt`/`log`/integer-divide
//! terms, branches, computed subscripts, a first or final trip that steps
//! out of bounds mid-body (so the nest's in-bounds proof fails at exactly
//! one corner), a loop with no trips (the loop variables' final values), a
//! bound that reads an enclosing loop's variable (a nest that is not a
//! box), statement budgets that run out mid-row, and a subroutine called
//! with one array under two dummy names.
//!
//! Per case, the tree walk and the kernel engine on one, two and four
//! threads must agree on everything a run exposes: every array bit for
//! bit, the op counters, the output (which prints the loop variables), the
//! final scalars including their `Int`-vs-`Real` representation — or, when
//! the program fails, the error message and its line. (The store of a
//! failed run is dropped with it; `exec`'s own tests compare partial
//! stores and counters at the error.)
//!
//! A failing case prints its program; once shrunk by hand it belongs in
//! `tests/regressions/`, which this test replays first.

use autocfd::interp::kernel::{PointWise, RowVerdict};
use autocfd::interp::{Frame, KernelSet, Machine, RunConfig, RunError, Value};
use autocfd_fortran::{parse, SourceFile};
use proptest::prelude::*;
use std::fmt::Write as _;

/// splitmix64: the generator's only source of choice, so a case is its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const VARS: [&str; 3] = ["i", "j", "k"];
const REALS: [&str; 3] = ["a", "b", "c"];
/// Widest stencil offset; loops keep this margin unless a case is meant
/// to step out of bounds.
const REACH: i64 = 3;

struct Gen {
    rng: Rng,
    /// Extent of each dimension (2 or 3 of them).
    n: Vec<i64>,
    out: String,
}

impl Gen {
    fn line(&mut self, text: &str) {
        writeln!(self.out, "      {text}").unwrap();
    }

    /// `i+1,j,k-2`: every dimension's variable plus its offset.
    fn at(&self, off: &[i64]) -> String {
        let subs: Vec<String> = (0..self.n.len())
            .map(|d| match off[d] {
                0 => VARS[d].to_string(),
                o if o > 0 => format!("{}+{o}", VARS[d]),
                o => format!("{}-{}", VARS[d], -o),
            })
            .collect();
        subs.join(",")
    }

    /// An offset of up to `REACH` in one random dimension (often none),
    /// sometimes in a second one too: a diagonal, whose dependence some
    /// loop orders would reverse.
    fn offset(&mut self) -> Vec<i64> {
        let mut off = vec![0; self.n.len()];
        for percent in [70, 15] {
            if self.rng.chance(percent) {
                let d = self.rng.below(off.len());
                off[d] = self.rng.below(2 * REACH as usize + 1) as i64 - REACH;
            }
        }
        off
    }

    fn here(&self) -> String {
        self.at(&vec![0; self.n.len()])
    }

    fn real(&mut self) -> &'static str {
        self.rng.pick(&REALS)
    }

    fn var(&mut self) -> &'static str {
        VARS[self.rng.below(self.n.len())]
    }

    /// One body statement (some templates are two or more lines).
    fn statement(&mut self) {
        let (t, x, y) = (self.real(), self.real(), self.real());
        let (here, o1, o2) = (self.here(), self.offset(), self.offset());
        let (p1, p2) = (self.at(&o1), self.at(&o2));
        match self.rng.below(13) {
            // row-eligible stencils (carried when `t` reads itself askew)
            0..=3 => self.line(&format!(
                "{t}({here}) = 0.5*{x}({p1}) + 0.25*({y}({p2}) - {x}({here})) + 0.01*c({here})"
            )),
            // an inner-carried sweep along one dimension
            4 => {
                let d = self.rng.below(self.n.len());
                let mut e = vec![0; self.n.len()];
                e[d] = 1;
                let up = self.at(&e);
                e[d] = -1;
                let down = self.at(&e);
                self.line(&format!(
                    "{t}({here}) = 0.5*{t}({here}) + 0.2*({t}({down}) + {t}({up}))"
                ));
            }
            // integer arrays: truncating store, rounding load, int → real
            5 => self.line(&format!("m({here}) = 40.0*{x}({p1}) + 0.5")),
            6 => {
                let v = self.var();
                self.line(&format!("{t}({here}) = 0.125*m({p1}) + 0.01*real({v})"));
            }
            // a scalar temporary and a logical-if reduction
            7 => {
                self.line(&format!("d = abs({x}({here}) - {y}({p1}))"));
                self.line("if (d .gt. err) err = d");
            }
            8 => {
                self.line(&format!("s = 0.5*{x}({p1}) + 0.1"));
                self.line(&format!("{t}({here}) = s*{y}({here})"));
            }
            // fallible terms that succeed: sqrt, log, integer divide, mod, **
            9 => {
                let (v, w) = (self.var(), self.var());
                self.line(&format!(
                    "{t}({here}) = sqrt(abs({x}({p1})) + 0.1) + log(abs({y}({here})) + 1.5)"
                ));
                self.line(&format!(
                    "{t}({here}) = {t}({here}) + 0.01*real(({v}*7 + 3)/({w} + 1) + 2**mod({v}, 3))"
                ));
            }
            // a block if
            10 => {
                self.line(&format!("if ({x}({here}) .gt. 0.3) then"));
                self.line(&format!("  {t}({here}) = 0.5*{y}({p1})"));
                self.line("else");
                self.line(&format!("  {t}({here}) = -{y}({here})"));
                self.line("end if");
            }
            // a computed subscript, and a load the row does not move
            11 => {
                let d = self.rng.below(self.n.len());
                let mut subs: Vec<String> =
                    VARS[..self.n.len()].iter().map(|v| v.to_string()).collect();
                subs[d] = format!("{0}*2 - {0}", VARS[d]);
                let ones = vec!["4"; self.n.len()].join(",");
                self.line(&format!(
                    "{t}({here}) = 0.5*{x}({}) + 0.25*{y}({ones}) + s",
                    subs.join(",")
                ));
            }
            _ => self.line("continue"),
        }
    }

    /// One nest over all dimensions in random order. `spill` widens one
    /// loop to the array's low or high edge, so that a stencil offset in
    /// the body's last statement leaves the array on its first or final
    /// trips; `fail` ends the body with a `sqrt` of a negative value;
    /// `empty` gives one loop no trips; `bent` bounds one inner loop by
    /// the variable of the loop around it.
    fn nest(&mut self, spill: bool, fail: bool, empty: bool, bent: bool) {
        let rank = self.n.len();
        let mut order: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            order.swap(i, self.rng.below(i + 1));
        }
        let wide = spill.then(|| (self.rng.below(rank), self.rng.chance(50)));
        let empty = empty.then(|| self.rng.below(rank));
        let bent = bent.then(|| 1 + self.rng.below(rank - 1));
        for (at, &d) in order.iter().enumerate() {
            let (mut lo, mut hi) = (1 + REACH, self.n[d] - REACH);
            match wide {
                Some((w, true)) if w == d => lo = 1,
                Some((w, false)) if w == d => hi = self.n[d],
                _ => {}
            }
            if empty == Some(at) {
                (lo, hi) = (hi, lo);
            }
            let (v, to) = (VARS[d], hi.to_string());
            let to = match bent {
                Some(b) if b == at => format!("min({hi}, {} + 2)", VARS[order[at - 1]]),
                _ => to,
            };
            match self.rng.pick(&[1, 1, 1, 2, -1]) {
                -1 => self.line(&format!("do {v} = {hi}, {lo}, -1")),
                1 => self.line(&format!("do {v} = {lo}, {to}")),
                s => self.line(&format!("do {v} = {lo}, {to}, {s}")),
            }
        }
        for _ in 0..1 + self.rng.below(3) {
            self.statement();
        }
        if let Some((d, low)) = wide {
            // in bounds over the loops' usual range, out on the widened one
            let mut off = vec![0; rank];
            off[d] = 1 + self.rng.below(REACH as usize) as i64;
            if low {
                off[d] = -off[d];
            }
            let (t, here, far) = (self.real(), self.here(), self.at(&off));
            let x = self.real();
            self.line(&format!("{t}({here}) = 0.5*{x}({far})"));
        }
        if fail {
            let here = self.here();
            self.line(&format!("b({here}) = sqrt(a({here}) - 50.0)"));
        }
        for _ in 0..rank {
            self.line("end do");
        }
    }
}

/// The program of one seed.
fn program(seed: u64) -> String {
    let mut rng = Rng(seed);
    let rank = 2 + rng.below(2);
    let mut n: Vec<i64> = (0..rank).map(|_| 9 + rng.below(6) as i64).collect();
    if rank == 2 && rng.chance(25) {
        // rows longer than one strip of the row driver
        n[rng.below(2)] = 140 + rng.below(150) as i64;
    }
    let mut g = Gen {
        rng,
        n,
        out: String::new(),
    };
    let dims = g.n.iter().map(i64::to_string).collect::<Vec<_>>().join(",");
    let here = g.here();
    g.line("program p");
    g.line(&format!("real a({dims}), b({dims}), c({dims})"));
    g.line(&format!("integer m({dims})"));
    g.line("integer i, j, k, it");
    g.line("real s, d, err");
    for d in (0..rank).rev() {
        let (v, hi) = (VARS[d], g.n[d]);
        g.line(&format!("do {v} = 1, {hi}"));
    }
    let sum = VARS[..rank].join(" + ");
    g.line(&format!("a({here}) = 0.01*(i*3 + j*5 + 1) + 0.001*({sum})"));
    g.line(&format!("b({here}) = 0.02*({sum})"));
    g.line(&format!("c({here}) = 0.5"));
    g.line(&format!("m({here}) = {sum}"));
    for _ in 0..rank {
        g.line("end do");
    }
    g.line("err = 0.0");
    g.line("s = 0.25");
    // Top-level nests are kernels of their own (and may thread); under a
    // time loop the whole loop is one kernel.
    let timed = g.rng.chance(50);
    if timed {
        g.line("do it = 1, 2");
    }
    let nests = 2 + g.rng.below(3);
    let spill = g.rng.chance(20).then(|| g.rng.below(nests));
    let fail = g.rng.chance(10).then(|| g.rng.below(nests));
    let call = g.rng.chance(60).then(|| g.rng.below(nests));
    let empty = g.rng.chance(20).then(|| g.rng.below(nests));
    let bent = g.rng.chance(25).then(|| g.rng.below(nests));
    for nest in 0..nests {
        let at = Some(nest);
        g.nest(spill == at, fail == at, empty == at, bent == at);
        if call == Some(nest) {
            // one array under two dummy names, more often than not
            let x = g.real();
            let y = if g.rng.chance(60) { x } else { g.real() };
            g.line(&format!("call sub({x}, {y})"));
        }
    }
    if timed {
        g.line("end do");
    }
    g.line(&format!(
        "write(*,*) err, s, d, i, j, k, a({}), m({})",
        vec!["5"; rank].join(","),
        vec!["6"; rank].join(",")
    ));
    g.line("end");
    // the callee: `x` reads `y` askew, which is carried only when aliased
    g.line("subroutine sub(x, y)");
    g.line(&format!("real x({dims}), y({dims})"));
    g.line("integer i, j, k");
    let off = g.offset();
    let (far, order_flip) = (g.at(&off), g.rng.chance(50));
    let ds: Vec<usize> = if order_flip {
        (0..rank).collect()
    } else {
        (0..rank).rev().collect()
    };
    for &d in &ds {
        let (v, lo, hi) = (VARS[d], 1 + REACH, g.n[d] - REACH);
        g.line(&format!("do {v} = {lo}, {hi}"));
    }
    g.line(&format!("x({here}) = 0.5*y({far}) + 0.25*x({here})"));
    for _ in 0..rank {
        g.line("end do");
    }
    g.line("return");
    g.line("end");
    g.out
}

type Outcome = Result<(Machine, Frame), RunError>;

/// The compiled kernels on `threads` worker threads, or the reference
/// tree walk for `None`.
fn run(file: &SourceFile, threads: Option<u32>, limit: u64) -> Outcome {
    let cfg = RunConfig::new(file).stmt_limit(limit);
    match threads {
        Some(n) => cfg.threads(n),
        None => cfg.reference(),
    }
    .run_sequential()
}

/// Everything a run exposes, compared between the tree walk and the
/// compiled kernels.
fn same(what: &str, tree: &Outcome, kernel: &Outcome) -> Result<(), String> {
    match (tree, kernel) {
        (Err(t), Err(k)) if t == k => Ok(()),
        (Err(t), Err(k)) => Err(format!("{what}: tree fails with `{t}`, kernel with `{k}`")),
        (Ok(_), Err(k)) => Err(format!("{what}: tree runs, kernel fails with `{k}`")),
        (Err(t), Ok(_)) => Err(format!("{what}: tree fails with `{t}`, kernel runs")),
        (Ok((mt, ft)), Ok((mk, fk))) => {
            if mt.ops != mk.ops {
                return Err(format!("{what}: ops {:?} vs {:?}", mt.ops, mk.ops));
            }
            if mt.output != mk.output {
                return Err(format!("{what}: output {:?} vs {:?}", mt.output, mk.output));
            }
            for (n, (a, b)) in mt.arrays.iter().zip(&mk.arrays).enumerate() {
                let differ = |(x, y): (&f64, &f64)| x.to_bits() != y.to_bits();
                if let Some(at) = a.data.iter().zip(&b.data).position(differ) {
                    return Err(format!(
                        "{what}: array {n} differs at element {at}: {} vs {}",
                        a.data[at], b.data[at]
                    ));
                }
            }
            let sorted = |f: &Frame| {
                let mut v: Vec<_> = f.scalars.iter().map(|(k, v)| (k.clone(), *v)).collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            };
            // bit for bit, like the arrays: a NaN matches itself
            let bits = |(name, v): &(String, Value)| match *v {
                Value::Real(x) => (name.clone(), None, x.to_bits()),
                other => (name.clone(), Some(other), 0),
            };
            let (st, sk) = (sorted(ft), sorted(fk));
            if st.iter().map(bits).ne(sk.iter().map(bits)) {
                return Err(format!("{what}: scalars {st:?} vs {sk:?}"));
            }
            Ok(())
        }
    }
}

/// Tree walk == kernel × 1, 2 and 4 threads, without a statement budget
/// and with budgets that run out part-way.
fn check(src: &str) -> Result<(), String> {
    let file = parse(src).map_err(|e| format!("generated program does not parse: {e}"))?;
    let tree = run(&file, None, 0);
    let total = tree.as_ref().map_or(4000, |(m, _)| m.ops.stmts);
    for limit in [0, total / 3, total / 2 + 1, total.saturating_sub(1).max(1)] {
        let tree = run(&file, None, limit);
        for threads in [1, 2, 4] {
            let kernel = run(&file, Some(threads), limit);
            same(
                &format!("budget {limit}, {threads} thread(s)"),
                &tree,
                &kernel,
            )?;
        }
    }
    Ok(())
}

#[test]
fn regressions_stay_fixed() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/regressions");
    let mut cases = 0;
    for entry in std::fs::read_dir(dir).expect("tests/regressions exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "f") {
            let src = std::fs::read_to_string(&path).unwrap();
            check(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            cases += 1;
        }
    }
    assert!(cases > 0, "no regression programs found in {dir}");
}

/// The generator must keep reaching every path of the row analysis, or
/// the property below quietly stops testing it.
#[test]
fn generated_nests_cover_every_verdict() {
    let mut seen = Vec::new();
    for seed in 0..200 {
        let file = parse(&program(seed)).unwrap();
        for (_, verdict) in KernelSet::build(&file, None, 1).row_verdicts() {
            if !seen.contains(&verdict) {
                seen.push(verdict);
            }
        }
    }
    for verdict in [
        RowVerdict::Row,
        RowVerdict::Interchanged { axis: 0 },
        RowVerdict::Interchanged { axis: 1 },
        RowVerdict::PointWise(PointWise::InnerLoop),
        RowVerdict::PointWise(PointWise::ScalarState),
        RowVerdict::PointWise(PointWise::Branch),
        RowVerdict::PointWise(PointWise::Fallible),
        RowVerdict::PointWise(PointWise::CarriedDependence),
        RowVerdict::PointWise(PointWise::NonAffine),
    ] {
        assert!(seen.contains(&verdict), "no generated loop is {verdict:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn kernel_engine_matches_tree_walk_on_generated_nests(seed in 0u64..u64::MAX) {
        let src = program(seed);
        if let Err(e) = check(&src) {
            return Err(TestCaseError::Fail(format!("{e}\n{src}")));
        }
    }
}
