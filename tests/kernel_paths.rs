//! Which driver every case-study loop takes in the kernel engine, along
//! which axis, and why not. A row-eligible loop that silently fell back to
//! the point-wise driver, or to rows along its strided innermost loop,
//! would keep every equivalence test green and run several times slower;
//! this pins the row analysis's verdict on the innermost loops of both
//! case studies — the original programs, and the restructured SPMD
//! programs the pre-compiler actually emits at `2x1` / `2x1x1`, under the
//! plan's own kernel-nest marking.

use autocfd::interp::kernel::{PointWise, RowVerdict};
use autocfd::interp::KernelSet;
use autocfd::{compile, CompileOptions};
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use autocfd_fortran::{parse, SourceFile, StmtId, StmtKind};
use std::collections::BTreeMap;

use RowVerdict::Row;
/// Rows along the nest's outermost loop.
const ALONG_OUTER: RowVerdict = RowVerdict::Interchanged { axis: 0 };
/// Rows along the middle loop of a 3-D nest.
const ALONG_MIDDLE: RowVerdict = RowVerdict::Interchanged { axis: 1 };
const SCALAR_STATE: RowVerdict = RowVerdict::PointWise(PointWise::ScalarState);

/// Per unit, the verdict on each innermost `do` loop in source order
/// (`None`: the loop is in no compiled kernel at all).
fn paths(file: &SourceFile, hints: Option<&[StmtId]>) -> BTreeMap<String, Vec<Option<RowVerdict>>> {
    let verdicts: BTreeMap<u32, RowVerdict> = KernelSet::build(file, hints, 1)
        .row_verdicts()
        .into_iter()
        .collect();
    let mut table = BTreeMap::new();
    for unit in &file.units {
        let mut inner = Vec::new();
        autocfd_fortran::ast::walk_stmts(&unit.body, &mut |s| {
            if let StmtKind::Do { body, .. } = &s.kind {
                let mut nested = false;
                autocfd_fortran::ast::walk_stmts(body, &mut |b| {
                    nested |= matches!(b.kind, StmtKind::Do { .. });
                });
                if !nested {
                    inner.push(verdicts.get(&s.line).copied());
                }
            }
        });
        table.insert(unit.name.clone(), inner);
    }
    table
}

fn expect(rows: &[(&str, Vec<RowVerdict>)]) -> BTreeMap<String, Vec<Option<RowVerdict>>> {
    rows.iter()
        .map(|(unit, v)| (unit.to_string(), v.iter().copied().map(Some).collect()))
        .collect()
}

/// Sprayer: the nests loop `do i/do j`, so every `advect`/`diffuse`/
/// `stream` nest and the initialisation form rows along `i`, their
/// outermost loop; the 1-D inflow boundary forms rows along its only
/// loop; the residual nest carries `d`/`err` from trip to trip.
fn sprayer_table(width: usize) -> BTreeMap<String, Vec<Option<RowVerdict>>> {
    expect(&[
        ("sprayer", vec![ALONG_OUTER, Row, SCALAR_STATE]),
        ("advect", vec![ALONG_OUTER; width]),
        ("diffuse", vec![ALONG_OUTER; width]),
        ("stream", vec![ALONG_OUTER]),
    ])
}

/// Aerofoil: the nests loop `do i/do j/do k`. `flux*`, `relax`, `press`,
/// the initialisation, `sweepj` and `sweepk` form rows along `i`; the two
/// boundary nests `do j/do k` along `j`, their first subscripted
/// dimension. `sweepi` is carried along `i`, so it takes its next axis,
/// `j`. The residual nest keeps scalar state.
fn aerofoil_table(width: usize) -> BTreeMap<String, Vec<Option<RowVerdict>>> {
    expect(&[
        (
            "aerofoil",
            vec![ALONG_OUTER, ALONG_OUTER, ALONG_OUTER, SCALAR_STATE],
        ),
        ("fluxx", vec![ALONG_OUTER; width]),
        ("fluxy", vec![ALONG_OUTER; width]),
        ("fluxz", vec![ALONG_OUTER; width]),
        ("relax", vec![ALONG_OUTER; width]),
        ("press", vec![ALONG_OUTER]),
        ("sweepi", vec![ALONG_MIDDLE]),
        ("sweepj", vec![ALONG_OUTER]),
        ("sweepk", vec![ALONG_OUTER]),
    ])
}

#[test]
fn original_case_studies_take_the_pinned_paths() {
    let (s, a) = (CaseParams::sprayer_small(), CaseParams::aerofoil_small());
    let sprayer = parse(&sprayer_program(&s)).unwrap();
    assert_eq!(paths(&sprayer, None), sprayer_table(s.width));
    let aerofoil = parse(&aerofoil_program(&a)).unwrap();
    assert_eq!(paths(&aerofoil, None), aerofoil_table(a.width));
}

/// The restructurer clamps loop bounds to the rank's subgrid and wraps
/// the mirror-image sweeps in pipeline calls, but leaves every nest in
/// one piece: the verdict tables are the original programs'.
#[test]
fn restructured_case_studies_take_the_pinned_paths() {
    let (s, a) = (CaseParams::sprayer_small(), CaseParams::aerofoil_small());
    let c = compile(
        &sprayer_program(&s),
        &CompileOptions::with_partition(&[2, 1]),
    )
    .unwrap();
    let hints = Some(c.spmd_plan.kernel_nests.as_slice());
    assert_eq!(paths(&c.parallel_file, hints), sprayer_table(s.width));
    let c = compile(
        &aerofoil_program(&a),
        &CompileOptions::with_partition(&[2, 1, 1]),
    )
    .unwrap();
    let hints = Some(c.spmd_plan.kernel_nests.as_slice());
    assert_eq!(paths(&c.parallel_file, hints), aerofoil_table(a.width));
}
