//! Epoch checkpoint/restart: schema-versioned per-rank snapshots.
//!
//! A *checkpoint-safe* synchronization point (marked by the compiler in
//! the `SpmdPlan`) is a `call acf_sync_<k>` statement in the main
//! program unit. At the start of such a call the hook set has already
//! completed every pending `isend`/`irecv`, the interpreter's control
//! stack is just the main unit, and no message addressed to the
//! not-yet-executed sync exists anywhere in the mesh — so a snapshot of
//! (arrays, scalars, I/O queues, counters, loop cursor) taken there is
//! a globally consistent cut: restoring every rank at the same visit of
//! the same sync and *re-executing* the sync regenerates all in-flight
//! traffic deterministically. See DESIGN.md §11 for the protocol.
//!
//! This module owns the portable snapshot data model and its on-disk
//! layout; the interpreter layer (`autocfd-interp`) converts machine
//! state to and from [`Snapshot`]s. Layout under a checkpoint
//! directory:
//!
//! ```text
//! DIR/run.json              — relaunch manifest (source, partition, flags)
//! DIR/epoch-<E>/rank-<r>.json — per-rank snapshot of checkpoint epoch E
//! ```
//!
//! Snapshots are written to a temp file and atomically renamed, so a
//! crash mid-write leaves at most a stray `.tmp` file, never a
//! half-readable snapshot under the final name. Recovery picks the
//! newest epoch for which *all* ranks' snapshots parse and agree
//! ([`latest_consistent_epoch`]); a torn or missing file simply makes
//! recovery fall back to the previous complete epoch.
//!
//! All floating-point payloads are stored as IEEE-754 bit patterns
//! (`f64::to_bits`) in JSON integers, so restore is bit-exact including
//! negative zero, infinities and NaN payloads.

use serde::json::{self, Fields, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the snapshot/manifest schema. Bump on any incompatible
/// change; loaders reject versions they do not know instead of
/// guessing. Version 2 added partition geometry: each snapshot records
/// the `parts` its owned regions were cut for, and the manifest records
/// the global grid extents — together they make a checkpoint directory
/// self-describing enough to re-decompose onto a different rank count.
/// Version 3 dropped the manifest's `engine` field. Any other version
/// is refused with an error naming both.
pub const CHECKPOINT_SCHEMA_VERSION: i64 = 3;

/// Progress of one active `do` loop on the path from the top of the
/// main unit to the checkpoint statement, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoProgress {
    /// Loop variable name.
    pub var: String,
    /// The loop variable's value in the iteration being snapshotted.
    pub iv: i64,
    /// Loop step.
    pub step: i64,
    /// Full iterations still to run *after* the current one finishes.
    pub remaining: u64,
}

/// Where in the main unit execution stood when the snapshot was taken:
/// the checkpoint statement plus the state of every enclosing `do`.
/// `if`/`do while` levels on the path need no saved state — their arms
/// are rediscovered statically and their conditions re-evaluated from
/// the restored scalars.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cursor {
    /// Statement id of the `call acf_sync_<k>` the snapshot cuts at.
    pub stmt: u32,
    /// Enclosing `do` loops, outermost first.
    pub dos: Vec<DoProgress>,
}

/// Plan-independent source coordinates of the gap the snapshot was cut
/// at: which statement list of the main unit, and the index of the
/// source-statement gap within it. Statement ids are minted by the
/// parser, *before* any partition-specific rewriting, so two compiles
/// of the same source agree on these coordinates even when their
/// inserted sync sets (and hence the cursor's statement ids) differ —
/// this is what lets an elastic resume map a cut taken under one
/// partition onto another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CutSite {
    /// List discriminant: 0 = unit body, 1 = `do` body, 2 = `then` arm,
    /// 3 = `else if` arm, 4 = `else` arm.
    pub list_kind: u8,
    /// Source id of the statement owning the list (0 for the unit body).
    pub list_stmt: u32,
    /// `else if` arm ordinal (0 otherwise).
    pub arm: u32,
    /// Source-statement gap index within the list.
    pub gap: u64,
}

/// One array's saved contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySnap {
    /// Binding name (frame variable or common-block member).
    pub name: String,
    /// Declared `(lower, upper)` bounds per dimension.
    pub bounds: Vec<(i64, i64)>,
    /// True if declared `integer`.
    pub is_int: bool,
    /// Column-major element storage as `f64::to_bits` patterns.
    pub data: Vec<u64>,
}

/// One scalar's saved value.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarSnap {
    /// Fortran `integer`.
    Int(i64),
    /// Fortran `real`/`double precision`, as its IEEE-754 bit pattern.
    Real(u64),
    /// Fortran `logical`.
    Logical(bool),
    /// Character value.
    Str(String),
}

/// Saved operation counters (restored so resumed profiles stay
/// comparable to uninterrupted runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpsSnap {
    /// Floating-point operations.
    pub flops: u64,
    /// Array element loads.
    pub loads: u64,
    /// Array element stores.
    pub stores: u64,
    /// Statements executed.
    pub stmts: u64,
}

/// A complete per-rank snapshot at one checkpoint epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Owning rank.
    pub rank: usize,
    /// Mesh size the run was partitioned for.
    pub ranks: usize,
    /// Partition parts per grid axis the owned regions were cut for.
    pub parts: Vec<u32>,
    /// Checkpoint epoch: the count of checkpoint-safe sync visits made
    /// when this snapshot was cut. All ranks of one epoch agree.
    pub epoch: u64,
    /// Id of the sync (`acf_sync_<id>`) the snapshot cuts at.
    pub sync_id: u32,
    /// Resume position in the main unit.
    pub cursor: Cursor,
    /// Source coordinates of the cut gap (`None` when the plan lists
    /// no site for the sync; elastic resume refuses such a snapshot).
    pub cut: Option<CutSite>,
    /// Main-frame local arrays (excluding common-block members).
    pub arrays: Vec<ArraySnap>,
    /// Common-block members as `(block, member, contents)`.
    pub commons: Vec<(String, String, ArraySnap)>,
    /// Main-frame scalars.
    pub scalars: Vec<(String, ScalarSnap)>,
    /// Unconsumed list-directed input, as bit patterns.
    pub input: Vec<u64>,
    /// `write` output captured so far.
    pub output: Vec<String>,
    /// Operation counters at the cut.
    pub ops: OpsSnap,
}

/// Relaunch manifest written next to the snapshots: everything `acfc
/// resume DIR` needs to recompile the identical program (statement ids
/// are minted deterministically, so an identical compile yields the
/// same plan and the saved cursor stays valid) and relaunch the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Original Fortran source text, embedded verbatim.
    pub source: String,
    /// Partition parts per grid axis.
    pub parts: Vec<u32>,
    /// Global grid extents per axis (the `!$acf grid(...)` directive),
    /// so a resume can re-partition for a different rank count without
    /// recompiling first.
    pub grid: Vec<u64>,
    /// Mesh size.
    pub ranks: usize,
    /// Dependence-test distance limit the compile used.
    pub distance: i64,
    /// Whether sync merging/optimization was on.
    pub optimize: bool,
    /// Whether compute/communication overlap was on.
    pub overlap: bool,
    /// Checkpoint cadence (snapshot every N checkpoint-safe visits).
    pub checkpoint_every: u64,
    /// Receive timeout in milliseconds.
    pub timeout_ms: u64,
    /// Worker threads per rank for the compiled kernels (1 for
    /// sequential kernels).
    pub threads: u64,
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

fn bits_arr(bits: &[u64]) -> Value {
    Value::Arr(bits.iter().map(|&b| Value::Int(i128::from(b))).collect())
}

fn array_snap_json(a: &ArraySnap) -> Value {
    Value::obj(vec![
        ("name", Value::Str(a.name.clone())),
        (
            "bounds",
            Value::Arr(
                a.bounds
                    .iter()
                    .map(|&(lo, hi)| {
                        Value::Arr(vec![Value::Int(i128::from(lo)), Value::Int(i128::from(hi))])
                    })
                    .collect(),
            ),
        ),
        ("is_int", Value::Bool(a.is_int)),
        ("data", bits_arr(&a.data)),
    ])
}

fn scalar_json(s: &ScalarSnap) -> Value {
    match s {
        ScalarSnap::Int(v) => Value::obj(vec![
            ("t", Value::Str("int".into())),
            ("v", Value::Int(i128::from(*v))),
        ]),
        ScalarSnap::Real(bits) => Value::obj(vec![
            ("t", Value::Str("real".into())),
            ("bits", Value::Int(i128::from(*bits))),
        ]),
        ScalarSnap::Logical(b) => Value::obj(vec![
            ("t", Value::Str("log".into())),
            ("v", Value::Bool(*b)),
        ]),
        ScalarSnap::Str(s) => Value::obj(vec![
            ("t", Value::Str("str".into())),
            ("v", Value::Str(s.clone())),
        ]),
    }
}

/// Render a snapshot as schema-versioned JSON.
pub fn snapshot_to_json(s: &Snapshot) -> String {
    let cursor = Value::obj(vec![
        ("stmt", Value::Int(i128::from(s.cursor.stmt))),
        (
            "dos",
            Value::Arr(
                s.cursor
                    .dos
                    .iter()
                    .map(|d| {
                        Value::obj(vec![
                            ("var", Value::Str(d.var.clone())),
                            ("iv", Value::Int(i128::from(d.iv))),
                            ("step", Value::Int(i128::from(d.step))),
                            ("remaining", Value::Int(i128::from(d.remaining))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut fields = vec![
        ("version", Value::Int(i128::from(CHECKPOINT_SCHEMA_VERSION))),
        ("rank", Value::Int(s.rank as i128)),
        ("ranks", Value::Int(s.ranks as i128)),
        (
            "parts",
            Value::Arr(s.parts.iter().map(|&p| Value::Int(i128::from(p))).collect()),
        ),
        ("epoch", Value::Int(i128::from(s.epoch))),
        ("sync_id", Value::Int(i128::from(s.sync_id))),
        ("cursor", cursor),
    ];
    if let Some(c) = &s.cut {
        fields.push((
            "cut",
            Value::obj(vec![
                ("kind", Value::Int(i128::from(c.list_kind))),
                ("stmt", Value::Int(i128::from(c.list_stmt))),
                ("arm", Value::Int(i128::from(c.arm))),
                ("gap", Value::Int(i128::from(c.gap))),
            ]),
        ));
    }
    fields.extend(vec![
        (
            "arrays",
            Value::Arr(s.arrays.iter().map(array_snap_json).collect()),
        ),
        (
            "commons",
            Value::Arr(
                s.commons
                    .iter()
                    .map(|(block, name, a)| {
                        Value::obj(vec![
                            ("block", Value::Str(block.clone())),
                            ("member", Value::Str(name.clone())),
                            ("array", array_snap_json(a)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "scalars",
            Value::Arr(
                s.scalars
                    .iter()
                    .map(|(name, v)| {
                        Value::obj(vec![
                            ("name", Value::Str(name.clone())),
                            ("value", scalar_json(v)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("input", bits_arr(&s.input)),
        (
            "output",
            Value::Arr(s.output.iter().map(|l| Value::Str(l.clone())).collect()),
        ),
        (
            "ops",
            Value::obj(vec![
                ("flops", Value::Int(i128::from(s.ops.flops))),
                ("loads", Value::Int(i128::from(s.ops.loads))),
                ("stores", Value::Int(i128::from(s.ops.stores))),
                ("stmts", Value::Int(i128::from(s.ops.stmts))),
            ]),
        ),
    ]);
    Value::obj(fields).to_string()
}

/// Parse `text` and refuse any schema version but the current one;
/// `what` names the file kind in every error.
fn parse_current(text: &str, what: &str) -> Result<Value, String> {
    let doc = json::parse(text).map_err(|e| format!("{what}: {e}"))?;
    let version: i128 = Fields::new(&doc, what).int("version")?;
    if version != i128::from(CHECKPOINT_SCHEMA_VERSION) {
        return Err(format!(
            "{what}: schema version {version} (this build reads {CHECKPOINT_SCHEMA_VERSION})"
        ));
    }
    Ok(doc)
}

fn parse_array_snap(v: Fields<'_>) -> Result<ArraySnap, String> {
    let bounds = v
        .arr("bounds")?
        .iter()
        .map(|b| {
            b.as_int_pair()
                .map(|[lo, hi]| (lo, hi))
                .ok_or_else(|| "snapshot: bad bound pair".to_string())
        })
        .collect::<Result<Vec<(i64, i64)>, _>>()?;
    let name = v.str("name")?;
    let data: Vec<u64> = v.ints("data")?;
    match element_count(&bounds) {
        Some(n) if n == data.len() => {}
        Some(n) => {
            return Err(format!(
                "snapshot: array `{name}` bounds {bounds:?} hold {n} elements, data has {}",
                data.len()
            ))
        }
        None => {
            return Err(format!(
                "snapshot: array `{name}` has bad bounds {bounds:?}"
            ))
        }
    }
    Ok(ArraySnap {
        name,
        bounds,
        is_int: v.bool("is_int")?,
        data,
    })
}

fn parse_scalar(v: Fields<'_>) -> Result<ScalarSnap, String> {
    match v.str("t")?.as_str() {
        "int" => Ok(ScalarSnap::Int(v.int("v")?)),
        "real" => Ok(ScalarSnap::Real(v.int("bits")?)),
        "log" => Ok(ScalarSnap::Logical(v.bool("v")?)),
        "str" => Ok(ScalarSnap::Str(v.str("v")?)),
        other => Err(format!("snapshot: unknown scalar tag `{other}`")),
    }
}

/// Parse a snapshot back from its JSON rendering.
pub fn snapshot_from_json(text: &str) -> Result<Snapshot, String> {
    let doc = parse_current(text, "snapshot")?;
    let v = Fields::new(&doc, "snapshot");
    let cv = v.obj("cursor")?;
    let cursor = Cursor {
        stmt: cv.int("stmt")?,
        dos: cv
            .objs("dos")?
            .map(|d| {
                Ok::<DoProgress, String>(DoProgress {
                    var: d.str("var")?,
                    iv: d.int("iv")?,
                    step: d.int("step")?,
                    remaining: d.int("remaining")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let arrays = v
        .objs("arrays")?
        .map(parse_array_snap)
        .collect::<Result<Vec<_>, _>>()?;
    let commons = v
        .objs("commons")?
        .map(|c| {
            Ok::<(String, String, ArraySnap), String>((
                c.str("block")?,
                c.str("member")?,
                parse_array_snap(c.obj("array")?)?,
            ))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let scalars = v
        .objs("scalars")?
        .map(|s| {
            Ok::<(String, ScalarSnap), String>((s.str("name")?, parse_scalar(s.obj("value")?)?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let output = v
        .arr("output")?
        .iter()
        .map(|l| {
            l.as_str()
                .map(str::to_string)
                .ok_or_else(|| "snapshot: bad output line".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let ov = v.obj("ops")?;
    // absent when the cut was taken at a sync the plan lists no site for
    let cut = match v.obj("cut") {
        Err(_) => None,
        Ok(cv) => Some(CutSite {
            list_kind: cv.int("kind")?,
            list_stmt: cv.int("stmt")?,
            arm: cv.int("arm")?,
            gap: cv.int("gap")?,
        }),
    };
    Ok(Snapshot {
        rank: v.int("rank")?,
        ranks: v.int("ranks")?,
        parts: v.ints("parts")?,
        epoch: v.int("epoch")?,
        sync_id: v.int("sync_id")?,
        cursor,
        cut,
        arrays,
        commons,
        scalars,
        input: v.ints("input")?,
        output,
        ops: OpsSnap {
            flops: ov.int("flops")?,
            loads: ov.int("loads")?,
            stores: ov.int("stores")?,
            stmts: ov.int("stmts")?,
        },
    })
}

/// Render a run manifest as schema-versioned JSON.
pub fn manifest_to_json(m: &RunManifest) -> String {
    Value::obj(vec![
        ("version", Value::Int(i128::from(CHECKPOINT_SCHEMA_VERSION))),
        ("source", Value::Str(m.source.clone())),
        (
            "parts",
            Value::Arr(m.parts.iter().map(|&p| Value::Int(i128::from(p))).collect()),
        ),
        (
            "grid",
            Value::Arr(m.grid.iter().map(|&e| Value::Int(i128::from(e))).collect()),
        ),
        ("ranks", Value::Int(m.ranks as i128)),
        ("distance", Value::Int(i128::from(m.distance))),
        ("optimize", Value::Bool(m.optimize)),
        ("overlap", Value::Bool(m.overlap)),
        (
            "checkpoint_every",
            Value::Int(i128::from(m.checkpoint_every)),
        ),
        ("timeout_ms", Value::Int(i128::from(m.timeout_ms))),
        ("threads", Value::Int(i128::from(m.threads))),
    ])
    .to_string()
}

/// Parse a run manifest back from its JSON rendering.
pub fn manifest_from_json(text: &str) -> Result<RunManifest, String> {
    let doc = parse_current(text, "run manifest")?;
    let v = Fields::new(&doc, "run manifest");
    Ok(RunManifest {
        source: v.str("source")?,
        parts: v.ints("parts")?,
        grid: v.ints("grid")?,
        ranks: v.int("ranks")?,
        distance: v.int("distance")?,
        optimize: v.bool("optimize")?,
        overlap: v.bool("overlap")?,
        checkpoint_every: v.int("checkpoint_every")?,
        timeout_ms: v.int("timeout_ms")?,
        threads: v.int("threads")?,
    })
}

// ---------------------------------------------------------------------
// On-disk layout
// ---------------------------------------------------------------------

/// Directory holding epoch `epoch`'s snapshots.
pub fn epoch_dir(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("epoch-{epoch}"))
}

/// Path of rank `rank`'s snapshot within epoch `epoch`.
pub fn rank_snapshot_path(dir: &Path, epoch: u64, rank: usize) -> PathBuf {
    epoch_dir(dir, epoch).join(format!("rank-{rank}.json"))
}

/// Path of the run manifest within `dir`.
fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("run.json")
}

fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Write rank `snap.rank`'s snapshot for its epoch under `dir`,
/// atomically (temp file + rename — a crash mid-write never leaves a
/// half-readable file under the final name). Returns the final path.
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> io::Result<PathBuf> {
    let edir = epoch_dir(dir, snap.epoch);
    fs::create_dir_all(&edir)?;
    let path = edir.join(format!("rank-{}.json", snap.rank));
    write_atomic(&path, &snapshot_to_json(snap))?;
    Ok(path)
}

/// Load one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    snapshot_from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write the run manifest into `dir` (created if needed).
pub fn write_manifest(dir: &Path, m: &RunManifest) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = manifest_path(dir);
    write_atomic(&path, &manifest_to_json(m))?;
    Ok(path)
}

/// Load the run manifest from `dir`.
pub fn load_manifest(dir: &Path) -> Result<RunManifest, String> {
    let path = manifest_path(dir);
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    manifest_from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every epoch number with a directory under `dir`, ascending.
fn epoch_numbers(dir: &Path) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut epochs: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("epoch-")?
                .parse::<u64>()
                .ok()
        })
        .collect();
    epochs.sort_unstable();
    epochs
}

/// Newest epoch under `dir` whose snapshots form a complete
/// self-consistent cut (see [`load_epoch`]): all files of the epoch's
/// own mesh present, parseable, and agreeing on (epoch, mesh size,
/// sync id, cursor statement). Geometry is judged from the snapshots
/// themselves, not the manifest: an epoch left behind by a
/// pre-repartition geometry is still the latest usable cut — elastic
/// resume re-partitions it onto the manifest's current mesh — so a
/// relaunch that died before writing its first checkpoint in the new
/// geometry never strands the directory. A torn epoch (missing or
/// half-written file) still fails [`load_epoch`] and the scan falls
/// back to the next older one, so recovery always lands on a complete
/// consistent cut or reports none.
pub fn latest_consistent_epoch(dir: &Path) -> Option<u64> {
    epoch_numbers(dir)
        .into_iter()
        .rev()
        .find(|&epoch| load_epoch(dir, epoch).is_ok())
}

/// Load every rank's snapshot of one epoch, verifying consistency. The
/// epoch's mesh size is inferred from the files themselves: with `n`
/// `rank-<r>.json` files present, ranks `0..n` must all exist, each
/// claiming its own rank out of exactly `n` and the requested epoch,
/// all cut at the same sync visit with the same partition parts. This
/// makes a fully-written epoch loadable without the manifest (an
/// elastic resume reads old-geometry epochs this way after the manifest
/// has moved on), while a torn epoch — some ranks' files missing —
/// still fails, because the survivors claim a bigger mesh than the
/// files on disk.
pub fn load_epoch(dir: &Path, epoch: u64) -> Result<Vec<Snapshot>, String> {
    let edir = epoch_dir(dir, epoch);
    let entries = fs::read_dir(&edir).map_err(|e| format!("read {}: {e}", edir.display()))?;
    let ranks = entries
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("rank-")?.strip_suffix(".json"))
                .is_some_and(|r| r.parse::<usize>().is_ok())
        })
        .count();
    if ranks == 0 {
        return Err(format!(
            "epoch {epoch}: no rank snapshots under {}",
            edir.display()
        ));
    }
    let mut snaps = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let snap = load_snapshot(&rank_snapshot_path(dir, epoch, rank))?;
        if snap.rank != rank || snap.ranks != ranks || snap.epoch != epoch {
            return Err(format!(
                "epoch {epoch} rank {rank}: snapshot claims rank {}/{} epoch {}",
                snap.rank, snap.ranks, snap.epoch
            ));
        }
        snaps.push(snap);
    }
    let first = &snaps[0];
    for s in &snaps[1..] {
        if s.sync_id != first.sync_id || s.cursor.stmt != first.cursor.stmt {
            return Err(format!(
                "epoch {epoch}: ranks disagree on the cut point \
                 (sync {} stmt {} vs sync {} stmt {})",
                first.sync_id, first.cursor.stmt, s.sync_id, s.cursor.stmt
            ));
        }
        if s.parts != first.parts || s.cut != first.cut {
            return Err(format!(
                "epoch {epoch}: ranks disagree on partition geometry \
                 ({:?} vs {:?})",
                first.parts, s.parts
            ));
        }
    }
    Ok(snaps)
}

// ---------------------------------------------------------------------
// Region copy: the regather/scatter primitive
// ---------------------------------------------------------------------

/// Elements of the dimension declared `lo..=hi`, or `None` when it is
/// inverted past empty (`lo > hi + 1`) or the count overflows.
fn extent(lo: i64, hi: i64) -> Option<usize> {
    usize::try_from(hi.checked_sub(lo)?.checked_add(1)?).ok()
}

/// Elements an array declared with `bounds` holds (`None` as for
/// [`extent`], or when the product overflows).
fn element_count(bounds: &[(i64, i64)]) -> Option<usize> {
    bounds
        .iter()
        .try_fold(1usize, |len, &(lo, hi)| len.checked_mul(extent(lo, hi)?))
}

/// Copy the elements of `region` — per-dimension inclusive global index
/// ranges — from `src` into `dst`, both full-size column-major arrays
/// declared with `bounds`. This is the primitive both halves of elastic
/// repartitioning are built from: *regather* copies each old rank's
/// owned region into a global stitch buffer, *scatter* is a whole-array
/// copy of the stitched field into each new rank's snapshot. Returns
/// the number of elements copied.
///
/// The caller supplies regions already clamped to `bounds` (the
/// interpreter's `owned_region` does that); out-of-bounds regions or
/// wrong-size buffers are an error, never a silent partial copy.
pub fn copy_region(
    bounds: &[(i64, i64)],
    region: &[(i64, i64)],
    src: &[u64],
    dst: &mut [u64],
) -> Result<u64, String> {
    if region.len() != bounds.len() {
        return Err(format!(
            "copy_region: region has {} dims, bounds have {}",
            region.len(),
            bounds.len()
        ));
    }
    let mut len = 1usize;
    let mut strides = Vec::with_capacity(bounds.len());
    for (d, &(blo, bhi)) in bounds.iter().enumerate() {
        let (rlo, rhi) = region[d];
        if rlo < blo || rhi > bhi {
            return Err(format!(
                "copy_region: dim {d} region ({rlo}, {rhi}) outside bounds ({blo}, {bhi})"
            ));
        }
        strides.push(len);
        len = extent(blo, bhi)
            .and_then(|e| len.checked_mul(e))
            .ok_or("copy_region: bad bounds")?;
    }
    if src.len() != len || dst.len() != len {
        return Err(format!(
            "copy_region: bounds hold {len} elements, src has {} and dst has {}",
            src.len(),
            dst.len()
        ));
    }
    if region.iter().any(|&(lo, hi)| hi < lo) {
        return Ok(0); // empty region: nothing to move
    }
    // column-major odometer over the region, first dimension fastest
    let mut idx: Vec<i64> = region.iter().map(|&(lo, _)| lo).collect();
    let mut copied = 0u64;
    loop {
        let mut off = 0usize;
        for (d, &x) in idx.iter().enumerate() {
            off += strides[d] * usize::try_from(x - bounds[d].0).expect("in-bounds index");
        }
        dst[off] = src[off];
        copied += 1;
        let mut d = 0;
        loop {
            if d == idx.len() {
                return Ok(copied);
            }
            if idx[d] < region[d].1 {
                idx[d] += 1;
                break;
            }
            idx[d] = region[d].0;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(rank: usize, epoch: u64) -> Snapshot {
        Snapshot {
            rank,
            ranks: 2,
            parts: vec![2, 1],
            epoch,
            sync_id: 3,
            cursor: Cursor {
                stmt: 17,
                dos: vec![DoProgress {
                    var: "it".into(),
                    iv: 4,
                    step: 1,
                    remaining: 6,
                }],
            },
            cut: Some(CutSite {
                list_kind: 1,
                list_stmt: 9,
                arm: 0,
                gap: 2,
            }),
            arrays: vec![ArraySnap {
                name: "v".into(),
                bounds: vec![(1, 2), (0, 1)],
                is_int: false,
                data: vec![
                    1.5f64.to_bits(),
                    (-0.0f64).to_bits(),
                    f64::NAN.to_bits(),
                    f64::INFINITY.to_bits(),
                ],
            }],
            commons: vec![(
                "blk".into(),
                "w".into(),
                ArraySnap {
                    name: "w".into(),
                    bounds: vec![(1, 2)],
                    is_int: true,
                    data: vec![2.0f64.to_bits(), 3.0f64.to_bits()],
                },
            )],
            scalars: vec![
                ("i".into(), ScalarSnap::Int(-7)),
                ("err".into(), ScalarSnap::Real(1e-9f64.to_bits())),
                ("done".into(), ScalarSnap::Logical(true)),
                ("tag".into(), ScalarSnap::Str("frame".into())),
            ],
            input: vec![0.25f64.to_bits()],
            output: vec!["line one".into()],
            ops: OpsSnap {
                flops: 10,
                loads: 20,
                stores: 30,
                stmts: 40,
            },
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let s = sample_snapshot(1, 2);
        let back = snapshot_from_json(&snapshot_to_json(&s)).unwrap();
        assert_eq!(back, s);
        // NaN payload preserved exactly through the bits encoding
        assert_eq!(back.arrays[0].data[2], f64::NAN.to_bits());
    }

    #[test]
    fn manifest_round_trips() {
        let m = RunManifest {
            source: "      program p\n      end\n".into(),
            parts: vec![2, 1, 2],
            grid: vec![16, 8, 16],
            ranks: 4,
            distance: 3,
            optimize: true,
            overlap: false,
            checkpoint_every: 5,
            timeout_ms: 30_000,
            threads: 4,
        };
        let back = manifest_from_json(&manifest_to_json(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_threads_field_is_required() {
        // the schema always writes it: a manifest without it, or with a
        // value of the wrong type or sign, is an error, not a default
        let text = manifest_to_json(&sample_manifest(2));
        for (written, doctored, complaint) in [
            (",\"threads\":1", "", "missing `threads`"),
            (
                "\"threads\":1",
                "\"threads\":\"1\"",
                "`threads` is not an integer",
            ),
            ("\"threads\":1", "\"threads\":-3", "`threads` out of range"),
        ] {
            assert!(text.contains(written), "{text}");
            let err = manifest_from_json(&text.replace(written, doctored)).unwrap_err();
            assert!(err.contains(complaint), "{err}");
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let text =
            snapshot_to_json(&sample_snapshot(0, 0)).replace("\"version\":3", "\"version\":9");
        assert!(snapshot_from_json(&text).unwrap_err().contains("version 9"));
    }

    #[test]
    fn older_schema_is_refused_never_panics() {
        let snap = snapshot_to_json(&sample_snapshot(1, 3))
            .replace("\"version\":3", "\"version\":1")
            .replace(",\"parts\":[2,1]", "");
        let err = snapshot_from_json(&snap).unwrap_err();
        assert!(
            err.contains("version 1") && err.contains("reads 3"),
            "{err}"
        );
        // v2 manifests still carry the `engine` field this build dropped
        let manifest = manifest_to_json(&sample_manifest(2))
            .replace("\"version\":3", "\"version\":2,\"engine\":\"tree\"");
        let err = manifest_from_json(&manifest).unwrap_err();
        assert!(err.starts_with("run manifest: schema version 2"), "{err}");
        // a current-version snapshot that lost its geometry is an error too
        let no_parts = snapshot_to_json(&sample_snapshot(1, 3)).replace(",\"parts\":[2,1]", "");
        assert!(snapshot_from_json(&no_parts)
            .unwrap_err()
            .contains("missing `parts`"));
    }

    fn sample_manifest(ranks: usize) -> RunManifest {
        RunManifest {
            source: "      program p\n      end\n".into(),
            parts: vec![ranks as u32, 1],
            grid: vec![8, 8],
            ranks,
            distance: 1,
            optimize: true,
            overlap: false,
            checkpoint_every: 1,
            timeout_ms: 1000,
            threads: 1,
        }
    }

    #[test]
    fn torn_newest_epoch_falls_back() {
        let dir = std::env::temp_dir().join(format!("acfd-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_manifest(&dir, &sample_manifest(2)).unwrap();
        for epoch in [1, 2] {
            for rank in 0..2 {
                write_snapshot(&dir, &sample_snapshot(rank, epoch)).unwrap();
            }
        }
        assert_eq!(latest_consistent_epoch(&dir), Some(2));

        // truncate rank 1's newest snapshot mid-file: epoch 2 is torn
        let torn = rank_snapshot_path(&dir, 2, 1);
        let text = fs::read_to_string(&torn).unwrap();
        fs::write(&torn, &text[..text.len() / 2]).unwrap();
        assert_eq!(latest_consistent_epoch(&dir), Some(1));

        // remove it entirely: still epoch 1 (the survivor claims a
        // 2-rank mesh but only one file is on disk)
        fs::remove_file(&torn).unwrap();
        assert_eq!(latest_consistent_epoch(&dir), Some(1));

        // no epoch has all ranks → none
        fs::remove_file(rank_snapshot_path(&dir, 1, 0)).unwrap();
        fs::remove_file(rank_snapshot_path(&dir, 2, 0)).unwrap();
        assert_eq!(latest_consistent_epoch(&dir), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_geometry_epoch_still_selectable() {
        // an elastic resume rewrote the manifest from 2 ranks to 3 but
        // died before its first 3-rank checkpoint; the old 2-rank epoch
        // is a complete self-consistent cut and must still be selected
        // (the resume path re-partitions it onto the manifest geometry)
        let dir = std::env::temp_dir().join(format!("acfd-ckpt-elastic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_manifest(&dir, &sample_manifest(3)).unwrap();
        for rank in 0..2 {
            write_snapshot(&dir, &sample_snapshot(rank, 5)).unwrap();
        }
        // explicit load works (mesh size inferred from the files)...
        assert_eq!(load_epoch(&dir, 5).unwrap().len(), 2);
        // ...and so does automatic selection, despite the 3-rank manifest
        assert_eq!(latest_consistent_epoch(&dir), Some(5));
        // once a newer 3-rank epoch lands, it wins
        for rank in 0..3 {
            let mut s = sample_snapshot(rank, 6);
            s.ranks = 3;
            s.parts = vec![3, 1];
            write_snapshot(&dir, &s).unwrap();
        }
        assert_eq!(latest_consistent_epoch(&dir), Some(6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_cut_points_rejected() {
        let dir = std::env::temp_dir().join(format!("acfd-ckpt-cut-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_manifest(&dir, &sample_manifest(2)).unwrap();
        write_snapshot(&dir, &sample_snapshot(0, 1)).unwrap();
        let mut other = sample_snapshot(1, 1);
        other.sync_id = 9;
        write_snapshot(&dir, &other).unwrap();
        let err = load_epoch(&dir, 1).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
        assert_eq!(latest_consistent_epoch(&dir), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_geometry_rejected() {
        let dir = std::env::temp_dir().join(format!("acfd-ckpt-geom-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_snapshot(&dir, &sample_snapshot(0, 1)).unwrap();
        let mut other = sample_snapshot(1, 1);
        other.parts = vec![1, 2];
        write_snapshot(&dir, &other).unwrap();
        let err = load_epoch(&dir, 1).unwrap_err();
        assert!(err.contains("partition geometry"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn copy_region_moves_exactly_the_region() {
        // 2D array (1..4, 1..3) column-major; copy the (2..3, 2..3) block
        let bounds = [(1i64, 4), (1i64, 3)];
        let src: Vec<u64> = (100..112).collect();
        let mut dst = vec![0u64; 12];
        let n = copy_region(&bounds, &[(2, 3), (2, 3)], &src, &mut dst).unwrap();
        assert_eq!(n, 4);
        // element (i, j) sits at (i-1) + (j-1)*4
        let at = |i: i64, j: i64| ((i - 1) + (j - 1) * 4) as usize;
        for i in 1..=4 {
            for j in 1..=3 {
                let want = if (2..=3).contains(&i) && (2..=3).contains(&j) {
                    src[at(i, j)]
                } else {
                    0
                };
                assert_eq!(dst[at(i, j)], want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn copy_region_rejects_bad_shapes() {
        let bounds = [(1i64, 4)];
        let src = vec![0u64; 4];
        let mut dst = vec![0u64; 4];
        // region outside bounds
        assert!(copy_region(&bounds, &[(0, 2)], &src, &mut dst).is_err());
        // wrong dimensionality
        assert!(copy_region(&bounds, &[(1, 2), (1, 2)], &src, &mut dst).is_err());
        // wrong buffer size
        let mut short = vec![0u64; 3];
        assert!(copy_region(&bounds, &[(1, 2)], &src, &mut short).is_err());
        // empty region copies nothing
        assert_eq!(copy_region(&bounds, &[(3, 2)], &src, &mut dst).unwrap(), 0);
        // extents that overflow are refused, not wrapped
        let huge = [(i64::MIN, i64::MAX)];
        assert!(copy_region(&huge, &[(0, 0)], &src, &mut dst).is_err());
        // the top index of i64 is reachable without stepping past it
        let top = [(i64::MAX - 1, i64::MAX)];
        let (src, mut dst) = (vec![5u64, 6], vec![0u64; 2]);
        assert_eq!(copy_region(&top, &top, &src, &mut dst).unwrap(), 2);
        assert_eq!(dst, src);
    }

    #[test]
    fn snapshot_bounds_must_match_the_data() {
        let corrupt = |bounds: Vec<(i64, i64)>| {
            let mut s = sample_snapshot(0, 1);
            s.arrays[0].bounds = bounds;
            snapshot_from_json(&snapshot_to_json(&s)).unwrap_err()
        };
        // extreme bounds: the extent overflows i64
        let err = corrupt(vec![(i64::MIN, i64::MAX)]);
        assert!(
            err.starts_with("snapshot:") && err.contains("bad bounds"),
            "{err}"
        );
        // inverted past empty
        assert!(corrupt(vec![(5, 2), (0, 1)]).contains("bad bounds"));
        // the product of the extents overflows usize
        assert!(corrupt(vec![(0, i64::MAX - 1), (0, 3)]).contains("bad bounds"));
        // well-formed extents that disagree with the data length
        let err = corrupt(vec![(1, 3), (0, 1)]);
        assert!(err.contains("hold 6 elements, data has 4"), "{err}");
        assert!(corrupt(vec![(1, 1)]).contains("hold 1 elements"));
    }

    #[test]
    fn write_is_atomic_under_final_name() {
        let dir = std::env::temp_dir().join(format!("acfd-ckpt-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = write_snapshot(&dir, &sample_snapshot(0, 7)).unwrap();
        assert!(path.ends_with("epoch-7/rank-0.json"));
        // no stray temp file left behind
        let names: Vec<String> = fs::read_dir(epoch_dir(&dir, 7))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["rank-0.json"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
