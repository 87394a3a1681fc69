//! IR data model.

use autocfd_fortran::directive::DimMap;
use autocfd_fortran::{DirectiveSet, SourceFile, StmtId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a loop within one unit's loop table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LoopId(pub u32);

impl std::fmt::Display for LoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// How a subscript expression relates to the enclosing loop nest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexPattern {
    /// `var + offset` where `var` is an enclosing loop's induction
    /// variable (offset may be 0 or negative): the regular stencil case.
    LoopVar {
        /// Induction-variable name.
        var: String,
        /// Constant offset (…, -1, 0, 1, …) — the *dependency distance*
        /// direction/magnitude of §4.2 case 5.
        offset: i64,
    },
    /// A compile-time constant subscript (boundary code, §4.2 case 3).
    Constant(i64),
    /// A scalar variable that is not an enclosing induction variable
    /// (e.g. packed-dimension selectors, §4.2 case 4).
    Scalar(String),
    /// Anything more complex (indirect indexing, products, …).
    Other,
}

impl IndexPattern {
    /// The stencil offset if this is a `LoopVar` pattern.
    pub fn offset(&self) -> Option<i64> {
        match self {
            IndexPattern::LoopVar { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

/// One read or write of a status array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayAccess {
    /// Statement containing the access.
    pub stmt: StmtId,
    /// Source line of that statement.
    pub line: u32,
    /// Innermost enclosing loop, if any.
    pub loop_id: Option<LoopId>,
    /// Status-array name.
    pub array: String,
    /// True for the assignment target, false for references.
    pub is_assign: bool,
    /// Decoded subscripts, one per array dimension.
    pub patterns: Vec<IndexPattern>,
}

/// A `call` statement site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallSite {
    /// The call statement.
    pub stmt: StmtId,
    /// Source line.
    pub line: u32,
    /// Callee (lower-cased).
    pub callee: String,
    /// Innermost enclosing loop, if any.
    pub loop_id: Option<LoopId>,
}

/// Everything known about one loop (a `do` or `do while` statement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopInfo {
    /// This loop's id.
    pub id: LoopId,
    /// The `do` statement's id.
    pub stmt: StmtId,
    /// Induction variable (empty for `do while`).
    pub var: String,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Direct inner loops, in source order.
    pub children: Vec<LoopId>,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// First source line of the loop (the `do` line).
    pub line_start: u32,
    /// Last source line of the loop body.
    pub line_end: u32,
    /// Status arrays assigned anywhere in this loop's nest (inclusive).
    pub assigned: BTreeSet<String>,
    /// Status arrays referenced anywhere in this loop's nest (inclusive).
    pub referenced: BTreeSet<String>,
    /// True if this loop's own induction variable subscripts a status
    /// dimension of some status array inside its body.
    pub indexes_status_dim: bool,
    /// True if this is a *field loop root*: it indexes a status dimension
    /// and no enclosing loop does (the paper's unit of analysis — a whole
    /// grid sweep such as a `do i … do j …` nest).
    pub is_field_root: bool,
}

/// Metadata for one status array (grid-state array, §2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusArrayInfo {
    /// Array name.
    pub name: String,
    /// Declared dimension extents, resolved to constants where possible
    /// (per unit of first declaration).
    pub extents: Vec<Option<i64>>,
    /// Declared lower bounds (default 1).
    pub lower_bounds: Vec<i64>,
    /// Per-dimension mapping onto grid axes; `dim_axis[d] = Some(a)` means
    /// array dimension `d` spans grid axis `a`; `None` marks a packed /
    /// extended dimension (§4.2 case 4).
    pub dim_axis: Vec<Option<usize>>,
}

impl StatusArrayInfo {
    /// Build the default in-order mapping for an array of `ndims`
    /// dimensions against a `grid_rank`-dimensional flow field.
    pub fn default_mapping(ndims: usize, grid_rank: usize) -> Vec<Option<usize>> {
        (0..ndims).map(|d| (d < grid_rank).then_some(d)).collect()
    }

    /// Apply a `!$acf status v(i,j,*)`-style mapping.
    pub fn mapping_from_directive(mapping: &[DimMap]) -> Vec<Option<usize>> {
        mapping
            .iter()
            .map(|m| match m {
                DimMap::Axis(a) => Some(*a),
                DimMap::Packed => None,
            })
            .collect()
    }
}

/// IR for one program unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitIr {
    /// Unit name.
    pub name: String,
    /// Loop table (index = `LoopId.0`).
    pub loops: Vec<LoopInfo>,
    /// Top-level loops of the unit body, in source order.
    pub root_loops: Vec<LoopId>,
    /// All status-array accesses in this unit.
    pub accesses: Vec<ArrayAccess>,
    /// All call sites in this unit.
    pub calls: Vec<CallSite>,
    /// Program-order index of every statement (pre-order).
    pub stmt_order: BTreeMap<StmtId, usize>,
    /// Source line of every statement.
    pub stmt_line: BTreeMap<StmtId, u32>,
    /// Innermost enclosing loop of every statement (if any).
    pub stmt_loop: BTreeMap<StmtId, Option<LoopId>>,
    /// Map from a `do` statement's id to its loop id.
    pub do_stmt_loop: BTreeMap<StmtId, LoopId>,
}

impl UnitIr {
    /// Lookup a loop.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.0 as usize]
    }

    /// Iterate over all field-root loops.
    pub fn field_roots(&self) -> impl Iterator<Item = &LoopInfo> {
        self.loops.iter().filter(|l| l.is_field_root)
    }

    /// Accesses to `array` within loop `id`'s nest (inclusive).
    pub fn accesses_in_loop<'a>(
        &'a self,
        id: LoopId,
        array: &'a str,
    ) -> impl Iterator<Item = &'a ArrayAccess> {
        self.accesses.iter().filter(move |a| {
            a.array == array && a.loop_id.map(|l| self.is_in_loop(l, id)).unwrap_or(false)
        })
    }

    /// True if loop `inner` is `outer` or nested (at any depth) inside it.
    pub fn is_in_loop(&self, inner: LoopId, outer: LoopId) -> bool {
        let mut cur = Some(inner);
        while let Some(c) = cur {
            if c == outer {
                return true;
            }
            cur = self.loop_info(c).parent;
        }
        false
    }
}

/// IR for a whole program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramIr {
    /// The original AST (edited later by the restructurer).
    pub file: SourceFile,
    /// Aggregated `!$acf` directives.
    pub directives: DirectiveSet,
    /// Status-array metadata, keyed by name.
    pub status_arrays: BTreeMap<String, StatusArrayInfo>,
    /// Per-unit IR, parallel to `file.units`.
    pub units: Vec<UnitIr>,
}

impl ProgramIr {
    /// The grid rank (2 or 3) from the `grid` directive.
    pub fn grid_rank(&self) -> usize {
        self.directives.grid.as_ref().map_or(0, |g| g.len())
    }

    /// Grid extents from the `grid` directive.
    pub fn grid_extents(&self) -> Vec<u64> {
        self.directives.grid.clone().unwrap_or_default()
    }

    /// Find a unit's IR by name.
    pub fn unit(&self, name: &str) -> Option<&UnitIr> {
        self.units.iter().find(|u| u.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_pattern_offset() {
        let p = IndexPattern::LoopVar {
            var: "i".into(),
            offset: -1,
        };
        assert_eq!(p.offset(), Some(-1));
        assert_eq!(IndexPattern::Constant(5).offset(), None);
        assert_eq!(IndexPattern::Other.offset(), None);
    }

    #[test]
    fn default_mapping_in_order() {
        assert_eq!(
            StatusArrayInfo::default_mapping(3, 3),
            vec![Some(0), Some(1), Some(2)]
        );
        // 4-dim array over a 3-d grid: trailing dim is packed
        assert_eq!(
            StatusArrayInfo::default_mapping(4, 3),
            vec![Some(0), Some(1), Some(2), None]
        );
        // 2-dim array over 2-d grid
        assert_eq!(
            StatusArrayInfo::default_mapping(2, 2),
            vec![Some(0), Some(1)]
        );
    }

    #[test]
    fn mapping_from_directive() {
        use autocfd_fortran::directive::DimMap;
        assert_eq!(
            StatusArrayInfo::mapping_from_directive(&[
                DimMap::Packed,
                DimMap::Axis(0),
                DimMap::Axis(1)
            ]),
            vec![None, Some(0), Some(1)]
        );
    }
}
