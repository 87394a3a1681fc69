//! The `!$acf` directive language (the paper's Appendix 1).
//!
//! Auto-CFD is "highly automatic, requiring a minimum number of user
//! directives" (§1). The directives only *describe* the CFD application
//! and the cluster — they never express parallelization strategy:
//!
//! * `!$acf grid(99, 41, 13)` — flow-field extents per grid axis
//!   (2 or 3 axes). This tells the pre-compiler which problem dimensions
//!   exist; everything else is inferred.
//! * `!$acf status v, u, p(i,j,k), q(*,i,j)` — which arrays are *status
//!   arrays* (§2). An optional mapping names, per array dimension, the
//!   grid axis it spans (`i`/`j`/`k`) or `*` for a packed/extended
//!   dimension that is not a status dimension (§4.2 case 4). Without a
//!   mapping, array dimensions map to grid axes in order.
//! * `!$acf partition(4, 1, 1)` — requested processor grid (optional;
//!   the partitioner chooses automatically when absent).
//! * `!$acf distance 2` — maximum dependency distance override
//!   (§4.2 case 5, multiple-grid methods); default 1 per stencil
//!   analysis.
//! * `!$acf cluster(nodes = 6, net = ethernet)` — cluster description
//!   used by the cost model.

use crate::error::{FortranError, Result};
use serde::{Deserialize, Serialize};

/// How one dimension of a status array maps onto the flow field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimMap {
    /// This array dimension spans grid axis `0..=2` (i/j/k).
    Axis(usize),
    /// Packed/extended dimension unrelated to the grid (§4.2 case 4).
    Packed,
}

/// A status-array declaration from a `status` directive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusArrayDecl {
    /// Array name (lower-cased).
    pub name: String,
    /// Per-dimension mapping; `None` means "in order" (dimension d ↦ axis d).
    pub mapping: Option<Vec<DimMap>>,
}

/// One parsed `!$acf` directive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Directive {
    /// `grid(n1, n2[, n3])`
    Grid {
        /// Flow-field extents per axis.
        dims: Vec<u64>,
    },
    /// `status a, b(i,j), c(*,i,j)`
    Status {
        /// Declared status arrays.
        arrays: Vec<StatusArrayDecl>,
    },
    /// `partition(x, y[, z])`
    Partition {
        /// Parts per axis.
        parts: Vec<u32>,
    },
    /// `distance d`
    Distance {
        /// Maximum dependency distance.
        d: u32,
    },
    /// `cluster(nodes = 6, net = ethernet)`
    Cluster {
        /// Number of cluster nodes.
        nodes: u32,
        /// Interconnect name (`ethernet`, `myrinet`, …).
        net: String,
    },
}

impl Directive {
    /// Parse the body text that followed `!$acf` on a directive line.
    pub fn parse(body: &str, line: u32) -> Result<Self> {
        let body = body.trim();
        let err = |m: String| FortranError::directive(line, m);
        let (head, rest) = split_head(body);
        match head.as_str() {
            "grid" => {
                let args = paren_args(rest, line)?;
                let dims: Vec<u64> = args
                    .iter()
                    .map(|a| {
                        a.trim()
                            .parse::<u64>()
                            .map_err(|_| err(format!("bad grid extent `{a}`")))
                    })
                    .collect::<Result<_>>()?;
                if !(2..=3).contains(&dims.len()) {
                    return Err(err(format!(
                        "grid needs 2 or 3 extents, got {}",
                        dims.len()
                    )));
                }
                if dims.iter().any(|&d| d < 2) {
                    return Err(err("grid extents must be >= 2".into()));
                }
                Ok(Directive::Grid { dims })
            }
            "status" => {
                let arrays = split_top_commas(rest)
                    .into_iter()
                    .map(|item| parse_status_item(item.trim(), line))
                    .collect::<Result<Vec<_>>>()?;
                if arrays.is_empty() {
                    return Err(err("status directive lists no arrays".into()));
                }
                Ok(Directive::Status { arrays })
            }
            "partition" => {
                let args = paren_args(rest, line)?;
                let parts: Vec<u32> = args
                    .iter()
                    .map(|a| {
                        a.trim()
                            .parse::<u32>()
                            .map_err(|_| err(format!("bad partition count `{a}`")))
                    })
                    .collect::<Result<_>>()?;
                if parts.is_empty() || parts.contains(&0) {
                    return Err(err("partition counts must be positive".into()));
                }
                Ok(Directive::Partition { parts })
            }
            "distance" => {
                let d: u32 = rest
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad distance `{rest}`")))?;
                if d == 0 {
                    return Err(err("distance must be >= 1".into()));
                }
                Ok(Directive::Distance { d })
            }
            "cluster" => {
                let args = paren_args(rest, line)?;
                let mut nodes = None;
                let mut net = "ethernet".to_string();
                for a in args {
                    let (k, v) = a
                        .split_once('=')
                        .ok_or_else(|| err(format!("cluster arg `{a}` is not key = value")))?;
                    match k.trim() {
                        "nodes" => {
                            nodes = Some(
                                v.trim()
                                    .parse::<u32>()
                                    .map_err(|_| err(format!("bad node count `{v}`")))?,
                            )
                        }
                        "net" => net = v.trim().to_ascii_lowercase(),
                        other => return Err(err(format!("unknown cluster key `{other}`"))),
                    }
                }
                let nodes = nodes.ok_or_else(|| err("cluster needs nodes = N".into()))?;
                Ok(Directive::Cluster { nodes, net })
            }
            other => Err(err(format!("unknown directive `{other}`"))),
        }
    }

    /// Body text suitable for re-printing after `!$acf `.
    pub fn display_body(&self) -> String {
        match self {
            Directive::Grid { dims } => {
                let d: Vec<String> = dims.iter().map(|v| v.to_string()).collect();
                format!("grid({})", d.join(", "))
            }
            Directive::Status { arrays } => {
                let items: Vec<String> = arrays
                    .iter()
                    .map(|a| match &a.mapping {
                        None => a.name.clone(),
                        Some(m) => {
                            let parts: Vec<&str> = m
                                .iter()
                                .map(|d| match d {
                                    DimMap::Axis(0) => "i",
                                    DimMap::Axis(1) => "j",
                                    DimMap::Axis(2) => "k",
                                    DimMap::Axis(_) => "?",
                                    DimMap::Packed => "*",
                                })
                                .collect();
                            format!("{}({})", a.name, parts.join(","))
                        }
                    })
                    .collect();
                format!("status {}", items.join(", "))
            }
            Directive::Partition { parts } => {
                let p: Vec<String> = parts.iter().map(|v| v.to_string()).collect();
                format!("partition({})", p.join(", "))
            }
            Directive::Distance { d } => format!("distance {d}"),
            Directive::Cluster { nodes, net } => format!("cluster(nodes = {nodes}, net = {net})"),
        }
    }
}

fn split_head(body: &str) -> (String, &str) {
    let end = body
        .char_indices()
        .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_')
        .map(|(i, _)| i)
        .unwrap_or(body.len());
    (body[..end].to_ascii_lowercase(), &body[end..])
}

fn paren_args(rest: &str, line: u32) -> Result<Vec<String>> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| {
            FortranError::directive(line, format!("expected (...) args, got `{rest}`"))
        })?;
    Ok(split_top_commas(inner)
        .into_iter()
        .map(|s| s.to_string())
        .collect())
}

/// Split on commas that are not inside parentheses.
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

fn parse_status_item(item: &str, line: u32) -> Result<StatusArrayDecl> {
    let err = |m: String| FortranError::directive(line, m);
    if let Some(open) = item.find('(') {
        let name = item[..open].trim().to_ascii_lowercase();
        let inner = item[open..]
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| err(format!("bad status mapping `{item}`")))?;
        let mapping = inner
            .split(',')
            .map(|p| match p.trim() {
                "i" => Ok(DimMap::Axis(0)),
                "j" => Ok(DimMap::Axis(1)),
                "k" => Ok(DimMap::Axis(2)),
                "*" => Ok(DimMap::Packed),
                other => Err(err(format!(
                    "bad dimension marker `{other}` (want i/j/k/*)"
                ))),
            })
            .collect::<Result<Vec<_>>>()?;
        if name.is_empty() {
            return Err(err(format!("missing array name in `{item}`")));
        }
        Ok(StatusArrayDecl {
            name,
            mapping: Some(mapping),
        })
    } else {
        let name = item.trim().to_ascii_lowercase();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err(format!("bad status array name `{item}`")));
        }
        Ok(StatusArrayDecl {
            name,
            mapping: None,
        })
    }
}

/// Aggregated view of all directives in a file, with conflict checking.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DirectiveSet {
    /// Flow-field extents (from `grid`).
    pub grid: Option<Vec<u64>>,
    /// Declared status arrays (from all `status` directives, concatenated).
    pub status: Vec<StatusArrayDecl>,
    /// Requested processor grid.
    pub partition: Option<Vec<u32>>,
    /// Dependency-distance override.
    pub distance: Option<u32>,
    /// Cluster description `(nodes, net)`.
    pub cluster: Option<(u32, String)>,
}

impl DirectiveSet {
    /// Fold a directive list into an aggregated set; later duplicates of
    /// singleton directives are rejected.
    pub fn from_directives(directives: &[Directive]) -> Result<Self> {
        let mut set = DirectiveSet::default();
        for d in directives {
            match d {
                Directive::Grid { dims } => {
                    if set.grid.replace(dims.clone()).is_some() {
                        return Err(FortranError::directive(0, "duplicate grid directive"));
                    }
                }
                Directive::Status { arrays } => set.status.extend(arrays.iter().cloned()),
                Directive::Partition { parts } => {
                    if set.partition.replace(parts.clone()).is_some() {
                        return Err(FortranError::directive(0, "duplicate partition directive"));
                    }
                }
                Directive::Distance { d } => {
                    if set.distance.replace(*d).is_some() {
                        return Err(FortranError::directive(0, "duplicate distance directive"));
                    }
                }
                Directive::Cluster { nodes, net } => {
                    if set.cluster.replace((*nodes, net.clone())).is_some() {
                        return Err(FortranError::directive(0, "duplicate cluster directive"));
                    }
                }
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(body: &str) -> Directive {
        Directive::parse(body, 1).unwrap()
    }

    #[test]
    fn grid_directive() {
        assert_eq!(
            p("grid(99, 41, 13)"),
            Directive::Grid {
                dims: vec![99, 41, 13]
            }
        );
        assert_eq!(
            p("grid(300,100)"),
            Directive::Grid {
                dims: vec![300, 100]
            }
        );
    }

    #[test]
    fn grid_rejects_bad_arity() {
        assert!(Directive::parse("grid(5)", 1).is_err());
        assert!(Directive::parse("grid(1,2,3,4)", 1).is_err());
        assert!(Directive::parse("grid(0, 10)", 1).is_err());
    }

    #[test]
    fn status_plain() {
        let d = p("status v, u, pres");
        match d {
            Directive::Status { arrays } => {
                assert_eq!(arrays.len(), 3);
                assert_eq!(arrays[0].name, "v");
                assert!(arrays[0].mapping.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn status_with_mapping() {
        let d = p("status q(*, i, j), v(i,j,k)");
        match d {
            Directive::Status { arrays } => {
                assert_eq!(
                    arrays[0].mapping,
                    Some(vec![DimMap::Packed, DimMap::Axis(0), DimMap::Axis(1)])
                );
                assert_eq!(
                    arrays[1].mapping,
                    Some(vec![DimMap::Axis(0), DimMap::Axis(1), DimMap::Axis(2)])
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn status_bad_marker_rejected() {
        assert!(Directive::parse("status q(x, y)", 1).is_err());
    }

    #[test]
    fn partition_directive() {
        assert_eq!(
            p("partition(4, 1, 1)"),
            Directive::Partition {
                parts: vec![4, 1, 1]
            }
        );
        assert!(Directive::parse("partition(0, 2)", 1).is_err());
    }

    #[test]
    fn distance_directive() {
        assert_eq!(p("distance 2"), Directive::Distance { d: 2 });
        assert!(Directive::parse("distance 0", 1).is_err());
    }

    #[test]
    fn cluster_directive() {
        assert_eq!(
            p("cluster(nodes = 6, net = ethernet)"),
            Directive::Cluster {
                nodes: 6,
                net: "ethernet".into()
            }
        );
        assert!(Directive::parse("cluster(net = ethernet)", 1).is_err());
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(Directive::parse("frobnicate(1)", 1).is_err());
    }

    #[test]
    fn display_roundtrip() {
        for body in [
            "grid(99, 41, 13)",
            "status v, u, q(*,i,j)",
            "partition(4, 4)",
            "distance 2",
            "cluster(nodes = 6, net = ethernet)",
        ] {
            let d = p(body);
            let d2 = Directive::parse(&d.display_body(), 1).unwrap();
            assert_eq!(d, d2);
        }
    }

    #[test]
    fn directive_set_aggregation() {
        let ds = DirectiveSet::from_directives(&[
            p("grid(300,100)"),
            p("status v"),
            p("status u, w"),
            p("partition(2,2)"),
        ])
        .unwrap();
        assert_eq!(ds.grid, Some(vec![300, 100]));
        let names: Vec<&str> = ds.status.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["v", "u", "w"]);
        assert_eq!(ds.partition, Some(vec![2, 2]));
    }

    #[test]
    fn directive_set_rejects_duplicates() {
        assert!(DirectiveSet::from_directives(&[p("grid(10,10)"), p("grid(20,20)")]).is_err());
        assert!(DirectiveSet::from_directives(&[p("distance 1"), p("distance 2")]).is_err());
    }
}
