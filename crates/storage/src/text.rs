//! Plain-text edge-list import/export (SNAP / DIMACS-style).
//!
//! Real datasets — the Twitter follower graph, the DIMACS road graphs —
//! ship as text edge lists. This module reads the two common dialects
//! and writes the simple one, so downstream users can run this system
//! on the paper's actual inputs:
//!
//! * **SNAP**: one `src dst` (or `src\tdst`) pair per line, `#`
//!   comments; weighted variant has a third `weight` column.
//! * **DIMACS `.gr`**: `c` comment lines, one `p sp <n> <m>` problem
//!   line, `a <src> <dst> <weight>` arc lines with **1-based** vertex
//!   ids.

use std::io::{BufRead, BufReader, Read, Write};

use egraph_core::types::{EdgeList, EdgeRecord, GraphError, WEdge};

/// Errors produced while parsing text graph formats.
#[derive(Debug)]
pub enum TextError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// Line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed edges do not form a valid graph.
    Graph(GraphError),
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::Io(e) => write!(f, "i/o error: {e}"),
            TextError::Parse { line, message } => write!(f, "line {line}: {message}"),
            TextError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for TextError {}

impl From<std::io::Error> for TextError {
    fn from(e: std::io::Error) -> Self {
        TextError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> TextError {
    TextError::Parse {
        line,
        message: message.into(),
    }
}

/// Reads a SNAP-style edge list: whitespace-separated `src dst
/// [weight]` per line, `#` comments. The vertex count is
/// `max id + 1` unless `num_vertices` pins it.
///
/// # Errors
///
/// Returns [`TextError`] on malformed lines or out-of-range ids.
pub fn read_snap<E: EdgeRecord, R: Read>(
    r: R,
    num_vertices: Option<usize>,
) -> Result<EdgeList<E>, TextError> {
    let mut edges: Vec<E> = Vec::new();
    let mut max_id = 0u32;
    for (i, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let src: u32 = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing source"))?
            .parse()
            .map_err(|_| parse_err(i + 1, "source is not a vertex id"))?;
        let dst: u32 = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing destination"))?
            .parse()
            .map_err(|_| parse_err(i + 1, "destination is not a vertex id"))?;
        let weight: f32 = match parts.next() {
            None => 1.0,
            Some(w) => w
                .parse()
                .map_err(|_| parse_err(i + 1, "weight is not a number"))?,
        };
        if parts.next().is_some() {
            return Err(parse_err(i + 1, "trailing fields"));
        }
        max_id = max_id.max(src).max(dst);
        edges.push(E::new(src, dst, weight));
    }
    let nv = num_vertices.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    EdgeList::new(nv, edges).map_err(TextError::Graph)
}

/// Reads a DIMACS shortest-path `.gr` file (1-based ids, `a` arc
/// lines, weights required).
///
/// # Errors
///
/// Returns [`TextError`] on malformed lines, a missing problem line,
/// or id/count mismatches.
pub fn read_dimacs<R: Read>(r: R) -> Result<EdgeList<WEdge>, TextError> {
    let mut edges: Vec<WEdge> = Vec::new();
    let mut declared: Option<(usize, usize)> = None;
    for (i, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            let mut parts = rest.split_whitespace();
            let kind = parts.next().unwrap_or("");
            if kind != "sp" {
                return Err(parse_err(
                    i + 1,
                    format!("unsupported problem type '{kind}'"),
                ));
            }
            let n: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(i + 1, "bad vertex count"))?;
            let m: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(i + 1, "bad arc count"))?;
            declared = Some((n, m));
            edges.reserve(m);
            continue;
        }
        if let Some(rest) = line.strip_prefix("a ") {
            let (n, _) = declared.ok_or_else(|| parse_err(i + 1, "arc before problem line"))?;
            let mut parts = rest.split_whitespace();
            let src: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(i + 1, "bad source"))?;
            let dst: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(i + 1, "bad destination"))?;
            let weight: f32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(i + 1, "bad weight"))?;
            if src == 0 || dst == 0 || src > n || dst > n {
                return Err(parse_err(i + 1, "vertex id out of the declared range"));
            }
            edges.push(WEdge::new(src as u32 - 1, dst as u32 - 1, weight));
            continue;
        }
        return Err(parse_err(i + 1, format!("unrecognized line '{line}'")));
    }
    let (n, m) = declared.ok_or_else(|| parse_err(0, "missing problem line"))?;
    if edges.len() != m {
        return Err(parse_err(
            0,
            format!("problem line declared {m} arcs, file has {}", edges.len()),
        ));
    }
    EdgeList::new(n, edges).map_err(TextError::Graph)
}

/// Writes a SNAP-style edge list (`src dst` or `src dst weight` per
/// line, with a header comment).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_snap<E: EdgeRecord, W: Write>(mut w: W, graph: &EdgeList<E>) -> std::io::Result<()> {
    writeln!(
        w,
        "# {} vertices, {} edges{}",
        graph.num_vertices(),
        graph.num_edges(),
        if E::WEIGHTED { ", weighted" } else { "" }
    )?;
    let mut buf = String::with_capacity(1 << 16);
    for e in graph.edges() {
        use std::fmt::Write as _;
        if E::WEIGHTED {
            let _ = writeln!(buf, "{} {} {}", e.src(), e.dst(), e.weight());
        } else {
            let _ = writeln!(buf, "{} {}", e.src(), e.dst());
        }
        if buf.len() > (1 << 16) - 64 {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    w.write_all(buf.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::types::Edge;

    #[test]
    fn snap_roundtrip_unweighted() {
        let graph = EdgeList::new(4, vec![Edge::new(0, 1), Edge::new(3, 2)]).unwrap();
        let mut text = Vec::new();
        write_snap(&mut text, &graph).unwrap();
        let back: EdgeList<Edge> = read_snap(&text[..], None).unwrap();
        assert_eq!(back, graph);
    }

    #[test]
    fn snap_roundtrip_weighted() {
        let graph = EdgeList::new(3, vec![WEdge::new(0, 1, 2.5), WEdge::new(2, 0, 0.25)]).unwrap();
        let mut text = Vec::new();
        write_snap(&mut text, &graph).unwrap();
        let back: EdgeList<WEdge> = read_snap(&text[..], None).unwrap();
        assert_eq!(back, graph);
    }

    #[test]
    fn snap_skips_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n# middle\n1\t2\n";
        let g: EdgeList<Edge> = read_snap(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn snap_reports_line_numbers() {
        let text = "0 1\nbanana 2\n";
        match read_snap::<Edge, _>(text.as_bytes(), None) {
            Err(TextError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn snap_pinned_vertex_count_validates() {
        let text = "0 5\n";
        assert!(read_snap::<Edge, _>(text.as_bytes(), Some(3)).is_err());
        assert!(read_snap::<Edge, _>(text.as_bytes(), Some(6)).is_ok());
    }

    #[test]
    fn dimacs_parses_one_based_ids() {
        let text = "c example\np sp 3 2\na 1 2 5\na 3 1 7\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edges()[0], WEdge::new(0, 1, 5.0));
        assert_eq!(g.edges()[1], WEdge::new(2, 0, 7.0));
    }

    #[test]
    fn dimacs_detects_count_mismatch() {
        let text = "p sp 3 5\na 1 2 5\n";
        assert!(matches!(
            read_dimacs(text.as_bytes()),
            Err(TextError::Parse { .. })
        ));
    }

    #[test]
    fn dimacs_rejects_out_of_range_ids() {
        let text = "p sp 2 1\na 1 9 5\n";
        assert!(read_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn dimacs_rejects_arc_before_problem_line() {
        let text = "a 1 2 5\n";
        assert!(read_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_snap_is_empty_graph() {
        let g: EdgeList<Edge> = read_snap("# nothing\n".as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
