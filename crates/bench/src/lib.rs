//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! The binaries in `src/bin` regenerate every table and figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index); this
//! library holds the bits they share: fixed-width table printing, CSV
//! emission, and an ASCII heatmap for the Fig. 3/4 surfaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod manifest;

pub use diff::{
    diff_manifests, diff_verdict, render_diff, render_failures, DiffConfig, DiffReport,
    DiffVerdict, GateFailure,
};
pub use manifest::{parse_metrics_flag, RunManifest};

use std::fmt::Write as _;

/// Render a right-aligned table: `header` then `rows`, each cell padded
/// to its column's width.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (cell, w) in cells.iter().zip(widths) {
            let _ = write!(out, "{cell:>w$}  ", w = w);
        }
        out.push('\n');
    };
    fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Quote a CSV cell per RFC 4180 when it needs it: cells containing a
/// comma, double quote, or line break are wrapped in double quotes with
/// embedded quotes doubled. Plain cells pass through unchanged.
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Emit a CSV block. Cells are escaped per RFC 4180 ([`csv_escape`]),
/// so free-text columns (method names, error strings) survive commas,
/// quotes, and newlines.
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let fmt_row = |cells: &mut dyn Iterator<Item = &str>, out: &mut String| {
        let mut first = true;
        for cell in cells {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&csv_escape(cell));
        }
        out.push('\n');
    };
    fmt_row(&mut header.iter().copied(), &mut out);
    for row in rows {
        fmt_row(&mut row.iter().map(String::as_str), &mut out);
    }
    out
}

/// Parse a CSV block produced by [`render_csv`] back into rows
/// (header included as the first row). Handles quoted cells with
/// embedded commas, doubled quotes, and line breaks; returns `Err` on
/// an unterminated quote.
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    cell.push('"');
                }
                '"' => in_quotes = false,
                other => cell.push(other),
            }
            continue;
        }
        match c {
            '"' => in_quotes = true,
            ',' => row.push(std::mem::take(&mut cell)),
            '\r' => {}
            '\n' => {
                row.push(std::mem::take(&mut cell));
                rows.push(std::mem::take(&mut row));
            }
            other => cell.push(other),
        }
    }
    if in_quotes {
        return Err("unterminated quoted cell".into());
    }
    // A final line without a trailing newline still counts.
    if any && (!cell.is_empty() || !row.is_empty()) {
        row.push(cell);
        rows.push(row);
    }
    Ok(rows)
}

/// An ASCII heatmap of a row-major grid (`None` = infeasible cell).
/// Values map onto the ramp `" .:-=+*#%@"` between `lo` and `hi`;
/// infeasible cells print `x`.
pub fn render_heatmap(
    grid: &[Vec<Option<f64>>],
    lo: f64,
    hi: f64,
    row_labels: &[String],
    title: &str,
) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{title}  [{lo:.2} '{}' .. '{}' {hi:.2}, x = infeasible]",
        RAMP[0] as char,
        RAMP[RAMP.len() - 1] as char
    );
    for (row, label) in grid.iter().zip(row_labels) {
        let _ = write!(out, "{label:>12} |");
        for cell in row {
            let ch = match cell {
                None => 'x',
                Some(v) => {
                    let f = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                    RAMP[((f * (RAMP.len() - 1) as f64).round()) as usize] as char
                }
            };
            out.push(ch);
        }
        out.push_str("|\n");
    }
    out
}

/// Format a float with fixed decimals, or a placeholder for `None`.
pub fn opt_fmt(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:.decimals$}"),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        assert!(t.contains("long-name"));
        assert!(t.lines().count() == 4);
        // Header and rows align on the same column width.
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_checks_row_width() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn csv_renders() {
        let c = render_csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "x,y\n1,2\n");
    }

    #[test]
    fn csv_escapes_special_cells() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        let c = render_csv(&["note"], &[vec!["x, y".into()]]);
        assert_eq!(c, "note\n\"x, y\"\n");
    }

    #[test]
    fn csv_round_trips_hostile_cells() {
        let rows = vec![
            vec!["1.5".to_string(), "water-filling".to_string()],
            vec!["commas, galore".to_string(), "quote \"this\"".to_string()],
            vec!["multi\nline".to_string(), String::new()],
        ];
        let text = render_csv(&["a", "b"], &rows);
        let back = parse_csv(&text).unwrap();
        assert_eq!(back[0], vec!["a", "b"]);
        assert_eq!(&back[1..], rows.as_slice());
    }

    #[test]
    fn parse_csv_rejects_unterminated_quote() {
        assert!(parse_csv("a,\"oops\n").is_err());
        assert_eq!(parse_csv("").unwrap(), Vec::<Vec<String>>::new());
        // Missing trailing newline still yields the last row.
        assert_eq!(parse_csv("a,b").unwrap(), vec![vec!["a", "b"]]);
    }

    #[test]
    fn heatmap_maps_extremes_and_infeasible() {
        let grid = vec![vec![Some(0.0), Some(1.0), None]];
        let h = render_heatmap(&grid, 0.0, 1.0, &["row".into()], "t");
        let body = h.lines().nth(1).unwrap();
        assert!(body.contains(' ') && body.contains('@') && body.contains('x'));
    }

    #[test]
    fn opt_fmt_handles_none() {
        assert_eq!(opt_fmt(Some(0.25), 2), "0.25");
        assert_eq!(opt_fmt(None, 2), "-");
    }
}
