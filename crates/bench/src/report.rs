//! Table formatting shared by the `table*` and `ablations` binaries.

/// One printed row: a label and value cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (first column).
    pub label: String,
    /// Remaining cells.
    pub cells: Vec<String>,
}

impl Row {
    /// Build a row from string-ish cells.
    pub fn new(label: impl Into<String>, cells: &[String]) -> Self {
        Self {
            label: label.into(),
            cells: cells.to_vec(),
        }
    }
}

/// Print a fixed-width table with a title and header.
pub fn print_table(title: &str, header: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        widths[0] = widths[0].max(r.label.len());
        for (i, c) in r.cells.iter().enumerate() {
            if i + 1 < widths.len() {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
    }
    let line: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", line.join("  "));
    for r in rows {
        let mut cells = vec![format!("{:>w$}", r.label, w = widths[0])];
        for (i, c) in r.cells.iter().enumerate() {
            let w = widths.get(i + 1).copied().unwrap_or(c.len());
            cells.push(format!("{c:>w$}"));
        }
        println!("{}", cells.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_print_without_panicking() {
        let rows = vec![
            Row::new("2x1x1", &["1760".into(), "1.12".into()]),
            Row::new("4x1x1", &["2341".into(), "0.84".into()]),
        ];
        print_table("smoke", &["partition", "time", "speedup"], &rows);
    }
}
