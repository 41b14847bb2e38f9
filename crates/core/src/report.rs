//! Report output: plain-text tables for the experiment reports, and the
//! one writer and reader of the `BENCH_*.json` files. A study with a BENCH
//! file prints its table from the file's rows ([`project`]).

use std::fmt::{self, Display, Write as _};
use std::io;
use std::path::Path;

use crate::experiments::Scale;

/// A simple fixed-width table printer.
///
/// ```
/// use rackni::report::Table;
/// let mut t = Table::new(&["design", "cycles"]);
/// t.row(&["NI_split", "447"]);
/// let s = t.render();
/// assert!(s.contains("NI_split"));
/// ```
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    ///
    /// # Panics
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Append a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", c, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        for w in &widths {
            let _ = write!(&mut out, "{}  ", "-".repeat(*w));
        }
        out.push('\n');
        for r in &self.rows {
            fmt_row(&mut out, r);
        }
        out
    }
}

/// The table of `rows` that shows `keys`: one column per key, headed by
/// the key, each cell the value as written, `-` where a row lacks the key.
///
/// # Panics
/// Panics on a key no row has, which would print a column of dashes.
pub fn project(rows: &[JsonRow], keys: &[&str]) -> String {
    for key in keys {
        assert!(
            rows.iter().any(|r| r.get(key).is_some()),
            "no row has the key {key:?}"
        );
    }
    let mut t = Table::new(keys);
    for r in rows {
        t.row_owned(
            keys.iter()
                .map(|k| r.get(k).unwrap_or("-").into())
                .collect(),
        );
    }
    t.render()
}

/// Format a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// One flat JSON object — a `BENCH_*.json` header or one of its points —
/// as `(key, value text)` pairs in insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonRow {
    fields: Vec<(String, String)>,
}

impl JsonRow {
    /// Append a string field. Strings are written unescaped.
    ///
    /// # Panics
    /// Panics if the value holds a `"` or a `\`.
    pub fn str(&mut self, key: &str, value: impl Display) -> &mut JsonRow {
        let value = value.to_string();
        assert!(
            !value.contains(['"', '\\']),
            "BENCH strings are written unescaped: {value:?}"
        );
        self.num(key, format!("\"{value}\""))
    }

    /// Append a field written as `value` displays: an integer or a boolean.
    pub fn num(&mut self, key: &str, value: impl Display) -> &mut JsonRow {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a float field with `decimals` digits after the point.
    pub fn float(&mut self, key: &str, value: f64, decimals: usize) -> &mut JsonRow {
        self.num(key, format!("{value:.decimals$}"))
    }

    /// The value of `key` as written, without a string's quotes.
    pub fn get(&self, key: &str) -> Option<&str> {
        let (_, text) = self.fields.iter().find(|(k, _)| k == key)?;
        Some(text.trim_matches('"'))
    }

    /// The keys in the order they were appended.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Parse one point line as [`BenchFile`] writes it, or `None` if the
    /// line is not in that format. No value holds a `"`, so `, "` can only
    /// start the next field.
    fn parse(line: &str) -> Option<JsonRow> {
        let mut row = JsonRow::default();
        for field in line.strip_prefix("{\"")?.strip_suffix('}')?.split(", \"") {
            let (key, text) = field.split_once("\": ")?;
            row.num(key, text);
        }
        Some(row)
    }
}

/// The row as one JSON object on one line.
impl Display for JsonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

/// A `BENCH_*.json` file: its header fields one per line, then a `points`
/// array one point per line, so [`read_points`] can read it line by line.
#[derive(Debug)]
pub struct BenchFile {
    header: JsonRow,
    points: Vec<JsonRow>,
}

impl BenchFile {
    /// A file of `points` tagged with its `schema` and the `scale` it ran
    /// at.
    pub fn new(schema: &str, scale: Scale, points: Vec<JsonRow>) -> BenchFile {
        let mut header = JsonRow::default();
        header
            .str("schema", schema)
            .str("scale", format!("{scale:?}").to_lowercase());
        BenchFile { header, points }
    }

    /// The header, for fields after `schema` and `scale`.
    pub fn header(&mut self) -> &mut JsonRow {
        &mut self.header
    }

    /// Write the file to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_string())
    }
}

/// The file's text as [`BenchFile::write`] writes it.
impl Display for BenchFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (k, v) in &self.header.fields {
            writeln!(f, "  \"{k}\": {v},")?;
        }
        let points: Vec<String> = self.points.iter().map(|p| format!("    {p}")).collect();
        write!(f, "  \"points\": [\n{}\n  ]\n}}\n", points.join(",\n"))
    }
}

/// The points of a `BENCH_*.json` file written by [`BenchFile`]: every
/// line that opens an object with a key. Fails on the first such line that
/// does not parse, so a drifted format cannot drop points unnoticed.
pub fn read_points(text: &str) -> Result<Vec<JsonRow>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\""))
        .map(|l| {
            JsonRow::parse(l.strip_suffix(',').unwrap_or(l))
                .ok_or_else(|| format!("unreadable BENCH point: {l}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["xxxx", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     bbbb"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(&["1", "2"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(pct(79.66), "79.7%");
    }

    /// Two rows with different keys: `a_4x4x4`'s, then `b`'s.
    fn rows() -> Vec<JsonRow> {
        let (mut a, mut b) = (JsonRow::default(), JsonRow::default());
        a.str("name", "a_4x4x4")
            .num("cycles", 1200)
            .float("cps", 12.345, 1)
            .num("ok", true);
        b.str("name", "b").float("skew", -0.5, 4);
        vec![a, b]
    }

    #[test]
    fn bench_rows_round_trip() {
        let mut bench = BenchFile::new("rackni-bench-test/1", Scale::Quick, rows());
        bench.header().num("host_threads", 2);
        let text = bench.to_string();
        assert!(text.starts_with(
            "{\n  \"schema\": \"rackni-bench-test/1\",\n  \"scale\": \"quick\",\n  \"host_threads\": 2,\n"
        ));
        let points = read_points(&text).expect("readable");
        assert_eq!(points, bench.points);
        assert_eq!(points[0].get("name"), Some("a_4x4x4"));
        assert_eq!(points[0].get("cps"), Some("12.3"));
        assert_eq!(points[1].get("skew"), Some("-0.5000"));
        assert_eq!(points[1].get("cps"), None);
        assert!(read_points("    {\"name\" \"x\", \"cps\": 1},").is_err());
    }

    #[test]
    fn a_projection_shows_the_chosen_keys_in_order_and_dashes_for_missing_ones() {
        let table = project(&rows(), &["skew", "name", "cps"]);
        let lines: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(lines[0], ["skew", "name", "cps"]);
        assert_eq!(lines[2], ["-", "a_4x4x4", "12.3"]);
        assert_eq!(lines[3], ["-0.5000", "b", "-"]);
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "no row has the key \"cpu\"")]
    fn a_projection_rejects_a_key_no_row_has() {
        project(&rows(), &["name", "cpu"]);
    }

    #[test]
    fn committed_simperf_baseline_reads_as_twelve_named_points_with_work() {
        let text = include_str!("../../../BENCH_simperf_baseline.json");
        let points = read_points(text).expect("baseline parses");
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.get("name").is_some_and(|n| !n.is_empty()), "{p:?}");
            let cps: f64 = p.get("cps").and_then(|c| c.parse().ok()).expect("cps");
            assert!(cps > 0.0, "{p:?}");
            for key in ["full_ticks", "visits_cores", "parks", "core_parks"] {
                let n = p.get(key).and_then(|n| n.parse::<u64>().ok());
                assert!(n.is_some(), "{key} of {p:?}");
            }
        }
    }
}
