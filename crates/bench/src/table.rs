//! What an artifact is made of: a [`Table`] whose every value arrives
//! paired with its column (text header, JSON key, width), so an artifact's
//! columns are declared once — where its rows are computed — and the
//! printed table and the `results/figures.json` rows are two renderings of
//! that one declaration.

use crate::harmonic_mean;
use dse_telemetry::Json;
use std::fmt;

/// One table value: what it prints as and what it is in JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Text(String),
    Int(i64),
    /// A ratio, printed `1.234x` to the given number of decimals.
    Times(f64, usize),
    /// A percentage, already scaled to 0..100.
    Percent(f64),
    /// A fraction of one, printed as a percentage.
    Share(f64),
    /// One ratio per core count, printed `1.23x` each.
    Series(Vec<f64>),
    /// One speedup per value of the swept parameter the string names.
    Sweep(&'static str, Vec<(usize, f64)>),
    /// Nothing to report: `-` in text, `null` in JSON.
    Missing,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => write!(f, "{s}"),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Times(v, decimals) => write!(f, "{v:.decimals$}x"),
            Cell::Percent(v) => write!(f, "{v:.1}%"),
            Cell::Share(v) => write!(f, "{:.1}%", 100.0 * v),
            Cell::Series(vs) => {
                let cells: Vec<String> = vs.iter().map(|v| format!("{v:>7.2}x")).collect();
                write!(f, "{}", cells.join(" "))
            }
            Cell::Sweep(param, vs) => {
                let cell = |(p, v): &(usize, f64)| format!("{param}{p}={v:.2}x");
                write!(f, "{}", vs.iter().map(cell).collect::<Vec<_>>().join("  "))
            }
            Cell::Missing => write!(f, "-"),
        }
    }
}

impl Cell {
    /// The ratios in a [`Cell::Times`] or [`Cell::Series`] (empty otherwise).
    pub fn ratios(&self) -> &[f64] {
        match self {
            Cell::Times(v, _) => std::slice::from_ref(v),
            Cell::Series(vs) => vs,
            _ => &[],
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Text(s) => Json::Str(s.clone()),
            Cell::Int(v) => Json::Int(*v),
            Cell::Times(v, _) | Cell::Percent(v) | Cell::Share(v) => Json::Float(*v),
            Cell::Series(vs) => Json::Arr(vs.iter().map(|&v| Json::Float(v)).collect()),
            Cell::Sweep(param, vs) => {
                let point = |&(p, v): &(usize, f64)| {
                    Json::obj(vec![
                        (param, Json::Int(p as i64)),
                        ("speedup", Json::Float(v)),
                    ])
                };
                Json::Arr(vs.iter().map(point).collect())
            }
            Cell::Missing => Json::Null,
        }
    }
}

/// A column: header in the text table, key in the JSON row, and text
/// width (negative left-aligns).
#[derive(Debug, Clone, PartialEq)]
pub struct Col {
    pub head: String,
    pub key: &'static str,
    pub width: isize,
}

impl Col {
    /// This column's value in one row.
    pub fn of(self, cell: Cell) -> (Col, Cell) {
        (self, cell)
    }
}

pub fn col(head: &str, key: &'static str, width: isize) -> Col {
    Col {
        head: head.to_string(),
        key,
        width,
    }
}

/// The column of a [`Cell::Series`]: one `label@Nc` slot per entry of
/// `cores`.
pub fn series(label: &str, key: &'static str, cores: &[u32]) -> Col {
    let slot = |(i, n): (usize, &u32)| match i {
        0 => format!("{:>8}", format!("{label}@{n}c")),
        _ => format!("{:>8}", format!("{n}c")),
    };
    let slots: Vec<String> = cores.iter().enumerate().map(slot).collect();
    let head = slots.join(" ");
    Col {
        width: head.len() as isize,
        head,
        key,
    }
}

/// One row: every value beside the column it belongs to.
pub type Row = Vec<(Col, Cell)>;

/// An artifact's rows, plus an optional text-only footer row.
#[derive(Debug, Clone)]
pub struct Table {
    pub rows: Vec<Row>,
    footer: Option<(Row, String)>,
}

impl Table {
    /// A table of `rows`, which all carry the same columns.
    pub fn new(rows: Vec<Row>) -> Table {
        Table { rows, footer: None }
    }

    /// Adds an `h-mean` footer: the harmonic mean (the paper's average of
    /// choice) of every ratio column, followed by `note`. Text only.
    pub fn with_hmean(mut self, note: &str) -> Table {
        let Some(first) = self.rows.first() else {
            return self;
        };
        let mean = |i: usize, cell: &Cell| {
            let at = |k: usize| harmonic_mean(self.rows.iter().map(|r| r[i].1.ratios()[k]));
            match cell {
                Cell::Text(_) => Cell::Text("h-mean".to_string()),
                Cell::Times(_, decimals) => Cell::Times(at(0), *decimals),
                Cell::Series(vs) => Cell::Series((0..vs.len()).map(at).collect()),
                _ => Cell::Missing,
            }
        };
        let footer = first.iter().enumerate();
        let footer = footer.map(|(i, (c, cell))| (c.clone(), mean(i, cell)));
        self.footer = Some((footer.collect(), note.to_string()));
        self
    }

    /// The rows as a JSON array of objects keyed by column.
    pub fn json(&self) -> Json {
        let object = |r: &Row| Json::Obj(r.iter().map(|(c, v)| (c.key.into(), v.json())).collect());
        Json::Arr(self.rows.iter().map(object).collect())
    }
}

fn pad(s: &str, width: isize) -> String {
    let w = width.unsigned_abs();
    if width < 0 {
        format!("{s:<w$}")
    } else {
        format!("{s:>w$}")
    }
}

fn line(cells: impl Iterator<Item = String>) -> String {
    let joined = cells.collect::<Vec<_>>().join(" ");
    joined.trim_end().to_string()
}

/// Header, rows, footer — one line each.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = |r: &Row| line(r.iter().map(|(c, v)| pad(&v.to_string(), c.width)));
        if let Some(first) = self.rows.first() {
            writeln!(
                f,
                "{}",
                line(first.iter().map(|(c, _)| pad(&c.head, c.width)))
            )?;
        }
        for r in &self.rows {
            writeln!(f, "{}", text(r))?;
        }
        if let Some((r, note)) = &self.footer {
            writeln!(f, "{}   {note}", text(r))?;
        }
        Ok(())
    }
}
