//! The one result type of the crate and the gate harness behind
//! `bench N [--quick] [--out FILE]`.
//!
//! Every BENCH suite (`bench4` … `bench10`) and every `repro` figure
//! ([`crate::repro`]) measures and returns a [`Measured`]: named sections
//! of [`Row`]s and a list of [`Gate`]s. This module owns everything after
//! that — one CSV writer (a section per file, the figures' output), one
//! document schema and its JSON writer (a suite per file), one printer
//! and one exit code:
//!
//! ```text
//! { "bench", "description", "scale", "host_threads",     the header
//!   "<section>": [ {row}, ... ], ...                      named sections
//!   "gates": [ {"name", "value", "op", "bound", "armed", "ok"}, ... ],
//!   "all_ok": bool }
//! ```
//!
//! A gate is armed unless its measurement does not exist in this run: a
//! quick run has no cell at the gated scale, or the peak-RSS probe did
//! not work. The host's thread count is recorded in the header and never
//! arms or disarms a gate. An unarmed gate cannot fail, so the driver
//! flags every one of them loudly: it is not evidence either way.

use std::io;
use std::path::{Path, PathBuf};

use nhood_cluster::WorkerPool;

use crate::{bench10, bench4, bench5, bench6, bench7, bench8, bench9};

/// One suite: what `bench N` runs and writes to `BENCH_N.json`.
pub struct Suite {
    /// `N` in `BENCH_N`.
    pub id: u32,
    /// The document's `description`.
    pub description: &'static str,
    /// Runs the measurement; `true` is the quick (CI smoke) scale.
    pub run: fn(bool) -> Measured,
}

impl Suite {
    /// `BENCH_N`.
    pub fn name(&self) -> String {
        format!("BENCH_{}", self.id)
    }
}

/// The seven suites, by id.
pub const SUITES: [Suite; 7] = [
    Suite {
        id: 4,
        description: "plan construction: serial vs pooled build vs fingerprint cache",
        run: |quick| bench4::report(&bench4::run(quick)),
    },
    Suite {
        id: 5,
        description: "allgatherv: padded vs ragged, neighbors- vs byte-weighted selection",
        run: |quick| bench5::report(&bench5::run(quick)),
    },
    Suite {
        id: 6,
        description: "topology churn: single-edge plan repair vs cold rebuild",
        run: |quick| bench6::report(&bench6::run(quick)),
    },
    Suite {
        id: 7,
        description:
            "multi-tenant service under sustained open-loop load; batched vs per-request execution",
        run: |quick| bench7::report(&bench7::run_sustained(quick), &bench7::run_batching(quick)),
    },
    Suite {
        id: 8,
        description: "fused sparse allreduce vs allgather-then-local-reduce, bytes moved",
        run: |quick| bench8::report(&bench8::run_fusion(quick)),
    },
    Suite {
        id: 9,
        description: "scale: plan-build peak RSS across a 10x rank jump, plan-file warm start",
        run: |quick| bench9::report(&bench9::run(quick)),
    },
    Suite {
        id: 10,
        description: "Algorithm::Auto vs every fixed algorithm, simulated makespan",
        run: |quick| bench10::report(&bench10::run_tuning(quick), &bench10::run_frontier(quick)),
    },
];

/// What a suite measured: named sections of rows, then its gates.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// `(section name, rows)` in document order.
    pub sections: Vec<(&'static str, Vec<Row>)>,
    /// Every gate the suite evaluates, armed or not.
    pub gates: Vec<Gate>,
}

impl Measured {
    /// No armed gate failed.
    pub fn all_ok(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// Writes every section to `<dir>/<section>.csv`.
    pub fn write_csvs(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, rows) in &self.sections {
            std::fs::write(dir.join(format!("{name}.csv")), csv(name, rows)?)?;
        }
        Ok(())
    }
}

/// One row: keys in document order.
pub type Row = Vec<(String, Val)>;

/// A JSON value of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null` (a measurement that does not exist; also any non-finite number).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(u128),
    /// A number in Rust's shortest round-trip form (`0.3`).
    Num(f64),
    /// A number with a fixed count of decimals.
    Fix(f64, usize),
    /// A number in scientific notation with six decimals.
    Sci(f64),
    /// A string.
    Str(String),
    /// A nested object.
    Obj(Row),
}

macro_rules! val_from {
    ($($t:ty => |$x:ident| $val:expr),* $(,)?) => {
        $(impl From<$t> for Val {
            fn from($x: $t) -> Self {
                $val
            }
        })*
    };
}

val_from! {
    bool => |b| Val::Bool(b),
    usize => |i| Val::Int(i as u128),
    u64 => |i| Val::Int(i.into()),
    u128 => |i| Val::Int(i),
    f64 => |x| Val::Num(x),
    &str => |s| Val::Str(s.to_string()),
    String => |s| Val::Str(s),
}

impl<T: Into<Val>> From<Option<T>> for Val {
    fn from(v: Option<T>) -> Self {
        v.map_or(Val::Null, Into::into)
    }
}

/// Builds a [`Row`] from `"key" => value` pairs; values convert through
/// [`Val::from`].
macro_rules! row {
    ($($key:literal => $val:expr),* $(,)?) => {
        vec![$(($key.to_string(), $crate::suite::Val::from($val))),*]
    };
}
pub(crate) use row;

/// How a gate compares its value with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `value >= bound`.
    AtLeast,
    /// `value < bound`.
    Below,
    /// A property that must hold (`value` 1 when it did, 0 when not).
    Holds,
}

/// One acceptance gate.
#[derive(Debug, Clone)]
pub struct Gate {
    /// The gated quantity's name.
    pub name: &'static str,
    /// The measured value; `None` when the run has none (an empty grid,
    /// a failed probe).
    pub value: Option<f64>,
    /// The comparison.
    pub op: Op,
    /// The threshold (1 for [`Op::Holds`]).
    pub bound: f64,
    /// Whether this run measured what the gate needs.
    pub armed: bool,
    /// The verdict; always `true` for an unarmed gate.
    pub ok: bool,
}

impl Gate {
    /// `value >= bound`, with 1e-9 of slack for float noise on equal
    /// ratios. A missing value fails: an empty grid is not evidence.
    pub fn at_least(name: &'static str, value: Option<f64>, bound: f64) -> Gate {
        let ok = value.is_some_and(|v| v >= bound - 1e-9);
        Gate { name, value, op: Op::AtLeast, bound, armed: true, ok }
    }

    /// `value < bound`. A missing value fails.
    pub fn below(name: &'static str, value: Option<f64>, bound: f64) -> Gate {
        let ok = value.is_some_and(|v| v < bound);
        Gate { name, value, op: Op::Below, bound, armed: true, ok }
    }

    /// A property that must hold.
    pub fn holds(name: &'static str, held: bool) -> Gate {
        let value = Some(if held { 1.0 } else { 0.0 });
        Gate { name, value, op: Op::Holds, bound: 1.0, armed: true, ok: held }
    }

    /// Disarms the gate unless `measured`: the run holds no measurement
    /// for it (no cell at the gated scale, a probe that did not work).
    pub fn armed_if(mut self, measured: bool) -> Gate {
        self.armed = measured;
        self.ok |= !measured;
        self
    }

    fn row(&self) -> Row {
        let (value, bound) = match self.op {
            Op::Holds => (Val::Bool(self.value == Some(1.0)), Val::Bool(true)),
            _ => (self.value.map_or(Val::Null, |v| Val::Fix(v, 4)), Val::Num(self.bound)),
        };
        let op = ["at_least", "below", "holds"][self.op as usize];
        row! {
            "name" => self.name, "value" => value, "op" => op, "bound" => bound,
            "armed" => self.armed, "ok" => self.ok,
        }
    }
}

/// Renders suite `s`'s `BENCH_N.json` document (hand-rolled — the
/// workspace builds offline, no serde): one field per line, one row per
/// line.
pub fn document(s: &Suite, quick: bool, host_threads: usize, m: &Measured) -> String {
    let header = row! {
        "bench" => s.name(), "description" => s.description,
        "scale" => if quick { "quick" } else { "full" }, "host_threads" => host_threads,
    };
    let mut fields: Vec<String> =
        header.iter().map(|(key, val)| format!("  \"{key}\": {}", json(val))).collect();
    let gates: Vec<Row> = m.gates.iter().map(Gate::row).collect();
    for (name, rows) in m.sections.iter().map(|(n, r)| (*n, r)).chain([("gates", &gates)]) {
        let rows: Vec<String> =
            rows.iter().map(|r| format!("\n    {}", json(&Val::Obj(r.clone())))).collect();
        fields.push(format!("  \"{name}\": [{}\n  ]", rows.join(",")));
    }
    fields.push(format!("  \"all_ok\": {}", m.all_ok()));
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

fn json(v: &Val) -> String {
    match v {
        Val::Null => "null".into(),
        Val::Num(x) | Val::Fix(x, _) | Val::Sci(x) if !x.is_finite() => "null".into(),
        Val::Bool(b) => b.to_string(),
        Val::Int(i) => i.to_string(),
        Val::Num(x) => x.to_string(),
        Val::Fix(x, decimals) => format!("{x:.decimals$}"),
        Val::Sci(x) => format!("{x:.6e}"),
        Val::Str(s) => {
            let escaped: String = s
                .chars()
                .map(|c| match c {
                    '"' | '\\' => format!("\\{c}"),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                    c => c.to_string(),
                })
                .collect();
            format!("\"{escaped}\"")
        }
        Val::Obj(row) => {
            let fields: Vec<String> = row
                .iter()
                .map(|(k, v)| format!("{}: {}", json(&k.as_str().into()), json(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
    }
}

/// A section as text: its header (the first row's keys) and each row's
/// cells — a string as is, any other value in its JSON form. The CSV
/// writer and the printer both show a section this way.
fn table(rows: &[Row]) -> (Vec<String>, Vec<Vec<String>>) {
    let header = rows.first().map_or(vec![], |row| row.iter().map(|(k, _)| k.clone()).collect());
    let text = |v: &Val| if let Val::Str(s) = v { s.clone() } else { json(v) };
    (header, rows.iter().map(|row| row.iter().map(|(_, v)| text(v)).collect()).collect())
}

/// Renders section `name` as CSV: the header, then a line per row. A row
/// whose keys are not the header's is refused (`InvalidInput`); an empty
/// section renders empty.
fn csv(name: &str, rows: &[Row]) -> io::Result<String> {
    if rows.is_empty() {
        return Ok(String::new());
    }
    let (header, cells) = table(rows);
    if let Some(i) = rows.iter().position(|row| !row.iter().map(|(k, _)| k).eq(&header)) {
        let msg = format!("row width or keys of {name} row {i} differ from its header");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(std::iter::once(&header).chain(&cells).map(|line| line.join(",") + "\n").collect())
}

/// Prints one section as an aligned table.
fn print_section(name: &str, rows: &[Row]) {
    if rows.is_empty() {
        return;
    }
    let (header, cells) = table(rows);
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &cells {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let line = |row: &[String]| {
        let padded: Vec<String> =
            row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        padded.join("  ")
    };
    println!("== {name} ==");
    for row in std::iter::once(&header).chain(&cells) {
        println!("{}", line(row));
    }
    println!();
}

/// The one printer: every section, then the gates, as tables on stdout;
/// each unarmed or failed gate flagged on stderr.
pub fn print(m: &Measured) {
    for (name, rows) in &m.sections {
        print_section(name, rows);
    }
    print_section("gates", &m.gates.iter().map(Gate::row).collect::<Vec<_>>());
    for g in &m.gates {
        if !g.armed {
            eprintln!("!! UNARMED gate {}: this run did not measure it — not evidence", g.name);
        } else if !g.ok {
            eprintln!("!! FAILED gate {}: {:?} {:?} {}", g.name, g.value, g.op, g.bound);
        }
    }
}

/// `bench N [--quick] [--out FILE]`: runs suite `N` (4 … 10), prints its
/// sections and gates, and writes its document (default `BENCH_N.json`).
/// Returns the exit code: 0 when no armed gate failed, 1 when one did or
/// the file could not be written, 2 on bad arguments.
pub fn drive(args: impl IntoIterator<Item = String>) -> i32 {
    let usage = "usage: bench N [--quick] [--out FILE]   (N = 4..10)";
    let bad = |arg: &str| {
        eprintln!("{usage} (got {arg})");
        2
    };
    let (mut suite, mut quick, mut out) = (None, false, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(file) => out = Some(PathBuf::from(file)),
                None => return bad(&arg),
            },
            n => match SUITES.iter().find(|s| n.parse() == Ok(s.id)) {
                Some(s) if suite.is_none() => suite = Some(s),
                _ => return bad(n),
            },
        }
    }
    let Some(suite) = suite else { return bad("no suite") };
    let out = out.unwrap_or_else(|| PathBuf::from(format!("{}.json", suite.name())));
    let scale = if quick { "quick" } else { "full" };
    eprintln!(">> {}: {} ({scale} scale)...", suite.name(), suite.description);
    let m = (suite.run)(quick);
    print(&m);
    let host_threads = WorkerPool::auto().threads();
    if let Err(e) = std::fs::write(&out, document(suite, quick, host_threads, &m)) {
        eprintln!("!! writing {}: {e}", out.display());
        return 1;
    }
    eprintln!(">> wrote {}", out.display());
    i32::from(!m.all_ok())
}

#[cfg(test)]
impl Measured {
    /// The gate named `name`.
    pub(crate) fn gate(&self, name: &str) -> &Gate {
        self.gates.iter().find(|g| g.name == name).unwrap_or_else(|| panic!("no gate {name}"))
    }

    /// The rows of the section named `name`.
    pub(crate) fn section(&self, name: &str) -> &[Row] {
        let found = self.sections.iter().find(|(n, _)| *n == name);
        &found.unwrap_or_else(|| panic!("no section {name}")).1
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A parsed JSON value: a written document must parse back.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub(crate) fn get(&self, key: &str) -> &Json {
            let Json::Obj(kv) = self else { panic!("not an object: {self:?}") };
            kv.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or_else(|| panic!("no {key}"))
        }

        pub(crate) fn keys(&self) -> Vec<&str> {
            let Json::Obj(kv) = self else { panic!("not an object: {self:?}") };
            kv.iter().map(|(k, _)| k.as_str()).collect()
        }

        pub(crate) fn items(&self) -> &[Json] {
            let Json::Arr(items) = self else { panic!("not an array: {self:?}") };
            items
        }
    }

    /// Parses exactly one JSON document.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing data at byte {}", p.i))
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while matches!(self.s.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
                self.i += 1;
            }
        }

        fn next(&mut self) -> Result<u8, String> {
            let c = *self.s.get(self.i).ok_or("unexpected end")?;
            self.i += 1;
            Ok(c)
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i).ok_or("unexpected end")? {
                b'{' | b'[' => {
                    let obj = self.next()? == b'{';
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.i) == Some(if obj { &b'}' } else { &b']' }) {
                        self.i += 1;
                    } else {
                        loop {
                            let key = if obj {
                                self.ws();
                                let Json::Str(key) = self.string()? else { unreachable!() };
                                self.ws();
                                if self.next()? != b':' {
                                    return Err(format!("expected ':' at byte {}", self.i));
                                }
                                key
                            } else {
                                String::new()
                            };
                            items.push((key, self.value()?));
                            self.ws();
                            match (self.next()?, obj) {
                                (b',', _) => {}
                                (b'}', true) | (b']', false) => break,
                                _ => return Err(format!("bad separator at byte {}", self.i)),
                            }
                        }
                    }
                    Ok(if obj {
                        Json::Obj(items)
                    } else {
                        Json::Arr(items.into_iter().map(|(_, v)| v).collect())
                    })
                }
                b'"' => self.string(),
                b't' => self.literal("true", Json::Bool(true)),
                b'f' => self.literal("false", Json::Bool(false)),
                b'n' => self.literal("null", Json::Null),
                _ => {
                    let start = self.i;
                    while matches!(
                        self.s.get(self.i),
                        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    ) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII");
                    text.parse()
                        .map(Json::Num)
                        .map_err(|e| format!("{e} at byte {start}: {text:?}"))
                }
            }
        }

        fn string(&mut self) -> Result<Json, String> {
            if self.next()? != b'"' {
                return Err(format!("expected a string at byte {}", self.i));
            }
            let mut bytes = Vec::new();
            loop {
                match self.next()? {
                    b'"' => break,
                    b'\\' => match self.next()? {
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.s[self.i..self.i + 4]).expect("hex");
                            let c = char::from_u32(u32::from_str_radix(hex, 16).expect("hex"));
                            self.i += 4;
                            bytes.extend(c.expect("a char").to_string().bytes());
                        }
                        b'n' => bytes.push(b'\n'),
                        b't' => bytes.push(b'\t'),
                        c @ (b'"' | b'\\' | b'/') => bytes.push(c),
                        c => return Err(format!("bad escape \\{} at byte {}", c as char, self.i)),
                    },
                    c if c < 0x20 => return Err(format!("raw control byte at {}", self.i)),
                    c => bytes.push(c),
                }
            }
            String::from_utf8(bytes).map(Json::Str).map_err(|e| e.to_string())
        }
    }

    fn suite() -> Suite {
        Suite { id: 99, description: "a \"quoted\" suite", run: |_| Measured::default() }
    }

    #[test]
    fn the_writer_emits_one_parseable_document() {
        let arms = vec![("naive".to_string(), Val::Sci(1.012068e-5)), ("bruck".into(), Val::Null)];
        let m = Measured {
            sections: vec![
                (
                    "cells",
                    vec![
                        row! {
                            "case" => "n=128 δ=0.3 m=1024", "n" => 128usize, "delta" => 0.3,
                            "missing" => None::<u64>, "fixed_s" => Val::Obj(arms),
                            "ratio" => Val::Fix(2.0 / 3.0, 3), "ns" => u128::MAX,
                            "label" => "tab\there \"q\" back\\slash\n\u{1}", "inf" => f64::INFINITY,
                        },
                        row! { "case" => "second", "n" => 1usize },
                    ],
                ),
                ("empty", vec![]),
            ],
            gates: vec![
                Gate::at_least("ratio", Some(2.0 / 3.0), 0.5),
                Gate::below("rss_ratio", None, 10.0).armed_if(false),
                Gate::holds("identical", false),
            ],
        };
        let text = document(&suite(), true, 3, &m);
        // the byte forms the checked-in files cite
        assert!(text.contains(r#""case": "n=128 δ=0.3 m=1024""#), "{text}");
        assert!(text.contains(r#""fixed_s": {"naive": 1.012068e-5, "bruck": null}"#), "{text}");
        assert!(text.contains(r#""delta": 0.3, "missing": null"#), "{text}");

        let doc = parse(&text).expect("the document parses");
        assert_eq!(
            doc.keys(),
            ["bench", "description", "scale", "host_threads", "cells", "empty", "gates", "all_ok"]
        );
        assert_eq!(doc.get("bench"), &Json::Str("BENCH_99".into()));
        assert_eq!(doc.get("description"), &Json::Str("a \"quoted\" suite".into()));
        assert_eq!(doc.get("scale"), &Json::Str("quick".into()));
        assert_eq!(doc.get("host_threads"), &Json::Num(3.0));
        let cell = &doc.get("cells").items()[0];
        assert_eq!(cell.get("label"), &Json::Str("tab\there \"q\" back\\slash\n\u{1}".into()));
        assert_eq!(cell.get("fixed_s").get("naive"), &Json::Num(1.012068e-5));
        assert_eq!(cell.get("ratio"), &Json::Num(0.667));
        assert_eq!(cell.get("ns"), &Json::Num(u128::MAX as f64));
        assert_eq!(cell.get("inf"), &Json::Null, "a non-finite number is null");
        assert_eq!(doc.get("empty").items(), &[]);

        let gates = doc.get("gates").items();
        for g in gates {
            assert_eq!(g.keys(), ["name", "value", "op", "bound", "armed", "ok"]);
        }
        assert_eq!(gates[0].get("value"), &Json::Num(0.6667));
        assert_eq!(gates[0].get("bound"), &Json::Num(0.5));
        assert_eq!(gates[1].get("value"), &Json::Null);
        assert_eq!(gates[1].get("armed"), &Json::Bool(false));
        assert_eq!(gates[1].get("ok"), &Json::Bool(true), "an unarmed gate cannot fail");
        assert_eq!(gates[2].get("value"), &Json::Bool(false));
        assert_eq!(gates[2].get("op"), &Json::Str("holds".into()));
        assert_eq!(doc.get("all_ok"), &Json::Bool(false), "the failed property fails the run");
        assert!(parse(&text[..text.len() - 3]).is_err(), "a truncated document does not parse");
    }

    #[test]
    fn every_checked_in_bench_file_has_the_one_schema() {
        for s in &SUITES {
            let path = format!("{}/../../{}.json", env!("CARGO_MANIFEST_DIR"), s.name());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let doc = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            let keys = doc.keys();
            assert_eq!(keys[..4], ["bench", "description", "scale", "host_threads"], "{path}");
            assert_eq!(doc.get("bench"), &Json::Str(s.name()), "{path}");
            assert_eq!(doc.get("description"), &Json::Str(s.description.into()), "{path}");
            assert!(matches!(doc.get("host_threads"), Json::Num(t) if *t >= 1.0), "{path}");
            assert_eq!(keys[keys.len() - 2..], ["gates", "all_ok"], "{path}");
            for section in &keys[4..keys.len() - 1] {
                assert!(doc.get(section).items().iter().all(|r| matches!(r, Json::Obj(_))));
            }
            let gates = doc.get("gates").items();
            assert!(!gates.is_empty(), "{path}");
            for g in gates {
                for key in ["name", "value", "bound", "armed", "ok"] {
                    g.get(key);
                }
                assert_eq!(g.get("ok"), &Json::Bool(true), "{path}: {g:?}");
            }
            assert_eq!(doc.get("all_ok"), &Json::Bool(true), "{path}");
        }
    }

    #[test]
    fn a_section_round_trips_through_csv() {
        let rows = vec![row! { "a" => "1", "b" => "x y" }, row! { "a" => "3", "b" => "4" }];
        let m = Measured { sections: vec![("t", rows), ("none", vec![])], gates: vec![] };
        let dir = std::env::temp_dir().join(format!("nhood_csv_test_{}", std::process::id()));
        m.write_csvs(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("t.csv")).unwrap(), "a,b\n1,x y\n3,4\n");
        assert_eq!(std::fs::read_to_string(dir.join("none.csv")).unwrap(), "");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_csv_writer_refuses_a_ragged_row() {
        let wide = row! { "a" => "1", "b" => "2" };
        for ragged in [row! { "a" => "1" }, row! { "b" => "1", "a" => "2" }] {
            let e = csv("t", &[wide.clone(), ragged]).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains("row width"), "{e}");
        }
    }

    #[test]
    fn the_driver_refuses_bad_arguments_before_running() {
        let args = |a: &[&str]| drive(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), 2);
        assert_eq!(args(&["3"]), 2);
        assert_eq!(args(&["eleven"]), 2);
        assert_eq!(args(&["4", "5"]), 2);
        assert_eq!(args(&["4", "--out"]), 2);
        assert_eq!(args(&["--quick", "--verbose"]), 2);
    }
}
