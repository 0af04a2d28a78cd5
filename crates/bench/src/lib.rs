//! Experiment harness utilities for the RAELLA reproduction.
//!
//! Every table and figure in the paper's evaluation has a bench target in
//! `benches/` (run with `cargo bench`, or a single one with
//! `cargo bench --bench fig12_efficiency_throughput`). The experiment
//! benches are `harness = false` binaries that recompute the paper's
//! rows/series from this repository's models and print them; `kernels` is
//! a conventional criterion micro-benchmark of the simulator itself.
//!
//! The throughput benches (and `examples/gateway.rs`) record their
//! baselines through [`Record`], which writes `BENCH_<name>.json` at the
//! repository root and enforces each metric's declared gate. The README's
//! "Benches" section lists them and their gates.

/// Prints a report header with the paper reference.
pub fn header(experiment: &str, paper_says: &str) {
    println!();
    println!("================================================================");
    println!("{experiment}");
    println!("paper: {paper_says}");
    println!("================================================================");
}

/// Prints an aligned table: a header row and data rows.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// An ASCII histogram bar scaled to `max_width` characters.
pub fn bar(fraction: f64, max_width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * max_width as f64).round() as usize;
    "#".repeat(n)
}

/// Formats a ratio like `x3.94`.
pub fn ratio(r: f64) -> String {
    format!("x{r:.2}")
}

/// Formats a percentage like `98.0%`.
pub fn pct(p: f64) -> String {
    format!("{:.1}%", 100.0 * p)
}

/// The `p`-th percentile (0–100) of a non-empty ascending sample, by
/// nearest rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx]
}

/// A bench baseline under construction: a JSON object whose keys keep
/// insertion order, plus the gates declared on its metrics. Nested
/// records are objects inside it; their gates join the outer record's.
#[derive(Debug, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
    gates: Vec<(String, f64, Bound, Cores)>,
}

#[derive(Clone, Debug)]
enum Value {
    /// A number, bool or string, already in its JSON form.
    Scalar(String),
    Obj(Vec<(String, Value)>),
    Arr(Vec<Value>),
}

/// The direction a gated metric must hold.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// A floor: the metric passes at `>= x`.
    AtLeast(f64),
    /// A ceiling: the metric passes at `<= x`.
    AtMost(f64),
}

/// The runners a gate is enforced on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cores {
    /// Every runner: the metric does not depend on the core count.
    Any,
    /// Runners with at least 4 cores. Parallel speedups and wall-clock
    /// pauses on fewer cores measure oversubscription, not the code.
    AtLeast4,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` printed with exactly `decimals` digits after the point.
    /// Panics, naming `key`, on NaN or infinity: JSON cannot spell them.
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        assert!(value.is_finite(), "\"{key}\" holds non-finite {value}");
        self.push(key, Value::Scalar(format!("{value:.decimals$}")))
    }

    /// Adds an integer.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.push(key, Value::Scalar(value.to_string()))
    }

    /// Adds a bool.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, Value::Scalar(value.to_string()))
    }

    /// Adds a string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.push(key, Value::Scalar(quote(value)))
    }

    /// Adds a nested object.
    pub fn obj(mut self, key: &str, value: Record) -> Self {
        let fields = self.adopt(key.to_string(), value);
        self.push(key, Value::Obj(fields))
    }

    /// Adds an array of objects.
    pub fn arr(mut self, key: &str, items: Vec<Record>) -> Self {
        let items = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| Value::Obj(self.adopt(format!("{key}[{i}]"), item)))
            .collect();
        self.push(key, Value::Arr(items))
    }

    /// Gates the field added last, at its value as written. Panics if that
    /// field is not a number.
    pub fn gate(mut self, bound: Bound, rule: Cores) -> Self {
        let gate = match self.fields.last() {
            Some((key, Value::Scalar(text))) => text.parse().ok().map(|v| (key.clone(), v)),
            _ => None,
        };
        let (key, value) = gate.expect("a gate must follow a numeric field");
        self.gates.push((key, value, bound, rule));
        self
    }

    /// Takes `child`'s gates, naming each by its path under `prefix`, and
    /// returns its fields.
    fn adopt(&mut self, prefix: String, child: Record) -> Vec<(String, Value)> {
        for (metric, value, bound, rule) in child.gates {
            let metric = format!("{prefix}.{metric}");
            self.gates.push((metric, value, bound, rule));
        }
        child.fields
    }

    fn push(mut self, key: &str, value: Value) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// One top-level key per line; a top-level value holding objects or
    /// arrays puts each child on its own line.
    fn json(&self) -> String {
        Value::Obj(self.fields.clone()).render(0) + "\n"
    }

    /// Writes the record to `BENCH_<name>.json` at the repository root and
    /// prints it, then checks every gate against
    /// `std::thread::available_parallelism`, panicking if one fails. Gates
    /// run after the write, so a failing run still leaves its record.
    pub fn write(self, name: &str) {
        let file = format!("BENCH_{name}.json");
        let json = self.json();
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("{json}baseline written to {file}");

        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut failed = Vec::new();
        for (metric, value, bound, rule) in &self.gates {
            let verdict = check(*value, *bound, *rule, cores);
            println!("gate {metric} = {value} ({bound:?}, {rule:?}): {verdict} on {cores} cores");
            if verdict == "FAIL" {
                failed.push(metric.as_str());
            }
        }
        assert!(failed.is_empty(), "{file}: gates failed: {failed:?}");
    }
}

impl Value {
    /// Depth 0 puts each child on its own line, depth 1 only when a child
    /// is an object or array; deeper values stay on one line.
    fn render(&self, depth: usize) -> String {
        let child = |v: &Value| v.render(depth + 1);
        let (open, close, parts): (_, _, Vec<String>) = match self {
            Value::Scalar(s) => return s.clone(),
            Value::Obj(fields) => {
                let field = |(k, v): &(String, Value)| format!("{}: {}", quote(k), child(v));
                ('{', '}', fields.iter().map(field).collect())
            }
            Value::Arr(items) => ('[', ']', items.iter().map(child).collect()),
        };
        let flat =
            matches!(self, Value::Obj(f) if f.iter().all(|(_, v)| matches!(v, Value::Scalar(_))));
        let pad = "  ".repeat(depth + 1);
        if parts.is_empty() {
            format!("{open}{close}")
        } else if depth == 0 || (depth == 1 && !flat) {
            let parts = parts.join(&format!(",\n{pad}"));
            format!("{open}\n{pad}{parts}\n{}{close}", &pad[2..])
        } else {
            format!("{open} {} {close}", parts.join(", "))
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out + "\""
}

/// `"pass"` or `"FAIL"` for `value` against `bound`, or `"skipped"` when
/// `rule` asks for more than the runner's `cores`.
fn check(value: f64, bound: Bound, rule: Cores, cores: usize) -> &'static str {
    let holds = match bound {
        Bound::AtLeast(min) => value >= min,
        Bound::AtMost(max) => value <= max,
    };
    if rule == Cores::AtLeast4 && cores < 4 {
        "skipped"
    } else if holds {
        "pass"
    } else {
        "FAIL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(-1.0, 4), "");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(3.9441), "x3.94");
        assert_eq!(pct(0.9802), "98.0%");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        let got = [0.0, 50.0, 99.0].map(|p| percentile(&sample, p));
        assert_eq!(got, [1, 51, 99]);
    }

    #[test]
    fn record_renders_exact_bytes() {
        let row = Record::new().int("i", 0).arr("deep", vec![Record::new()]);
        let nested = Record::new().num("x", 1.5, 1).obj("inner", Record::new());
        let record = Record::new()
            .str("bench", "a\"b")
            .num("rate", 2.0 / 3.0, 3)
            .obj("flat", Record::new().bool("ok", true))
            .obj("nested", nested)
            .arr("rows", vec![row, Record::new()]);
        let want = r#"{
  "bench": "a\"b",
  "rate": 0.667,
  "flat": { "ok": true },
  "nested": {
    "x": 1.5,
    "inner": {}
  },
  "rows": [
    { "i": 0, "deep": [ {} ] },
    {}
  ]
}
"#;
        assert_eq!(record.json(), want);
    }

    #[test]
    #[should_panic(expected = "\"worst_speedup\" holds non-finite inf")]
    fn non_finite_numbers_panic_naming_their_key() {
        let _ = Record::new().num("worst_speedup", f64::INFINITY, 3);
    }

    #[test]
    fn bounds_hold_at_the_boundary_and_skip_below_four_cores() {
        let (floor, ceiling) = (Bound::AtLeast(2.0), Bound::AtMost(250_000.0));
        assert_eq!(check(2.0, floor, Cores::Any, 1), "pass");
        assert_eq!(check(1.999, floor, Cores::Any, 1), "FAIL");
        assert_eq!(check(f64::NAN, floor, Cores::Any, 1), "FAIL");
        assert_eq!(check(250_000.0, ceiling, Cores::Any, 1), "pass");
        assert_eq!(check(250_001.0, ceiling, Cores::Any, 1), "FAIL");
        assert_eq!(check(1.0, floor, Cores::AtLeast4, 3), "skipped");
        assert_eq!(check(1.0, floor, Cores::AtLeast4, 4), "FAIL");
    }

    #[test]
    fn gates_read_the_written_value_under_their_path() {
        let ceiling = Bound::AtMost(5.0);
        let level = |p99| Record::new().int("p99", p99).gate(ceiling, Cores::Any);
        let record = Record::new()
            .num("rate", 1.99996, 3)
            .gate(Bound::AtLeast(2.0), Cores::AtLeast4)
            .obj("a", level(4))
            .arr("l", vec![level(5), level(6)]);
        let gates: Vec<(&str, f64)> = record.gates.iter().map(|g| (&*g.0, g.1)).collect();
        let want = [
            ("rate", 2.0),
            ("a.p99", 4.0),
            ("l[0].p99", 5.0),
            ("l[1].p99", 6.0),
        ];
        assert_eq!(gates, want);
    }

    #[test]
    #[should_panic(expected = "a gate must follow a numeric field")]
    fn gates_need_a_numeric_field() {
        let _ = Record::new()
            .bool("ok", true)
            .gate(Bound::AtMost(1.0), Cores::Any);
    }
}
