//! Result types and a minimal JSON writer (the workspace vendors no JSON
//! crate, and the output is small and flat).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, printed with every digit Rust's shortest
    /// round-trip formatting gives it.
    Num(f64),
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON text, inserted verbatim.
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact serialization.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric name, e.g. `infer.f32_ms_p50`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Ordered metric set with insertion helpers.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends (or replaces) `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Appends every metric of `other` (replacing duplicates).
    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(m.name, m.value, m.unit);
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn json(&self) -> Json {
        Json::obj(self.0.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

/// One correctness gate's verdict.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Gate name.
    pub name: String,
    /// Whether it passed.
    pub pass: bool,
    /// What was compared.
    pub detail: String,
}

impl Gate {
    /// A verdict.
    pub fn new(name: &str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }

    /// JSON form.
    pub fn json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("pass", Json::Bool(self.pass)),
            ("detail", Json::str(&self.detail)),
        ])
    }
}

/// What one workload pass produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced passes only).
    pub layers: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not resolve correctly.
    pub failed: u64,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Workload-specific details for the full report.
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// `true` when every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Records a detail entry.
    pub fn detail(&mut self, key: &str, v: Json) {
        self.details.push((key.into(), v));
    }

    /// Folds in another pass of the same run: its per-layer metrics, its
    /// counts, and its gates and details under `pass/`, so this outcome is
    /// correct only when that pass's gates passed too.
    pub fn absorb(&mut self, pass: &str, other: Outcome) {
        self.layers.extend(other.layers);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for g in other.gates {
            self.gates
                .push(Gate::new(&format!("{pass}/{}", g.name), g.pass, g.detail));
        }
        for (k, v) in other.details {
            self.details.push((format!("{pass}/{k}"), v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            (
                "b",
                Json::Arr(vec![Json::Int(-3), Json::Null, Json::Bool(true)]),
            ),
            ("c", Json::str("q\"\\\n")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":1.25,"b":[-3,null,true],"c":"q\"\\\n","d":null}"#
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).render(), "3.0");
    }

    #[test]
    fn absorb_prefixes_gates_and_adds_counts() {
        let mut a = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let mut b = Outcome {
            attempted: 5,
            failed: 1,
            ..Outcome::default()
        };
        b.gates.push(Gate::new("g", false, "why"));
        b.layers.put("x", 1.0, "ms");
        a.absorb("p", b);
        assert_eq!((a.attempted, a.failed), (8, 1));
        assert_eq!(a.gates[0].name, "p/g");
        assert!(!a.correct());
        assert_eq!(a.layers.get("x"), Some(1.0));
    }

    #[test]
    fn metrics_replace_by_name() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "ms");
        m.put("x", 2.0, "ms");
        assert_eq!(m.0.len(), 1);
        assert_eq!(m.get("x"), Some(2.0));
        assert_eq!(m.json().render(), r#"{"x":{"value":2.0,"unit":"ms"}}"#);
    }
}
