//! Structural comparison of two JSON exports (the engine behind
//! `oscar-reports diff`).
//!
//! A metrics or provenance export is parsed with a small dependency-free
//! JSON reader, flattened into a sorted `path.to.key -> scalar` map
//! (array elements become `path.N`), and compared key by key. Every
//! differing key yields a [`DiffEntry`] with absolute and relative
//! deltas; per-prefix [`Tolerance`]s (longest matching prefix wins)
//! decide whether a delta counts as *drift*. Keys present on only one
//! side render as explicit `added`/`removed` rows and are always drift.
//! The default tolerance is exact equality, so `diff a.json a.json` of
//! two identical-seed runs reports zero delta.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (read as `f64`; oscar's exports stay well inside
    /// the 2^53 exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, key-sorted.
    Obj(BTreeMap<String, JsonValue>),
}

/// One leaf of a flattened document.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A numeric leaf (comparable with tolerances).
    Num(f64),
    /// Any non-numeric leaf, rendered to text (compared exactly).
    Text(String),
}

impl Scalar {
    fn render(&self) -> String {
        match self {
            Scalar::Num(n) => format_num(*n),
            Scalar::Text(t) => t.clone(),
        }
    }
}

fn format_num(n: f64) -> String {
    if n == n.trunc() && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Every export
/// this crate writes nests at most a handful of levels; the bound keeps
/// hostile input from overflowing the recursive parser's stack.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset. Documents
/// nesting arrays/objects deeper than [`MAX_JSON_DEPTH`] levels are
/// refused with an error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let b = text.as_bytes();
    let mut p = Parser {
        b,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth >= MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(&c) = self.b.get(self.pos) {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.pos])
                            .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(&c) = self.b.get(self.pos) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Flattens a document into `dotted.path -> scalar` leaves: object
/// members append `.key`, array elements append `.N`. The result is
/// key-sorted and so deterministic.
pub fn flatten(v: &JsonValue) -> BTreeMap<String, Scalar> {
    let mut out = BTreeMap::new();
    flatten_into(v, String::new(), &mut out);
    out
}

fn flatten_into(v: &JsonValue, path: String, out: &mut BTreeMap<String, Scalar>) {
    let join = |p: &str, k: &str| {
        if p.is_empty() {
            k.to_string()
        } else {
            format!("{p}.{k}")
        }
    };
    match v {
        JsonValue::Obj(map) => {
            for (k, v) in map {
                flatten_into(v, join(&path, k), out);
            }
        }
        JsonValue::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_into(v, join(&path, &i.to_string()), out);
            }
        }
        JsonValue::Num(n) => {
            out.insert(path, Scalar::Num(*n));
        }
        JsonValue::Str(s) => {
            out.insert(path, Scalar::Text(s.clone()));
        }
        JsonValue::Bool(b) => {
            out.insert(path, Scalar::Text(b.to_string()));
        }
        JsonValue::Null => {
            out.insert(path, Scalar::Text("null".to_string()));
        }
    }
}

/// An allowed deviation for keys under a prefix. The most specific
/// (longest) matching prefix applies; an empty prefix matches every
/// key. A delta is tolerated when it is within **either** bound.
#[derive(Debug, Clone, Default)]
pub struct Tolerance {
    /// Key prefix this tolerance governs (`""` = all keys).
    pub prefix: String,
    /// Allowed relative delta, `|a-b| / max(|a|,|b|)`.
    pub rel: f64,
    /// Allowed absolute delta, `|a-b|`.
    pub abs: f64,
}

/// How a key differs between the two documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// Present on both sides with different values.
    Value,
    /// Present only on the right side.
    Added,
    /// Present only on the left side.
    Removed,
}

/// One differing key.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// The flattened key.
    pub key: String,
    /// How the key differs (value change vs. one-sided presence).
    pub kind: DiffKind,
    /// Left-side value, if present.
    pub left: Option<String>,
    /// Right-side value, if present.
    pub right: Option<String>,
    /// `|a-b|` for numeric pairs (infinite for presence/type
    /// mismatches).
    pub abs_delta: f64,
    /// `|a-b| / max(|a|,|b|)` for numeric pairs (0 when both are 0,
    /// infinite for presence/type mismatches).
    pub rel_delta: f64,
    /// Whether a tolerance covers this delta.
    pub within: bool,
}

/// The outcome of comparing two flattened documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every differing key, in key order.
    pub entries: Vec<DiffEntry>,
    /// Total keys examined (union of both sides).
    pub compared: usize,
}

impl DiffReport {
    /// Differing keys not covered by a tolerance.
    pub fn drifted(&self) -> usize {
        self.entries.iter().filter(|e| !e.within).count()
    }

    /// Whether no out-of-tolerance drift was found.
    pub fn is_clean(&self) -> bool {
        self.drifted() == 0
    }

    /// Renders a human-readable summary: out-of-tolerance keys first
    /// (capped at `max_lines`), then one summary line.
    pub fn render(&self, max_lines: usize) -> String {
        let mut out = String::new();
        for (shown, e) in self.entries.iter().filter(|e| !e.within).enumerate() {
            if shown == max_lines {
                let _ = writeln!(out, "  ... ({} more)", self.drifted() - shown);
                break;
            }
            match e.kind {
                DiffKind::Added => {
                    let _ = writeln!(
                        out,
                        "  {}: added = {}",
                        e.key,
                        e.right.as_deref().unwrap_or("?")
                    );
                }
                DiffKind::Removed => {
                    let _ = writeln!(
                        out,
                        "  {}: removed (was {})",
                        e.key,
                        e.left.as_deref().unwrap_or("?")
                    );
                }
                DiffKind::Value => {
                    let l = e.left.as_deref().unwrap_or("?");
                    let r = e.right.as_deref().unwrap_or("?");
                    if e.abs_delta.is_finite() {
                        let _ = writeln!(
                            out,
                            "  {}: {} -> {} (abs {}, rel {:.4})",
                            e.key,
                            l,
                            r,
                            format_num(e.abs_delta),
                            e.rel_delta
                        );
                    } else {
                        let _ = writeln!(out, "  {}: {} -> {}", e.key, l, r);
                    }
                }
            }
        }
        let tolerated = self.entries.len() - self.drifted();
        let _ = writeln!(
            out,
            "{} keys compared, {} drifting, {} within tolerance",
            self.compared,
            self.drifted(),
            tolerated
        );
        out
    }
}

/// Whether a tolerance prefix covers `key`. A plain prefix matches
/// from the start of the key; a prefix starting with `*.` matches the
/// remainder anywhere a dot-separated component begins, so
/// `*.exhibit.causal.` covers `<tag>.exhibit.causal.edges` for every
/// run tag.
fn prefix_covers(key: &str, prefix: &str) -> bool {
    match prefix.strip_prefix("*.") {
        None => key.starts_with(prefix),
        Some(rest) => {
            let mut from = 0;
            while let Some(pos) = key[from..].find(rest) {
                let i = from + pos;
                if i == 0 || key.as_bytes()[i - 1] == b'.' {
                    return true;
                }
                from = i + 1;
            }
            false
        }
    }
}

fn tolerance_for<'a>(key: &str, tols: &'a [Tolerance]) -> Option<&'a Tolerance> {
    tols.iter()
        .filter(|t| prefix_covers(key, &t.prefix))
        .max_by_key(|t| t.prefix.len())
}

/// Compares two flattened documents under the given tolerances.
pub fn diff_flat(
    a: &BTreeMap<String, Scalar>,
    b: &BTreeMap<String, Scalar>,
    tols: &[Tolerance],
) -> DiffReport {
    let mut entries = Vec::new();
    let mut compared = 0usize;
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        compared += 1;
        let (va, vb) = (a.get(key), b.get(key));
        let entry = match (va, vb) {
            (Some(Scalar::Num(x)), Some(Scalar::Num(y))) => {
                let abs = (x - y).abs();
                if abs == 0.0 {
                    continue;
                }
                let scale = x.abs().max(y.abs());
                let rel = if scale == 0.0 { 0.0 } else { abs / scale };
                let within = tolerance_for(key, tols)
                    .map(|t| abs <= t.abs || rel <= t.rel)
                    .unwrap_or(false);
                DiffEntry {
                    key: key.clone(),
                    kind: DiffKind::Value,
                    left: Some(format_num(*x)),
                    right: Some(format_num(*y)),
                    abs_delta: abs,
                    rel_delta: rel,
                    within,
                }
            }
            (Some(x), Some(y)) => {
                if x == y {
                    continue;
                }
                // Type mismatch or differing text: never tolerated.
                DiffEntry {
                    key: key.clone(),
                    kind: DiffKind::Value,
                    left: Some(x.render()),
                    right: Some(y.render()),
                    abs_delta: f64::INFINITY,
                    rel_delta: f64::INFINITY,
                    within: false,
                }
            }
            // One-sided keys: an explicit added/removed row, always
            // drift (a new or vanished counter is a schema change).
            (x, y) => DiffEntry {
                key: key.clone(),
                kind: if x.is_none() {
                    DiffKind::Added
                } else {
                    DiffKind::Removed
                },
                left: x.map(Scalar::render),
                right: y.map(Scalar::render),
                abs_delta: f64::INFINITY,
                rel_delta: f64::INFINITY,
                within: false,
            },
        };
        entries.push(entry);
    }
    DiffReport { entries, compared }
}

/// Parses, flattens and compares two JSON documents in one call.
pub fn diff_documents(a: &str, b: &str, tols: &[Tolerance]) -> Result<DiffReport, String> {
    let fa = flatten(&parse_json(a).map_err(|e| format!("left: {e}"))?);
    let fb = flatten(&parse_json(b).map_err(|e| format!("right: {e}"))?);
    Ok(diff_flat(&fa, &fb, tols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_flattens_nested_documents() {
        let doc = r#"{"a": {"b": [1, 2.5, "x"], "c": true}, "d": null}"#;
        let flat = flatten(&parse_json(doc).unwrap());
        assert_eq!(flat.get("a.b.0"), Some(&Scalar::Num(1.0)));
        assert_eq!(flat.get("a.b.1"), Some(&Scalar::Num(2.5)));
        assert_eq!(flat.get("a.b.2"), Some(&Scalar::Text("x".to_string())));
        assert_eq!(flat.get("a.c"), Some(&Scalar::Text("true".to_string())));
        assert_eq!(flat.get("d"), Some(&Scalar::Text("null".to_string())));
        assert_eq!(flat.len(), 5);
    }

    #[test]
    fn parses_escapes_and_rejects_garbage() {
        let v = parse_json(r#""a\n\"bA""#).unwrap();
        assert_eq!(v, JsonValue::Str("a\n\"bA".to_string()));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let ok = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&ok).is_ok());
        let over = format!("{{\"a\": {ok}}}");
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn round_trips_a_metrics_export() {
        let mut m = crate::Metrics::new();
        m.add("a.count", 7);
        m.set_gauge("b.rate", 2.5);
        m.record_hist("c.hist", 9);
        let flat = flatten(&parse_json(&m.to_json()).unwrap());
        assert_eq!(flat.get("a.count.value"), Some(&Scalar::Num(7.0)));
        assert_eq!(flat.get("b.rate.value"), Some(&Scalar::Num(2.5)));
        assert_eq!(flat.get("c.hist.count"), Some(&Scalar::Num(1.0)));
        assert_eq!(flat.get("c.hist.p50.value"), Some(&Scalar::Num(9.0)));
    }

    #[test]
    fn identical_documents_report_zero_delta() {
        let doc = r#"{"x": {"y": 3}, "z": [1, 2]}"#;
        let r = diff_documents(doc, doc, &[]).unwrap();
        assert!(r.is_clean());
        assert!(r.entries.is_empty());
        assert_eq!(r.compared, 3);
        assert!(r.render(10).contains("0 drifting"));
    }

    #[test]
    fn deltas_and_missing_keys_are_drift_by_default() {
        let a = r#"{"n": 100, "only_a": 1, "s": "x"}"#;
        let b = r#"{"n": 110, "only_b": 2, "s": "y"}"#;
        let r = diff_documents(a, b, &[]).unwrap();
        assert_eq!(r.drifted(), 4);
        let n = &r.entries[0];
        assert_eq!(n.key, "n");
        assert_eq!(n.kind, DiffKind::Value);
        assert_eq!(n.abs_delta, 10.0);
        assert!((n.rel_delta - 10.0 / 110.0).abs() < 1e-12);
        // One-sided keys classify by side: left-only removed, right-only
        // added — explicit rows, no `<missing>` placeholder.
        assert!(r
            .entries
            .iter()
            .any(|e| e.key == "only_a" && e.kind == DiffKind::Removed));
        assert!(r
            .entries
            .iter()
            .any(|e| e.key == "only_b" && e.kind == DiffKind::Added));
        let text = r.render(10);
        assert!(text.contains("only_a: removed (was 1)"));
        assert!(text.contains("only_b: added = 2"));
        assert!(!text.contains("<missing>"));
    }

    #[test]
    fn longest_prefix_tolerance_wins() {
        let a = r#"{"perf": {"rate": 100, "rss": 50}, "count": 10}"#;
        let b = r#"{"perf": {"rate": 109, "rss": 80}, "count": 10}"#;
        let tols = [
            Tolerance {
                prefix: "perf.".to_string(),
                rel: 0.0,
                abs: 0.0,
            },
            Tolerance {
                prefix: "perf.rate".to_string(),
                rel: 0.10,
                abs: 0.0,
            },
        ];
        let r = diff_documents(a, b, &tols).unwrap();
        // rate drifts 9% — inside its specific 10% tolerance; rss falls
        // back to the stricter perf. prefix and drifts.
        assert_eq!(r.drifted(), 1);
        assert_eq!(r.entries.len(), 2);
        assert!(r.entries.iter().any(|e| e.key == "perf.rate" && e.within));
        assert!(r.entries.iter().any(|e| e.key == "perf.rss" && !e.within));
    }

    #[test]
    fn wildcard_prefix_matches_at_dot_boundaries() {
        let a = r#"{"pmake.exhibit.causal.edges": 10, "exhibit.causal.edges": 4, "notexhibit.causal.x": 1}"#;
        let b = r#"{"pmake.exhibit.causal.edges": 14, "exhibit.causal.edges": 9, "notexhibit.causal.x": 2}"#;
        let tols = [Tolerance {
            prefix: "*.exhibit.causal.".to_string(),
            rel: 1.0,
            abs: 0.0,
        }];
        let r = diff_documents(a, b, &tols).unwrap();
        // Both tagged and untagged causal keys are covered; the
        // `notexhibit` key is not at a dot boundary and drifts.
        assert_eq!(r.drifted(), 1);
        assert!(r
            .entries
            .iter()
            .any(|e| e.key == "pmake.exhibit.causal.edges" && e.within));
        assert!(r
            .entries
            .iter()
            .any(|e| e.key == "exhibit.causal.edges" && e.within));
        assert!(r
            .entries
            .iter()
            .any(|e| e.key == "notexhibit.causal.x" && !e.within));
    }

    #[test]
    fn absolute_tolerance_is_an_alternative_bound() {
        let a = r#"{"x": 2}"#;
        let b = r#"{"x": 4}"#;
        let tol = [Tolerance {
            prefix: String::new(),
            rel: 0.0,
            abs: 2.0,
        }];
        assert!(diff_documents(a, b, &tol).unwrap().is_clean());
        let tight = [Tolerance {
            prefix: String::new(),
            rel: 0.0,
            abs: 1.9,
        }];
        assert!(!diff_documents(a, b, &tight).unwrap().is_clean());
    }

    #[test]
    fn empty_documents_compare_clean() {
        let r = diff_documents("{}", "{}", &[]).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.compared, 0);
    }

    #[test]
    fn render_caps_lines() {
        let a = r#"{"a": 1, "b": 1, "c": 1}"#;
        let b = r#"{"a": 2, "b": 2, "c": 2}"#;
        let r = diff_documents(a, b, &[]).unwrap();
        let text = r.render(1);
        assert!(text.contains("... (2 more)"));
    }
}
