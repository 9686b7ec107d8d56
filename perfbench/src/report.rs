//! Metric declarations and the JSON the benchmark prints and stores.

use std::fmt::{self, Write as _};

use crate::stats::Summary;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
/// `BENCHMARK.json` declares the same list.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "1"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("service.codec_us", "us"),
    ("service.overhead_ms", "ms"),
    ("service.first_req_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("cache.get_hit_us", "us"),
    ("cache.hit_ratio", "1"),
    ("cache.get_miss_ms", "ms"),
    ("cache.log_entries", "count"),
    ("cache.insert_us", "us"),
    ("table.build_ms", "ms"),
    ("table.share", "1"),
    ("table.encodings", "count"),
    ("search.ms", "ms"),
    ("search.nodes_per_s", "1/s"),
    ("search.generated", "count"),
    ("search.expanded", "count"),
    ("search.dedup_hits", "count"),
    ("search.viability_pruned", "count"),
    ("search.cut_pruned", "count"),
    ("search.states_kept", "count"),
    ("search.kept_ratio", "1"),
    ("search.arena_bytes", "B"),
    ("search.resident_bytes", "B"),
    ("search.arena_reallocs", "count"),
    ("verify.gate_us", "us"),
    ("verify.symbolic_share", "1"),
    ("obs.on_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.ref_ms", "ms"),
    ("share.search", "1"),
    ("share.table", "1"),
    ("share.cache_get_miss", "1"),
    ("share.service", "1"),
];

/// A minimal JSON value; enough for the result line and result files.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn summary(s: &Summary) -> Json {
        Json::obj([
            ("n", Json::Int(s.n as u64)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
        ])
    }
}

fn escape(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Shortest representation that reads back to the same value:
            // every digit as measured. JSON has no NaN, so a non-finite
            // value is written as null.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => escape(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    escape(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One measured metric, with the within-run spread where it has samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn result_line_shape() {
        let metrics = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.018_734_5,
            spread: None,
        }];
        assert_eq!(
            result_line(true, 3, 0, &metrics).to_string(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.0187345, "unit": "s"}}}"#
        );
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::str("a\"b").to_string(), r#""a\"b""#);
    }

    /// The metric tables here and the benchmark declaration agree.
    #[test]
    fn declaration_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let mut names = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(names.insert(*name), "{name} declared twice");
            let declared = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&declared), "BENCHMARK.json lacks {declared}");
        }
        assert_eq!(text.matches(r#""name": "#).count(), names.len() + 2);
    }
}
