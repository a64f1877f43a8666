//! Metric naming rules and the one-line JSON result.

use std::fmt::Write as _;

/// Checks a metric or workload name: it starts with a letter or digit,
/// has at most 64 characters, and uses only letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number. A layer the workload does not use is
/// reported as 0 and marked not applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub applicable: bool,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        Metric {
            name,
            unit,
            value,
            applicable: true,
        }
    }

    pub fn not_applicable(name: &'static str, unit: &'static str) -> Self {
        Metric {
            applicable: false,
            ..Metric::new(name, unit, 0.0)
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit (`f64` display is the shortest
/// representation that parses back to the same number).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_names_the_manifest_uses() {
        for n in [
            "wall_s",
            "peak_rss_mb",
            "trace.decode_s",
            "types.wire_bytes_per_tuple",
            "sec62-naive-tcp",
            "skew-adaptive-threaded",
            "9lives",
        ] {
            assert!(valid_name(n), "{n}");
        }
    }

    #[test]
    fn rejects_bad_names() {
        let long = "a".repeat(65);
        for n in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "ü",
            &long,
        ] {
            assert!(!valid_name(n), "{n:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units() {
        for u in ["s", "ms", "MB", "1/s", "%", "ns/tuple", "B/tuple", "count"] {
            assert!(valid_unit(u), "{u}");
        }
        for u in ["", "tuples per sec", "µs", "seventeen-chars-x"] {
            assert!(!valid_unit(u), "{u:?}");
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("wall_s", "s", 1.25),
                Metric::new("agg_rx_tuples", "tuples", 10.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"agg_rx_tuples\": {\"value\": 10.0, \"unit\": \"tuples\"}}}"
        );
    }

    #[test]
    fn values_keep_all_digits() {
        let v = 0.1 + 0.2;
        let line = result_json(true, 1, 0, &[Metric::new("x", "s", v)]);
        assert!(line.contains("0.30000000000000004"), "{line}");
    }
}
