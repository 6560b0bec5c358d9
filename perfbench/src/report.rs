//! The result line: metric names, rendering and parsing.
//!
//! The last line of standard output is one JSON object,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value":
//! …, "unit": …}}}`. Names and units are checked before anything prints,
//! so a typo in the benchmark fails the run instead of producing a result
//! nobody can compare.

use std::fmt::Write as _;

#[cfg(test)]
use blap_obs::json::{self, Value};

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// `[A-Za-z0-9_/%.-]{1,16}`.
    pub unit: &'static str,
}

/// The whole result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a valid metric name: a letter or digit, then up to
/// 63 letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl Outcome {
    /// Renders the result line, or says why it cannot: a bad name or
    /// unit, a name used twice, or a value that is not a finite number.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::with_capacity(64 * self.metrics.len() + 64);
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if self.metrics[..i].iter().any(|other| other.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 prints the shortest exact decimal, never an
            // exponent, so the line keeps every measured digit.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses a result line back (the inverse of [`Outcome::render`]).
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        let Value::Object(members) = &value else {
            return Err("result is not an object".to_owned());
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{key} is not a whole number"))
        };
        let Some(Value::Object(entries)) = value.get("metrics") else {
            return Err("metrics is not an object".to_owned());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            let number = match entry.get("value") {
                Some(Value::Num(text)) => text
                    .parse::<f64>()
                    .map_err(|e| format!("{name}: bad value {text:?}: {e}"))?,
                _ => return Err(format!("{name}: missing numeric value")),
            };
            let unit = entry
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{name}: missing unit"))?;
            metrics.push(Metric {
                name: name.clone(),
                value: number,
                unit: intern_unit(unit).ok_or_else(|| format!("{name}: unknown unit {unit:?}"))?,
            });
        }
        Ok(Outcome {
            correct: value
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("correct is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Every unit this benchmark reports.
#[cfg(test)]
const UNITS: [&str; 10] = [
    "1/s", "B/s", "MB/s", "s", "MiB", "us", "ns", "ms", "count", "ratio",
];

#[cfg(test)]
fn intern_unit(unit: &str) -> Option<&'static str> {
    UNITS.iter().copied().find(|u| *u == unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "trials_per_s",
            "crypto.p256_share",
            "a",
            "9-x.y_z",
            &"n".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "sl/ash",
            "ü",
            &"n".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn units_follow_the_contract() {
        for unit in UNITS {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit("abcdefghijklmnopq"));
    }

    #[test]
    fn rendered_line_parses_back_exactly() {
        let outcome = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                metric("trials_per_s", 612.345_678_901_234_5, "1/s"),
                metric("setup_s", 0.000_001_234_567_8, "s"),
                metric("peak_heap_mib", 37.0, "MiB"),
            ],
        };
        let line = outcome.render().expect("valid outcome");
        assert!(
            line.contains("0.0000012345678"),
            "no exponent notation: {line}"
        );
        assert_eq!(Outcome::parse(&line), Ok(outcome));
    }

    #[test]
    fn render_refuses_bad_metrics() {
        let with = |m: Metric| Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![m],
        };
        assert!(with(metric("bad name", 1.0, "s")).render().is_err());
        assert!(with(metric("x", f64::NAN, "s")).render().is_err());
        assert!(with(metric("x", f64::INFINITY, "s")).render().is_err());
        let twice = Outcome {
            metrics: vec![metric("x", 1.0, "s"), metric("x", 2.0, "s")],
            ..with(metric("x", 1.0, "s"))
        };
        assert!(twice.render().is_err());
    }

    #[test]
    fn parse_rejects_other_shapes() {
        assert!(Outcome::parse("[]").is_err());
        assert!(Outcome::parse(r#"{"correct": true, "attempted": 1, "failed": 0}"#).is_err());
        assert!(Outcome::parse(
            r#"{"correct": true, "attempted": -1, "failed": 0, "metrics": {}}"#
        )
        .is_err());
    }
}
