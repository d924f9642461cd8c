//! Named metrics: what a child process hands its parent and what the
//! parent prints — a table for people, then one JSON object on the last
//! line for the driver.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Metrics in the order they were recorded, plus the operation tally and
/// free-form notes (diagnostics that are not metrics).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        debug_assert!(
            self.get(&name).is_none(),
            "metric {name} recorded twice in one report"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_owned(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Count a phase's operations; a failure is also noted.
    pub fn tally(&mut self, phase: &str, attempted: u64, failed: u64, first_failure: Option<&str>) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!(
                "FAILED {phase}: {failed} of {attempted} operations; first: {}",
                first_failure.unwrap_or("(no detail)")
            ));
        }
    }

    /// The line protocol a child writes on its standard output.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "metric\t{}\t{:?}\t{}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "ops\t{}\t{}", self.attempted, self.failed);
        for n in &self.notes {
            let _ = writeln!(out, "note\t{}", n.replace('\n', " "));
        }
        out
    }

    pub fn from_lines(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let mut parts = line.split('\t');
            match parts.next() {
                Some("metric") => {
                    let (Some(name), Some(value), Some(unit)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(format!("short metric line: {line}"));
                    };
                    let value = value
                        .parse()
                        .map_err(|_| format!("bad metric value: {line}"))?;
                    r.put(name, value, unit);
                }
                Some("ops") => {
                    let mut num = || parts.next().and_then(|v| v.parse::<u64>().ok());
                    let (Some(a), Some(f)) = (num(), num()) else {
                        return Err(format!("bad ops line: {line}"));
                    };
                    r.attempted = a;
                    r.failed = f;
                    saw_ops = true;
                }
                Some("note") => r.note(parts.next().unwrap_or("")),
                _ => {} // anything else a child prints is for people
            }
        }
        if saw_ops {
            Ok(r)
        } else {
            Err("child printed no operation tally".into())
        }
    }

    /// The driver's result object, restricted to `names` in that order.
    pub fn to_json<S: AsRef<str>>(&self, names: &[S]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let name = name.as_ref();
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:width$}  {:>14.4} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// JSON has no infinity: a latency figure that failed operations pushed
/// to infinity prints as a number too large to mistake for a time.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_and_json_is_exact() {
        let mut r = Report::default();
        r.put("lat_p50_ms.threaded", 0.091234567, "ms");
        r.put("req_per_s.reactor", 110234.5, "1/s");
        r.tally("paced", 1000, 0, None);
        r.tally("closed", 500, 2, Some("op 3: wrong status"));
        let back = Report::from_lines(&r.to_lines()).unwrap();
        assert_eq!(back, r);
        assert_eq!((back.attempted, back.failed), (1500, 2));
        let json = back
            .to_json(&["req_per_s.reactor", "lat_p50_ms.threaded"])
            .unwrap();
        assert_eq!(
            json,
            "{\"correct\": false, \"attempted\": 1500, \"failed\": 2, \"metrics\": {\
             \"req_per_s.reactor\": {\"value\": 110234.5, \"unit\": \"1/s\"}, \
             \"lat_p50_ms.threaded\": {\"value\": 0.091234567, \"unit\": \"ms\"}}}"
        );
        assert!(back.to_json(&["missing"]).is_err());
        assert!(Report::from_lines("metric\ta\t1.0\tms\n").is_err());
        assert_eq!(json_number(f64::INFINITY), "1e300");
    }
}
