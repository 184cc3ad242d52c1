//! A flat-row recorder for experiment results.
//!
//! Experiments that report a handful of named numbers (`table1 --faults`,
//! `group_lifecycle`) [`record`](Bench::record) them and
//! [`emit_json`](Bench::emit_json) merges them into the file named by
//! `WHISPER_BENCH_JSON` — the flat `"id": value` format of the
//! `BENCH_pr*.json` snapshots that `scripts/bench_trend.sh` reads.
//! Timing lives in `perfbench/`, not here.

/// Named values of one run, in recording order.
#[derive(Default)]
pub struct Bench {
    results: Vec<(String, f64)>,
}

impl Bench {
    /// An empty recorder.
    pub fn new() -> Bench {
        Bench::default()
    }

    /// Records `value` under `full_id` (`group/name`).
    pub fn record(&mut self, full_id: impl Into<String>, value: f64) {
        self.results.push((full_id.into(), value));
    }

    /// Writes every recorded value to the JSON file named by the
    /// `WHISPER_BENCH_JSON` environment variable (no-op when unset).
    ///
    /// The format is a flat object, `{"group/name": value, ...}`, sorted
    /// by key. An existing file is merged into (this run's ids win), so
    /// several binaries can accumulate into one file.
    pub fn emit_json(&self) {
        let Ok(path) = std::env::var("WHISPER_BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        if let Err(e) = std::fs::write(&path, self.merged_json(&existing)) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("bench rows written to {path}");
        }
    }

    /// `existing` (a file this module wrote, or empty) with this run's
    /// rows merged in. Values are written in their shortest form that
    /// parses back to the same `f64`; a non-finite value has no JSON form
    /// and is left out, whether recorded now or found in `existing`.
    fn merged_json(&self, existing: &str) -> String {
        let mut merged = parse_flat_json(existing);
        for (id, value) in &self.results {
            if !value.is_finite() {
                eprintln!("warning: {id} is {value}; row not written");
                continue;
            }
            match merged.iter_mut().find(|(k, _)| k == id) {
                Some(slot) => slot.1 = *value,
                None => merged.push((id.clone(), *value)),
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("{\n");
        for (i, (id, value)) in merged.iter().enumerate() {
            let comma = if i + 1 < merged.len() { "," } else { "" };
            out.push_str(&format!("  \"{id}\": {value}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }
}

/// Parses the flat `{"id": number, ...}` JSON this module writes. Only
/// has to understand its own output — string keys without escapes, plain
/// numbers — so a line scanner is enough; anything else is skipped,
/// including the `NaN`/`inf` rows an older build could write (Rust's
/// `f64` parser accepts them, JSON readers do not).
fn parse_flat_json(s: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in s.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim();
        if key.len() < 2 || !key.starts_with('"') || !key.ends_with('"') {
            continue;
        }
        match value.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => out.push((key[1..key.len() - 1].to_string(), v)),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_round_trips() {
        let parsed = parse_flat_json("{\n  \"a/b\": 12.5,\n  \"c/d\": 3.0\n}\n");
        assert_eq!(parsed, vec![("a/b".to_string(), 12.5), ("c/d".to_string(), 3.0)]);
        assert!(parse_flat_json("not json at all").is_empty());
    }

    #[test]
    fn written_rows_read_back_exactly_and_non_finite_ones_are_left_out() {
        let mut bench = Bench::new();
        bench.record("allocs/per_send", 0.0937);
        bench.record("broken/ratio", f64::NAN);
        bench.record("scaling/rate", 380427.8);
        let json = bench.merged_json("{\n  \"kept/old\": 2.0,\n  \"stale/ratio\": NaN\n}\n");
        assert_eq!(
            parse_flat_json(&json),
            vec![
                ("allocs/per_send".to_string(), 0.0937),
                ("kept/old".to_string(), 2.0),
                ("scaling/rate".to_string(), 380427.8),
            ]
        );
        assert!(!json.contains("NaN"), "NaN is not JSON; bench_trend.sh would choke on {json}");
    }
}
