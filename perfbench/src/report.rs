//! Metric names and units, medians, and the one-line JSON result.

/// End-to-end metrics (tracing off), reported by every workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced pass, reported by every workload; a layer
/// a workload never calls reports 0 (and `sim.silent_frac` reports 1: no
/// trial ran, so none failed to fall silent).  README.md maps each one to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("lang.parse_s", "s"),
    ("lang.lower_s", "s"),
    ("lang.bytes_per_s", "B/s"),
    ("lang.self_s", "s"),
    ("core.characterize_s", "s"),
    ("core.synthesize_s", "s"),
    ("core.species_emitted", "count"),
    ("core.reactions_emitted", "count"),
    ("core.self_s", "s"),
    ("analysis.lint_s", "s"),
    ("analysis.bounds_s", "s"),
    ("analysis.semiflows_s", "s"),
    ("analysis.t_semiflows_s", "s"),
    ("analysis.siphons_s", "s"),
    ("analysis.truncations", "count"),
    ("analysis.self_s", "s"),
    ("reachability.sweep_s", "s"),
    ("reachability.configs_explored", "count"),
    ("reachability.configs_per_s", "1/s"),
    ("reachability.points", "count"),
    ("reachability.static_decided", "count"),
    ("reachability.symmetry_skipped", "count"),
    ("reachability.cache_served", "count"),
    ("reachability.skipped_frac", "frac"),
    ("reachability.memo_hit_rate", "frac"),
    ("reachability.arena_collisions", "count"),
    ("reachability.arena_grows", "count"),
    ("reachability.bytes_per_config", "B"),
    ("reachability.self_s", "s"),
    ("sim.ensemble_s", "s"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.refreshes_per_step", "ratio"),
    ("sim.worker_busy_frac", "frac"),
    ("sim.silent_frac", "frac"),
    ("sim.self_s", "s"),
    ("bench.self_s", "s"),
    ("obs.overhead_frac", "frac"),
    ("obs.traced_wall_s", "s"),
    ("process.cpu_s", "s"),
    ("process.traced_peak_rss_mb", "MB"),
];

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Every metric is finite by construction; guard the JSON anyway.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
        let line = result_line(4, 0, &[("wall_s".into(), 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
