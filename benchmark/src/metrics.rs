//! The metric inventory: every end-to-end and per-layer metric by name,
//! unit and direction. `BENCHMARK.json` at the repository root states the
//! same tables (a test holds the two together); the glossary is in
//! `README.md`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// (name, unit, direction, regression bound as a share of the parent's median).
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("entries_per_s", "1/s", Better::Higher, 0.25),
    ("report_ms_p50", "ms", Better::Lower, 0.25),
    ("report_ms_p90", "ms", Better::Lower, 0.25),
    ("cpu_us_per_entry", "us", Better::Lower, 0.25),
    ("peak_rss_mib", "MiB", Better::Lower, 0.15),
];

/// (name, unit, direction). Layers are the repository's crates.
pub const PER_LAYER: [(&str, &str, Better); 42] = [
    ("parser.lex_ns_per_entry", "ns", Better::Lower),
    ("parser.parse_ns_per_entry", "ns", Better::Lower),
    ("parser.fingerprint_ns_per_entry", "ns", Better::Lower),
    ("parser.tokens_per_entry", "count", Better::Lower),
    ("parser.arena_bytes_per_entry", "B", Better::Lower),
    ("parser.invalid_share", "ratio", Better::Lower),
    ("algebra.walk_ns_per_distinct", "ns", Better::Lower),
    ("algebra.fragments_ns_per_distinct", "ns", Better::Lower),
    ("graph.structural_ns_per_distinct", "ns", Better::Lower),
    ("core.read_ns_per_entry", "ns", Better::Lower),
    ("core.read_mib_per_s", "MiB/s", Better::Higher),
    ("core.analyze_ns_per_distinct", "ns", Better::Lower),
    ("core.cache_hit_ratio", "ratio", Better::Higher),
    ("core.fold_ns_per_distinct", "ns", Better::Lower),
    ("core.render_us", "us", Better::Lower),
    ("core.scale_2w", "ratio", Better::Higher),
    ("core.unattributed_share", "ratio", Better::Lower),
    ("core.identity_mib_per_s", "MiB/s", Better::Higher),
    ("shard.spawn_ms", "ms", Better::Lower),
    ("shard.encode_us_per_distinct", "us", Better::Lower),
    ("shard.decode_us_per_distinct", "us", Better::Lower),
    ("shard.snapshot_bytes_per_distinct", "B", Better::Lower),
    ("shard.overhead_ms", "ms", Better::Lower),
    ("persist.commit_ms_p50", "ms", Better::Lower),
    ("persist.get_us", "us", Better::Lower),
    ("persist.open_ms", "ms", Better::Lower),
    ("persist.open_mib_per_s", "MiB/s", Better::Higher),
    ("persist.bytes_per_distinct", "B", Better::Lower),
    ("serve.ping_us_p50", "us", Better::Lower),
    ("serve.submit_ms_p50", "ms", Better::Lower),
    ("serve.settle_ms_p50", "ms", Better::Lower),
    ("serve.fetch_ms_p50", "ms", Better::Lower),
    ("serve.job_floor_ms", "ms", Better::Lower),
    ("serve.partition_floor_ms", "ms", Better::Lower),
    ("serve.queue_wait_ms_p50", "ms", Better::Lower),
    ("serve.worker_run_ms_p50", "ms", Better::Lower),
    ("serve.restarts", "count", Better::Lower),
    ("serve.ready_ms", "ms", Better::Lower),
    ("serve.rss_kib_per_job", "KiB", Better::Lower),
    ("obs.overhead_pct", "%", Better::Lower),
    ("obs.scrape_ms", "ms", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
];

/// Named values of one run, in inventory order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(existing, _)| *existing == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(existing, _)| *existing == name)
            .map(|&(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` is written by hand; this holds it to the tables the
    /// driver reports from, and to the limits of the builder's contract.
    #[test]
    fn benchmark_json_states_the_same_inventory() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let file = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = file
            .as_obj()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let strings = |key: &str| -> Vec<String> {
            file.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(strings("paths"), ["benchmark"]);
        let seconds = file.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads = file.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), SPECS.len());
        for (item, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(item.as_obj().unwrap().len(), 2);
            assert_eq!(field(item, "name"), spec.name);
            assert_eq!(field(item, "why"), spec.why);
        }

        let stated = file.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(stated.len(), END_TO_END.len());
        for (item, &(name, unit, better, bound)) in stated.iter().zip(&END_TO_END) {
            assert_eq!(item.as_obj().unwrap().len(), 4);
            assert_eq!(field(item, "name"), name);
            assert_eq!(field(item, "unit"), unit);
            assert_eq!(field(item, "better"), better.as_str());
            assert_eq!(item.get("bound").unwrap().as_f64().unwrap(), bound);
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let stated = file.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(stated.len(), PER_LAYER.len());
        for (item, &(name, unit, better)) in stated.iter().zip(&PER_LAYER) {
            assert_eq!(item.as_obj().unwrap().len(), 3);
            assert_eq!(field(item, "name"), name);
            assert_eq!(field(item, "unit"), unit);
            assert_eq!(field(item, "better"), better.as_str());
        }

        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let legal = |text: &str, extra: &str, max: usize| {
            !text.is_empty()
                && text.len() <= max
                && text
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(names
            .iter()
            .all(|name| legal(name, "_.-", 64)
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())));
        let mut units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        assert!(units.all(|unit| legal(unit, "_/%.-", 16)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "metric names are used once"
        );
    }
}
