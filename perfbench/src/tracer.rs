//! Benchmark-side spans: the name, start, end and parent of every layer call
//! the traced pass makes, kept in memory and written out when it ends.
//!
//! A span's layer is its name up to the first `.` (`lang.parse` belongs to
//! `lang`); `bench.*` spans are the benchmark's own glue.  Self time is a
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::json_string;

#[derive(Debug)]
struct SpanRecord {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl SpanRecord {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

#[allow(clippy::cast_precision_loss)]
fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, a child of the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(SpanRecord {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open(name);
        let result = f(self);
        self.close(id);
        result
    }

    /// Total seconds spent in spans named exactly `name`.
    pub fn total(&self, name: &str) -> f64 {
        seconds(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(SpanRecord::nanos)
                .sum(),
        )
    }

    fn root_of(&self, mut id: usize) -> usize {
        while let Some(parent) = self.spans[id].parent {
            id = parent;
        }
        id
    }

    /// Self seconds per layer over every span whose root is not named
    /// `excluded_root`.
    pub fn self_by_layer(&self, excluded_root: &str) -> BTreeMap<String, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.nanos();
            }
        }
        let mut layers = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if self.spans[self.root_of(id)].name == excluded_root {
                continue;
            }
            *layers.entry(span.layer().to_owned()).or_insert(0.0) +=
                seconds(span.nanos().saturating_sub(covered[id]));
        }
        layers
    }

    /// The spans as a JSON array of `{id, parent, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                    json_string(&s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_excluded_roots() {
        let mut tracer = Tracer::new();
        tracer.span("bench.case", |t| {
            t.span("lang.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        tracer.span("bench.probe", |t| t.span("analysis.bounds", |_| ()));
        let layers = tracer.self_by_layer("bench.probe");
        assert!(layers["lang"] >= 0.003);
        assert!(layers["bench"] < layers["lang"]);
        assert!(!layers.contains_key("analysis"));
        assert!((tracer.total("lang.parse") - layers["lang"]).abs() < 1e-12);
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
