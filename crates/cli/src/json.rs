//! The JSON emitter behind every `--json` report of the CLI.
//!
//! The workspace has no serialization dependency, so the reports share this
//! hand-rolled [`Json`] value type and writer.  It covers exactly what the
//! reports need: objects, arrays, strings, integers, floats and booleans,
//! with RFC 8259 string escaping.  [`metrics_json`] is the versioned
//! serialization of a [`crn_obs::MetricsSnapshot`] that profiling embeds
//! into JSON reports.

use crn_obs::MetricsSnapshot;
use std::fmt;

/// The schema version of the object produced by [`metrics_json`].  Bump it
/// whenever a key is renamed, removed, or changes meaning.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (species counts, trial counts, …).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float, printed with Rust's shortest round-trip formatting.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Convenience constructor for an object.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// An array of unsigned integers.
    #[must_use]
    pub fn uints(values: impl IntoIterator<Item = u64>) -> Json {
        Json::Arr(values.into_iter().map(Json::UInt).collect())
    }
}

fn escape(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(out, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(out, "\\\"")?,
            '\\' => write!(out, "\\\\")?,
            '\n' => write!(out, "\\n")?,
            '\r' => write!(out, "\\r")?,
            '\t' => write!(out, "\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    write!(out, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(value) => write!(f, "{value}"),
            Json::UInt(value) => write!(f, "{value}"),
            Json::Int(value) => write!(f, "{value}"),
            Json::Float(value) => {
                if value.is_finite() {
                    write!(f, "{value}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(value) => escape(value, f),
            Json::Arr(values) => {
                write!(f, "[")?;
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{value}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape(key, f)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Serializes a metrics snapshot as the versioned `metrics` object:
///
/// ```json
/// {"version":1,
///  "counters":{"model.box.points":81},
///  "gauges":{"model.arena.capacity":1024},
///  "histograms":{"sim.trial_steps":{"count":8,"sum":640,"buckets":[[7,8]]}},
///  "spans":{"cli.sim":{"count":1,"total_nanos":12345}}}
/// ```
///
/// Keys appear in the snapshot's name-sorted order, so the serialization is
/// deterministic for a given set of recorded metrics.
#[must_use]
pub fn metrics_json(snapshot: &MetricsSnapshot) -> Json {
    let counters = Json::Obj(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::UInt(*value)))
            .collect(),
    );
    let gauges = Json::Obj(
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), Json::UInt(*value)))
            .collect(),
    );
    let histograms = Json::Obj(
        snapshot
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets = Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(index, count)| {
                            Json::Arr(vec![Json::UInt(index as u64), Json::UInt(count)])
                        })
                        .collect(),
                );
                (
                    name.clone(),
                    Json::obj(vec![
                        ("count", Json::UInt(h.count)),
                        ("sum", Json::UInt(h.sum)),
                        ("buckets", buckets),
                    ]),
                )
            })
            .collect(),
    );
    let spans = Json::Obj(
        snapshot
            .spans
            .iter()
            .map(|(path, stat)| {
                (
                    path.clone(),
                    Json::obj(vec![
                        ("count", Json::UInt(stat.count)),
                        ("total_nanos", Json::UInt(stat.total_nanos)),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("version", Json::UInt(METRICS_SCHEMA_VERSION)),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
        ("spans", spans),
    ])
}
