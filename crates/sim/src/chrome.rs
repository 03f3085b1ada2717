//! Chrome Trace Event documents, the JSON shape Perfetto and
//! `chrome://tracing` load.
//!
//! Both trace writers in the workspace build their documents here: the
//! span renderer (`vbench::spans::perfetto_json`, "X" events) and the
//! counter exporter (`vtrace::export::counter_trace`, "C" events). This
//! module owns the parts they share: the `traceEvents`/`displayTimeUnit`
//! wrapper and the `"M"` metadata events that name process and thread
//! lanes.
//!
//! # Examples
//!
//! ```
//! use vsim::chrome;
//!
//! let doc = chrome::document(vec![chrome::process_name(1, "station 1")]);
//! assert!(doc.pretty().contains("\"displayTimeUnit\": \"ms\""));
//! ```

use crate::json::{Json, ToJson};

/// Wraps `events` as a trace document with millisecond display units.
pub fn document(events: Vec<Json>) -> Json {
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".to_json()),
    ])
}

/// The `"M"` event naming process `pid`'s lane.
pub fn process_name(pid: u64, name: &str) -> Json {
    Json::obj([
        ("name", "process_name".to_json()),
        ("ph", "M".to_json()),
        ("pid", pid.to_json()),
        ("args", Json::obj([("name", name.to_json())])),
    ])
}

/// The `"M"` event naming thread `tid` of process `pid`.
pub fn thread_name(pid: u64, tid: u64, name: &str) -> Json {
    Json::obj([
        ("name", "thread_name".to_json()),
        ("ph", "M".to_json()),
        ("pid", pid.to_json()),
        ("tid", tid.to_json()),
        ("args", Json::obj([("name", name.to_json())])),
    ])
}
