//! Perfetto export: series → Chrome Trace Event counter tracks.
//!
//! Each series becomes a stream of "C" counter events under a dedicated
//! `telemetry` process (pid [`TELEMETRY_PID`]). A span trace written by
//! `vbench::spans::perfetto_json` ("X" events, one process per station)
//! can be merged in, so queue depth, ready counts and lease counts render
//! directly above the spans that caused them. Both writers build their
//! documents with [`vsim::chrome`].

use vsim::{chrome, Json, ToJson};

use crate::query::{clipped_points, series_label};
use crate::Window;

/// The pid counter tracks live under; far outside the u16 station
/// address space so it can never collide with a real station lane.
pub const TELEMETRY_PID: u64 = 1_000_000;

/// Renders the artifact's `series` section as a Chrome Trace Event
/// document of "C" counter events, clipped to `win`. When `spans` is a
/// trace document (`traceEvents`), its events are prepended so one
/// Perfetto load shows spans and counters on a shared timeline.
///
/// # Errors
///
/// Fails when the artifact has no `series` section.
pub fn counter_trace(artifact: &Json, spans: Option<&Json>, win: Window) -> Result<Json, String> {
    let list = artifact
        .get("series")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_arr)
        .ok_or("artifact has no series section")?;
    let mut events: Vec<Json> = spans
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    events.push(chrome::process_name(TELEMETRY_PID, "telemetry"));
    for s in list {
        let label = series_label(s);
        let unit = s.get("unit").and_then(Json::as_str).unwrap_or("value");
        for (t, v) in clipped_points(s, win) {
            events.push(Json::obj([
                ("name", label.as_str().to_json()),
                ("ph", "C".to_json()),
                ("ts", t.to_json()),
                ("pid", TELEMETRY_PID.to_json()),
                ("args", Json::obj([(unit, v.to_json())])),
            ]));
        }
    }
    Ok(chrome::document(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> Json {
        Json::parse(
            r#"{"series": {"capacity": 8, "sweeps": 3, "series": [
                 {"subsystem": "engine", "name": "queue_depth", "unit": "events",
                  "stride": 1, "seen": 3,
                  "points": [[0, 1.0], [1000, 2.0], [2000, 3.0]]}
               ]}}"#,
        )
        .unwrap()
    }

    #[test]
    fn counters_become_c_events_under_the_telemetry_pid() {
        let out = counter_trace(&artifact(), None, Window::default()).unwrap();
        let events = out.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process_name metadata + 3 points.
        assert_eq!(events.len(), 4);
        let c = &events[1];
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            c.get("name").and_then(Json::as_str),
            Some("engine/queue_depth")
        );
        assert_eq!(c.get("pid").and_then(crate::num_u64), Some(TELEMETRY_PID));
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("events"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn merge_prepends_span_events_and_window_clips() {
        let spans = Json::parse(
            r#"{"traceEvents": [
                 {"name": "freeze", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0}
               ]}"#,
        )
        .unwrap();
        let win = Window {
            from_us: Some(1000),
            to_us: None,
        };
        let out = counter_trace(&artifact(), Some(&spans), win).unwrap();
        let events = out.get("traceEvents").and_then(Json::as_arr).unwrap();
        // span + metadata + 2 clipped points.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("freeze"));
    }

    #[test]
    fn window_start_carries_the_value_in_force() {
        // Opening at 1500 µs, between the points at 1000 and 2000: the
        // counter track starts at 1500 with the value set at 1000.
        let win = Window {
            from_us: Some(1500),
            to_us: None,
        };
        let out = counter_trace(&artifact(), None, win).unwrap();
        let events = out.get("traceEvents").and_then(Json::as_arr).unwrap();
        let counters: Vec<(u64, f64)> = events[1..]
            .iter()
            .map(|e| {
                let ts = e.get("ts").and_then(crate::num_u64).unwrap();
                let v = e.get("args").and_then(|a| a.get("events"));
                (ts, v.and_then(Json::as_f64).unwrap())
            })
            .collect();
        assert_eq!(counters, vec![(1500, 2.0), (2000, 3.0)]);
    }

    #[test]
    fn missing_series_section_is_an_error() {
        let doc = Json::parse(r#"{"experiment": "x"}"#).unwrap();
        assert!(counter_trace(&doc, None, Window::default()).is_err());
    }
}
