//! The three read-side queries: `top`, `aggregate`, and `filter`.
//!
//! Each takes a parsed artifact (or Chrome trace) document and returns
//! plain data — the CLI layer renders it. Ordering is always made total
//! (count/time desc, then name) so output is byte-stable run to run.

use std::collections::{BTreeMap, BTreeSet};

use vsim::{Json, ToJson};

use crate::{num_u64, Window};

/// One `top` row: a profiler slot or a subsystem rollup.
pub struct TopRow {
    /// Event kind, or subsystem name when rolled up with `--by subsystem`.
    pub name: String,
    /// Owning subsystem (equals `name` under subsystem rollup).
    pub subsystem: String,
    /// Dispatches attributed to this row.
    pub dispatches: u64,
    /// Wall nanoseconds attributed (0 under the deterministic null clock).
    pub wall_ns: u64,
    /// Share of the ranking column, percent.
    pub share_pct: f64,
}

/// Ranks the artifact's `profile` section: hottest event kinds (default)
/// or subsystems (`by_subsystem`). Ranks by wall time when any was
/// recorded — i.e. a real [`HostClock`](vsim::HostClock) was injected —
/// and by dispatch count under the null clock, so the same command is
/// useful on both deterministic and profiled artifacts.
///
/// # Errors
///
/// Fails when the artifact has no `profile` section.
pub fn top(artifact: &Json, by_subsystem: bool, limit: usize) -> Result<Vec<TopRow>, String> {
    let slots = artifact
        .get("profile")
        .and_then(|p| p.get("slots"))
        .and_then(Json::as_arr)
        .ok_or("artifact has no profile.slots section")?;
    let mut rows: Vec<TopRow> = Vec::new();
    for s in slots {
        let subsystem = s
            .get("subsystem")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let kind = s.get("kind").and_then(Json::as_str).unwrap_or("?");
        let name = if by_subsystem {
            subsystem.clone()
        } else {
            kind.to_string()
        };
        let dispatches = s.get("dispatches").and_then(num_u64).unwrap_or(0);
        let wall_ns = s.get("wall_ns").and_then(num_u64).unwrap_or(0);
        match rows.iter_mut().find(|r| r.name == name) {
            Some(r) => {
                r.dispatches += dispatches;
                r.wall_ns += wall_ns;
            }
            None => rows.push(TopRow {
                name,
                subsystem,
                dispatches,
                wall_ns,
                share_pct: 0.0,
            }),
        }
    }
    let total_wall: u64 = rows.iter().map(|r| r.wall_ns).sum();
    let total_disp: u64 = rows.iter().map(|r| r.dispatches).sum();
    let by_wall = total_wall > 0;
    rows.sort_by(|a, b| {
        let key = |r: &TopRow| if by_wall { r.wall_ns } else { r.dispatches };
        key(b).cmp(&key(a)).then_with(|| a.name.cmp(&b.name))
    });
    rows.truncate(limit);
    let denom = if by_wall { total_wall } else { total_disp }.max(1) as f64;
    for r in &mut rows {
        let num = if by_wall { r.wall_ns } else { r.dispatches } as f64;
        r.share_pct = num / denom * 100.0;
    }
    Ok(rows)
}

/// One `aggregate` row: statistics over one series within one window.
pub struct AggRow {
    /// `subsystem/name` of the series.
    pub series: String,
    /// Window start, simulated microseconds.
    pub start_us: u64,
    /// Points (value changes) that fell in the window.
    pub count: usize,
    /// Net change per simulated second between the window's first and
    /// last points (0 for a lone point).
    pub rate_per_sec: f64,
    /// Median value, weighted by how long each value held (nearest-rank).
    pub p50: f64,
    /// 95th percentile value, time-weighted.
    pub p95: f64,
    /// 99th percentile value, time-weighted.
    pub p99: f64,
}

/// Windowed statistics over the artifact's `series` section. With
/// `window_us = None` each series is one window; otherwise points are
/// bucketed into `[k*window_us, (k+1)*window_us)` buckets, and a row is
/// emitted for each bucket holding at least one point. `name` selects a
/// single series (matching `name` or `subsystem/name`); `win` clips the
/// points considered.
///
/// A series is a step function of sim time: each point's value holds
/// until the next point. The percentiles therefore weight each value by
/// how long it held inside the bucket, including the value carried in
/// from before the bucket's first point. The record ends at the latest
/// point of any series (or at `win`'s end, if earlier), so a value that
/// only arrives as the record ends carries no weight; a bucket with no
/// duration at all falls back to one vote per point.
///
/// # Errors
///
/// Fails when the artifact has no `series` section or `name` matches
/// nothing.
pub fn aggregate(
    artifact: &Json,
    name: Option<&str>,
    window_us: Option<u64>,
    win: Window,
) -> Result<Vec<AggRow>, String> {
    let list = artifact
        .get("series")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_arr)
        .ok_or("artifact has no series section")?;
    let record_end = list
        .iter()
        .filter_map(|s| clipped_points(s, Window::default()).last().map(|p| p.0))
        .max()
        .unwrap_or(0);
    let end = win.to_us.map_or(record_end, |to| to.min(record_end));
    let mut rows = Vec::new();
    let mut matched = false;
    for s in list {
        let label = series_label(s);
        if let Some(want) = name {
            let short = s.get("name").and_then(Json::as_str).unwrap_or("");
            if want != label && want != short {
                continue;
            }
        }
        matched = true;
        let points = clipped_points(s, win);
        // Bucket boundaries are absolute multiples of the window width,
        // not offsets from the first point, so rows line up across
        // series.
        let bucket_of = |t: u64| window_us.map_or(0, |w| t / w.max(1));
        let mut i = 0;
        while i < points.len() {
            let b = bucket_of(points[i].0);
            let mut j = i;
            while j < points.len() && bucket_of(points[j].0) == b {
                j += 1;
            }
            let (lo, hi) = match window_us {
                Some(w) => (b * w, ((b + 1) * w).min(end)),
                None => (points[i].0, end),
            };
            // (value, µs held inside [lo, hi)), the carried-in value first.
            let mut held: Vec<(f64, u64)> = (i.saturating_sub(1)..j)
                .map(|k| {
                    let next = points.get(k + 1).map_or(hi, |p| p.0.min(hi));
                    (points[k].1, next.saturating_sub(points[k].0.max(lo)))
                })
                .collect();
            if held.iter().all(|&(_, us)| us == 0) {
                held = points[i..j].iter().map(|&(_, v)| (v, 1)).collect();
            }
            rows.push(agg_row(&label, lo, &points[i..j], &mut held));
            i = j;
        }
    }
    if !matched {
        return Err(match name {
            Some(n) => format!("no series named `{n}`"),
            None => "series section is empty".to_string(),
        });
    }
    Ok(rows)
}

fn agg_row(label: &str, start_us: u64, pts: &[(u64, f64)], held: &mut [(f64, u64)]) -> AggRow {
    let (first, last) = (pts[0], pts[pts.len() - 1]);
    let span_us = last.0.saturating_sub(first.0);
    let rate = if span_us == 0 {
        0.0
    } else {
        (last.1 - first.1) / (span_us as f64 / 1e6)
    };
    held.sort_by(|a, b| a.0.total_cmp(&b.0));
    AggRow {
        series: label.to_string(),
        start_us,
        count: pts.len(),
        rate_per_sec: rate,
        p50: weighted_percentile(held, 50.0),
        p95: weighted_percentile(held, 95.0),
        p99: weighted_percentile(held, 99.0),
    }
}

/// Nearest-rank percentile of `(value, weight)` pairs sorted by value:
/// the smallest value whose cumulative weight reaches `p`% of the total.
fn weighted_percentile(sorted: &[(f64, u64)], p: f64) -> f64 {
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let mut cum = 0u64;
    for &(v, w) in sorted {
        cum += w;
        if cum as f64 * 100.0 >= p * total as f64 {
            return v;
        }
    }
    sorted.last().map_or(0.0, |&(v, _)| v)
}

/// `subsystem/name` for one series object.
pub(crate) fn series_label(s: &Json) -> String {
    format!(
        "{}/{}",
        s.get("subsystem").and_then(Json::as_str).unwrap_or("?"),
        s.get("name").and_then(Json::as_str).unwrap_or("?")
    )
}

/// The `[t_us, value]` points of one series, clipped to `win`. A series
/// is a step function, so when the window opens between two points the
/// value in force is carried to the window's start as a point there.
pub(crate) fn clipped_points(s: &Json, win: Window) -> Vec<(u64, f64)> {
    let pts = s.get("points").and_then(Json::as_arr).unwrap_or(&[]);
    let mut carried = None;
    let mut out = Vec::new();
    for p in pts {
        let Some((t, v)) = p.as_arr().and_then(|pair| {
            let t = num_u64(pair.first()?)?;
            Some((t, pair.get(1)?.as_f64()?))
        }) else {
            continue;
        };
        if win.from_us.is_some_and(|from| t < from) {
            carried = Some(v);
        } else if win.contains(t) {
            out.push((t, v));
        }
    }
    if let (Some(from), Some(v)) = (win.from_us, carried) {
        if win.contains(from) && out.first().is_none_or(|p| p.0 != from) {
            out.insert(0, (from, v));
        }
    }
    out
}

/// Criteria for [`filter`]; unset fields match everything.
#[derive(Default)]
pub struct FilterSpec {
    /// Keep only this subsystem (series + profile slots).
    pub subsystem: Option<String>,
    /// Keep only trace events of this pid (station / physical host).
    pub host: Option<u64>,
    /// Keep only spans (trace events / span rows) with this name.
    pub span: Option<String>,
    /// Clip to this sim-time window.
    pub window: Window,
}

/// Cuts a document down to what matches `spec`, preserving its shape.
///
/// * Chrome trace documents (`traceEvents`): "X"/"C" events are kept
///   when pid, name, and time window all match; "M" metadata events for
///   surviving pids are kept so Perfetto still labels the lanes.
/// * Bench artifacts: `series` entries are kept per subsystem with
///   points clipped to the window, `profile.slots` per subsystem, and
///   `spans` rows per span name; every other key passes through.
pub fn filter(doc: &Json, spec: &FilterSpec) -> Json {
    if doc.get("traceEvents").is_some() {
        return filter_trace(doc, spec);
    }
    let Json::Obj(pairs) = doc else {
        return doc.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = match k.as_str() {
                    "series" => filter_series(v, spec),
                    "profile" => filter_profile(v, spec),
                    "spans" => filter_spans(v, spec),
                    _ => v.clone(),
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn filter_trace(doc: &Json, spec: &FilterSpec) -> Json {
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    let win = spec.window;
    let has_ph = |e: &Json, ph: &str| e.get("ph").and_then(Json::as_str) == Some(ph);
    let selected = |e: &Json| -> bool {
        let name = e.get("name").and_then(Json::as_str);
        spec.host
            .is_none_or(|h| e.get("pid").and_then(num_u64) == Some(h))
            // Metadata has no extent; it survives on pid alone.
            && (has_ph(e, "M") || spec.span.as_deref().is_none_or(|s| name == Some(s)))
    };
    let overlaps = |e: &Json| -> bool {
        if win.is_open() || has_ph(e, "M") {
            return true;
        }
        let Some(ts) = e.get("ts").and_then(num_u64) else {
            return false;
        };
        let end = ts + e.get("dur").and_then(num_u64).unwrap_or(0);
        // Keep events that overlap the window at all.
        win.from_us.is_none_or(|f| end >= f) && win.to_us.is_none_or(|to| ts < to)
    };
    // A counter is a step function: as in `clipped_points`, the last
    // value of each (pid, name) track before the window opens is carried
    // to the window's start, unless the track has a point there.
    let mut carried: BTreeMap<(u64, &str), usize> = BTreeMap::new();
    if let Some(from) = win.from_us.filter(|&f| win.contains(f)) {
        let mut at_from = BTreeSet::new();
        for (i, e) in events.iter().enumerate() {
            if !has_ph(e, "C") || !selected(e) {
                continue;
            }
            let (Some(pid), Some(name), Some(ts)) = (
                e.get("pid").and_then(num_u64),
                e.get("name").and_then(Json::as_str),
                e.get("ts").and_then(num_u64),
            ) else {
                continue;
            };
            if ts < from {
                carried.insert((pid, name), i);
            } else if ts == from {
                at_from.insert((pid, name));
            }
        }
        carried.retain(|track, _| !at_from.contains(track));
    }
    let carried: BTreeSet<usize> = carried.into_values().collect();
    let mut kept: Vec<Json> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            if carried.contains(&i) {
                Some(with_ts(e, win.from_us.unwrap_or(0)))
            } else {
                (selected(e) && overlaps(e)).then(|| e.clone())
            }
        })
        .collect();
    let Json::Obj(pairs) = doc else {
        return doc.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = if k == "traceEvents" {
                    Json::Arr(std::mem::take(&mut kept))
                } else {
                    v.clone()
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

/// `e` with its `ts` field set to `ts`.
fn with_ts(e: &Json, ts: u64) -> Json {
    let Json::Obj(pairs) = e else {
        return e.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = if k == "ts" { ts.to_json() } else { v.clone() };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn subsystem_matches(obj: &Json, spec: &FilterSpec) -> bool {
    spec.subsystem
        .as_deref()
        .is_none_or(|want| obj.get("subsystem").and_then(Json::as_str) == Some(want))
}

fn filter_series(section: &Json, spec: &FilterSpec) -> Json {
    let Json::Obj(pairs) = section else {
        return section.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = if k == "series" {
                    Json::arr(
                        v.as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .filter(|s| subsystem_matches(s, spec))
                            .map(|s| clip_series(s, spec.window)),
                    )
                } else {
                    v.clone()
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn clip_series(s: &Json, win: Window) -> Json {
    if win.is_open() {
        return s.clone();
    }
    let Json::Obj(pairs) = s else {
        return s.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = if k == "points" {
                    Json::arr(
                        clipped_points(s, win)
                            .into_iter()
                            .map(|(t, val)| Json::arr([t.to_json(), val.to_json()])),
                    )
                } else {
                    v.clone()
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn filter_profile(section: &Json, spec: &FilterSpec) -> Json {
    let Json::Obj(pairs) = section else {
        return section.clone();
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                let v = if k == "slots" {
                    Json::arr(
                        v.as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .filter(|s| subsystem_matches(s, spec))
                            .cloned(),
                    )
                } else {
                    v.clone()
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

fn filter_spans(section: &Json, spec: &FilterSpec) -> Json {
    let Some(rows) = section.as_arr() else {
        return section.clone();
    };
    Json::arr(
        rows.iter()
            .filter(|r| {
                spec.span
                    .as_deref()
                    .is_none_or(|want| r.get("span").and_then(Json::as_str) == Some(want))
            })
            .cloned(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> Json {
        Json::parse(
            r#"{
              "experiment": "t",
              "series": {
                "capacity": 8, "sweeps": 4,
                "series": [
                  {"subsystem": "engine", "name": "queue_depth", "unit": "events",
                   "stride": 1, "seen": 4,
                   "points": [[0, 0.0], [1000, 10.0], [2000, 20.0], [3000, 90.0]]},
                  {"subsystem": "cluster", "name": "ready_programs", "unit": "programs",
                   "stride": 1, "seen": 2, "points": [[0, 1.0], [1000, 2.0]]}
                ]
              },
              "profile": {
                "clock": "null",
                "slots": [
                  {"subsystem": "engine", "kind": "Tick", "dispatches": 30, "wall_ns": 0},
                  {"subsystem": "net", "kind": "Frame", "dispatches": 70, "wall_ns": 0}
                ]
              },
              "spans": [
                {"span": "migrate", "count": 2, "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 2.0},
                {"span": "freeze", "count": 5, "p50_ms": 0.5, "p95_ms": 0.9, "p99_ms": 0.9}
              ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn top_ranks_by_dispatches_under_null_clock() {
        let rows = top(&artifact(), false, 10).unwrap();
        assert_eq!(rows[0].name, "Frame");
        assert_eq!(rows[0].dispatches, 70);
        assert!((rows[0].share_pct - 70.0).abs() < 1e-9);
        assert_eq!(rows[1].name, "Tick");
    }

    #[test]
    fn top_ranks_by_wall_when_a_real_clock_ran() {
        let mut a = artifact();
        // Give Tick the larger wall share despite fewer dispatches.
        let slots = a
            .get("profile")
            .and_then(|p| p.get("slots"))
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        let patched: Vec<Json> = slots
            .into_iter()
            .map(|s| {
                let kind = s.get("kind").and_then(Json::as_str).unwrap().to_string();
                let wall = if kind == "Tick" { 900u64 } else { 100 };
                let Json::Obj(pairs) = s else { unreachable!() };
                Json::Obj(
                    pairs
                        .into_iter()
                        .map(|(k, v)| {
                            if k == "wall_ns" {
                                (k, wall.to_json())
                            } else {
                                (k, v)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let Json::Obj(top_pairs) = &mut a else {
            unreachable!()
        };
        for (k, v) in top_pairs.iter_mut() {
            if k == "profile" {
                let Json::Obj(pp) = v else { unreachable!() };
                for (pk, pv) in pp.iter_mut() {
                    if pk == "slots" {
                        *pv = Json::Arr(patched.clone());
                    }
                }
            }
        }
        let rows = top(&a, false, 10).unwrap();
        assert_eq!(rows[0].name, "Tick");
        assert!((rows[0].share_pct - 90.0).abs() < 1e-9);
    }

    #[test]
    fn top_rolls_up_by_subsystem_and_truncates() {
        let rows = top(&artifact(), true, 1).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "net");
    }

    #[test]
    fn top_without_profile_is_an_error() {
        let doc = Json::parse(r#"{"experiment": "x"}"#).unwrap();
        assert!(top(&doc, false, 5).is_err());
    }

    #[test]
    fn aggregate_whole_series_computes_rate_and_percentiles() {
        let rows = aggregate(
            &artifact(),
            Some("engine/queue_depth"),
            None,
            Window::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.count, 4);
        // 90 units over 3000 µs = 30000 per second.
        assert!((r.rate_per_sec - 30_000.0).abs() < 1e-6);
        assert!((r.p50 - 10.0).abs() < 1e-9);
        // 0, 10 and 20 each hold 1000 µs; 90 arrives as the record ends
        // and holds for no time.
        assert!((r.p99 - 20.0).abs() < 1e-9);
    }

    /// A change-point series: 0 for 100 µs, a 10 µs blip to 10, 0 again
    /// for 890 µs, then 5 for the last 1000 µs of the record.
    fn change_points() -> Json {
        Json::parse(
            r#"{"series": {"capacity": 8, "sweeps": 9, "series": [
                 {"subsystem": "cluster", "name": "ready_programs", "unit": "programs",
                  "stride": 1, "seen": 4,
                  "points": [[0, 0.0], [100, 10.0], [110, 0.0], [1000, 5.0]]},
                 {"subsystem": "engine", "name": "queue_depth", "unit": "events",
                  "stride": 1, "seen": 2, "points": [[0, 3.0], [2000, 0.0]]}
               ]}}"#,
        )
        .unwrap()
    }

    #[test]
    fn aggregate_weights_percentiles_by_time_held() {
        let rows = aggregate(
            &change_points(),
            Some("ready_programs"),
            None,
            Window::default(),
        )
        .unwrap();
        let r = &rows[0];
        assert_eq!(r.count, 4);
        // Held: 0 for 990 µs, 5 for 1000 µs, 10 for 10 µs. One vote per
        // point would give p50 = 0 and p99 = 10.
        assert_eq!((r.p50, r.p95, r.p99), (5.0, 5.0, 5.0));
    }

    #[test]
    fn aggregate_carries_the_value_in_force_into_a_window() {
        // The window opens between (110, 0) and (1000, 5): 0 holds from
        // 500 to 1000, 5 from 1000 to 2000.
        let win = Window {
            from_us: Some(500),
            to_us: None,
        };
        let rows = aggregate(&change_points(), Some("ready_programs"), None, win).unwrap();
        assert_eq!(rows[0].start_us, 500);
        assert_eq!(rows[0].count, 2);
        assert_eq!((rows[0].p50, rows[0].p99), (5.0, 5.0));
        // [0, 1000) is 0 but for the 1% blip to 10 (one vote per point
        // would make p99 = 10). Buckets carry the value in force from the
        // previous bucket: [1000, 2000) is all 5.
        let rows = aggregate(
            &change_points(),
            Some("ready_programs"),
            Some(1000),
            Window::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].p50, rows[0].p99), (0.0, 0.0));
        assert_eq!((rows[1].start_us, rows[1].p50), (1000, 5.0));
        // A window opening after the last point still sees its value.
        let late = Window {
            from_us: Some(1500),
            to_us: Some(1800),
        };
        let rows = aggregate(&change_points(), Some("ready_programs"), None, late).unwrap();
        assert_eq!((rows[0].count, rows[0].p50), (1, 5.0));
    }

    #[test]
    fn aggregate_short_name_matches_too() {
        let rows = aggregate(&artifact(), Some("ready_programs"), None, Window::default());
        assert_eq!(rows.unwrap().len(), 1);
    }

    #[test]
    fn aggregate_windows_bucket_on_absolute_boundaries() {
        let rows = aggregate(
            &artifact(),
            Some("engine/queue_depth"),
            Some(2000),
            Window::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].start_us, 0);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[1].start_us, 2000);
        assert_eq!(rows[1].count, 2);
    }

    #[test]
    fn aggregate_unknown_series_is_an_error() {
        assert!(aggregate(&artifact(), Some("nope"), None, Window::default()).is_err());
    }

    #[test]
    fn filter_clips_series_and_slots_and_spans() {
        let spec = FilterSpec {
            subsystem: Some("engine".into()),
            span: Some("freeze".into()),
            window: Window {
                from_us: Some(1000),
                to_us: Some(3000),
            },
            ..FilterSpec::default()
        };
        let out = filter(&artifact(), &spec);
        let series = out
            .get("series")
            .and_then(|s| s.get("series"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(series.len(), 1);
        let pts = series[0].get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(pts.len(), 2);
        let slots = out
            .get("profile")
            .and_then(|p| p.get("slots"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(slots.len(), 1);
        let spans = out.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("span").and_then(Json::as_str), Some("freeze"));
        // Untouched keys pass through.
        assert_eq!(out.get("experiment").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn filter_trace_keeps_overlapping_events_and_metadata() {
        let doc = Json::parse(
            r#"{"traceEvents": [
                 {"name": "freeze", "ph": "X", "ts": 100, "dur": 50, "pid": 1, "tid": 0},
                 {"name": "copy", "ph": "X", "ts": 500, "dur": 50, "pid": 2, "tid": 0},
                 {"name": "process_name", "ph": "M", "pid": 1,
                  "args": {"name": "station 1"}},
                 {"name": "process_name", "ph": "M", "pid": 2,
                  "args": {"name": "station 2"}}
               ], "displayTimeUnit": "ms"}"#,
        )
        .unwrap();
        let spec = FilterSpec {
            host: Some(1),
            ..FilterSpec::default()
        };
        let out = filter(&doc, &spec);
        let events = out.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2); // freeze + station 1 metadata
        let spec = FilterSpec {
            window: Window {
                from_us: Some(120),
                to_us: Some(200),
            },
            ..FilterSpec::default()
        };
        let out = filter(&doc, &spec);
        let events = out.get("traceEvents").and_then(Json::as_arr).unwrap();
        // freeze overlaps [120, 200); copy does not; metadata survives.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("freeze")));
        assert!(!events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("copy")));
    }

    #[test]
    fn filter_carries_the_counter_value_in_force_at_the_window_start() {
        let artifact = Json::parse(
            r#"{"series": {"series": [
                 {"subsystem": "engine", "name": "queue_depth", "unit": "events",
                  "points": [[0, 5.0], [10000, 7.0]]}
               ]}}"#,
        )
        .unwrap();
        let win = Window {
            from_us: Some(5000),
            to_us: None,
        };
        let full = crate::export::counter_trace(&artifact, None, Window::default()).unwrap();
        let spec = FilterSpec {
            window: win,
            ..FilterSpec::default()
        };
        let filtered = filter(&full, &spec);
        let counters: Vec<(u64, f64)> = filtered
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .map(|e| {
                let ts = e.get("ts").and_then(num_u64).unwrap();
                let v = e.get("args").and_then(|a| a.get("events"));
                (ts, v.and_then(Json::as_f64).unwrap())
            })
            .collect();
        assert_eq!(counters, vec![(5000, 5.0), (10000, 7.0)]);
        // Filtering the full export agrees with exporting the window.
        let windowed = crate::export::counter_trace(&artifact, None, win).unwrap();
        assert_eq!(filtered.pretty(), windowed.pretty());
    }
}
