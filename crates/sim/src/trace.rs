//! Textual schedule traces: per-resource Gantt rendering of a
//! [`Schedule`] plus a Chrome trace-event
//! export ([`chrome_trace`]), for inspecting what the simulated machine
//! actually did.

use crate::engine::{Engine, Schedule, TaskTag};

/// One busy interval of a resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// The task occupying the resource.
    pub task: usize,
    /// The task's tag.
    pub tag: TaskTag,
}

/// Per-resource busy intervals, sorted by start time.
pub fn resource_timelines(engine: &Engine, schedule: &Schedule) -> Vec<Vec<Interval>> {
    let n_res = schedule.busy.len();
    let mut lines: Vec<Vec<Interval>> = vec![Vec::new(); n_res];
    for task in 0..engine.len() {
        let (resources, tag, duration) = engine.task_info(task);
        if duration == 0.0 {
            continue;
        }
        for &r in resources {
            lines[r].push(Interval {
                start: schedule.start[task],
                end: schedule.finish[task],
                task,
                tag,
            });
        }
    }
    for line in &mut lines {
        line.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("NaN time"));
    }
    lines
}

/// Renders an ASCII Gantt chart of the schedule, `width` characters
/// wide. `labels[r]` names resource `r`; resources with no activity are
/// skipped. Compute time prints as `#`, communication as `~`, idle as
/// `.`.
pub fn ascii_gantt(
    engine: &Engine,
    schedule: &Schedule,
    labels: &[String],
    width: usize,
) -> String {
    assert!(width > 0, "ascii_gantt: width must be positive");
    let lines = resource_timelines(engine, schedule);
    let span = schedule.makespan.max(f64::MIN_POSITIVE);
    let label_w = labels.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (r, intervals) in lines.iter().enumerate() {
        if intervals.is_empty() {
            continue;
        }
        let mut row = vec!['.'; width];
        for iv in intervals {
            let a = ((iv.start / span) * width as f64).floor() as usize;
            let b = (((iv.end / span) * width as f64).ceil() as usize).min(width);
            let ch = match iv.tag {
                TaskTag::Compute(_) => '#',
                TaskTag::Comm => '~',
                TaskTag::Join => '|',
            };
            for cell in row.iter_mut().take(b).skip(a.min(width.saturating_sub(1))) {
                *cell = ch;
            }
        }
        let label = labels.get(r).cloned().unwrap_or_else(|| format!("r{}", r));
        out.push_str(&format!("{:>w$} |", label, w = label_w));
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>w$} +{}> t = {:.1}\n",
        "",
        "-".repeat(width),
        schedule.makespan,
        w = label_w
    ));
    out
}

/// Exports the schedule as a Chrome trace-event JSON document loadable
/// in Perfetto / `chrome://tracing`: one timeline track per resource
/// (named by `labels`, `r{n}` beyond them) and one complete event per
/// busy interval, tagged `compute` / `comm` / `join` with the task id
/// in `args`. Uses the same JSON writer as the live-executor traces
/// (`hetgrid_obs::ChromeTrace`), so the two renderings are directly
/// comparable.
///
/// Simulated time is unitless; the exporter maps one simulated unit to
/// one second (`1e6` trace microseconds) so typical makespans render at
/// a comfortable zoom.
pub fn chrome_trace(engine: &Engine, schedule: &Schedule, labels: &[String]) -> String {
    const US_PER_UNIT: f64 = 1e6;
    let lines = resource_timelines(engine, schedule);
    let mut ct = hetgrid_obs::ChromeTrace::new();
    for r in 0..lines.len() {
        let label = labels.get(r).cloned().unwrap_or_else(|| format!("r{}", r));
        ct.thread_name(r as u64, &label);
    }
    for (r, intervals) in lines.iter().enumerate() {
        for iv in intervals {
            let name = match iv.tag {
                TaskTag::Compute(_) => "compute",
                TaskTag::Comm => "comm",
                TaskTag::Join => "join",
            };
            ct.complete(
                r as u64,
                name,
                iv.start * US_PER_UNIT,
                (iv.end - iv.start) * US_PER_UNIT,
                &[("task", hetgrid_obs::Arg::U64(iv.task as u64))],
            );
        }
    }
    ct.finish()
}

/// Convenience: Gantt chart for a grid [`Machine`](crate::machine::Machine)
/// run — labels cores `P(i,j)` and NICs `N(i,j)`.
pub fn grid_labels(p: usize, q: usize, shared_bus: bool) -> Vec<String> {
    let mut labels = Vec::new();
    for i in 0..p {
        for j in 0..q {
            labels.push(format!("P({},{})", i + 1, j + 1));
        }
    }
    for i in 0..p {
        for j in 0..q {
            labels.push(format!("N({},{})", i + 1, j + 1));
        }
    }
    if shared_bus {
        labels.push("BUS".to_string());
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn timelines_capture_tasks() {
        let mut e = Engine::new();
        let r = e.add_resource();
        let a = e.add_task(vec![], vec![r], 1.0, TaskTag::Compute(r));
        let b = e.add_task(vec![a], vec![r], 2.0, TaskTag::Comm);
        let s = e.run();
        let lines = resource_timelines(&e, &s);
        assert_eq!(lines[0].len(), 2);
        assert_eq!(lines[0][0].task, a);
        assert_eq!(lines[0][1].task, b);
        assert_eq!(lines[0][1].start, 1.0);
        assert_eq!(lines[0][1].end, 3.0);
    }

    #[test]
    fn gantt_renders_marks() {
        let mut e = Engine::new();
        let r0 = e.add_resource();
        let r1 = e.add_resource();
        e.add_task(vec![], vec![r0], 1.0, TaskTag::Compute(r0));
        e.add_task(vec![], vec![r1], 1.0, TaskTag::Comm);
        let s = e.run();
        let g = ascii_gantt(&e, &s, &["core".into(), "nic".into()], 10);
        assert!(g.contains('#'));
        assert!(g.contains('~'));
        assert!(g.contains("core"));
        assert!(g.contains("nic"));
    }

    #[test]
    fn idle_resources_skipped() {
        let mut e = Engine::new();
        let r0 = e.add_resource();
        let _unused = e.add_resource();
        e.add_task(vec![], vec![r0], 1.0, TaskTag::Compute(r0));
        let s = e.run();
        let g = ascii_gantt(&e, &s, &["busy".into(), "idle".into()], 10);
        assert!(g.contains("busy"));
        assert!(!g.contains("idle"));
    }

    #[test]
    fn chrome_trace_round_trips_a_small_schedule() {
        let mut e = Engine::new();
        let r0 = e.add_resource();
        let r1 = e.add_resource();
        let a = e.add_task(vec![], vec![r0], 1.5, TaskTag::Compute(r0));
        let b = e.add_task(vec![a], vec![r1], 0.5, TaskTag::Comm);
        let s = e.run();
        let out = chrome_trace(&e, &s, &["P(1,1)".into(), "N(1,1)".into()]);
        let doc = hetgrid_obs::json::parse(&out).expect("sim chrome trace must parse");
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // Two thread_name records + two complete events.
        assert_eq!(evs.len(), 4);
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["P(1,1)", "N(1,1)"]);
        let comm = evs
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("comm"))
            .expect("comm interval exported");
        // Task b starts at t=1.5 for 0.5 units -> 1.5e6 us + 0.5e6 us.
        assert_eq!(comm.get("ts").and_then(|v| v.as_f64()), Some(1.5e6));
        assert_eq!(comm.get("dur").and_then(|v| v.as_f64()), Some(0.5e6));
        assert_eq!(
            comm.get("args")
                .and_then(|a| a.get("task"))
                .and_then(|v| v.as_f64()),
            Some(b as f64)
        );
    }

    #[test]
    fn grid_labels_layout() {
        let labels = grid_labels(2, 2, true);
        assert_eq!(labels.len(), 9);
        assert_eq!(labels[0], "P(1,1)");
        assert_eq!(labels[4], "N(1,1)");
        assert_eq!(labels[8], "BUS");
    }
}
