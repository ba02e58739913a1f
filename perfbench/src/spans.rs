//! The benchmark's own span log: spans opened around calls into each
//! layer's public functions during a replay, with self time (a span
//! minus its children) and export to the engine's Chrome trace writer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use onepass_core::trace::{chrome_trace_json, EventKind, TraceEvent, Track};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Replay this span belongs to.
    pub run: u32,
    /// Index of the enclosing span, `None` for a replay's root.
    pub parent: Option<usize>,
    /// Offset from the log's epoch.
    pub start: Duration,
    /// Offset from the log's epoch (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of every replay in one traced run.
pub struct SpanLog {
    /// Workload name; the Chrome trace process the spans appear under.
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl SpanLog {
    /// Empty log for `workload`; its epoch is now.
    pub fn new(workload: &'static str) -> Self {
        SpanLog {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Offset of `t` from the log's epoch.
    pub fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Record a replay: `f` runs inside a root span named `"replay"` with
    /// a fresh run id.
    pub fn replay<R>(&mut self, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        assert!(self.stack.is_empty(), "replays do not nest");
        self.run += 1;
        self.scope("replay", f)
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let start = self.offset(Instant::now());
        let idx = self.push(name, self.stack.last().copied(), start, start);
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = self.offset(Instant::now());
        r
    }

    /// Add an already-timed span as a child of the innermost open span
    /// (used to graft spans the engine recorded on its own clock).
    pub fn graft(&mut self, name: &'static str, start: Duration, end: Duration) {
        let parent = self.stack.last().copied();
        self.push(name, parent, start, end);
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `i`'s duration minus its direct children's.
    pub fn self_time(&self, i: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::duration)
            .sum();
        self.spans[i].duration().saturating_sub(children)
    }

    /// Per replay: the sum of every non-root span's self time (the time
    /// attributed to layers) and per-name totals.
    pub fn per_run(&self) -> Vec<RunTotals> {
        let mut runs: BTreeMap<u32, RunTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = runs.entry(s.run).or_default();
            if s.parent.is_some() {
                r.layers_s += self.self_time(i).as_secs_f64();
                *r.by_name.entry(s.name).or_default() += s.duration().as_secs_f64();
            }
        }
        runs.into_values().collect()
    }

    /// The log as Chrome trace JSON (see [`SpanLog::events`]).
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// The log as trace events: one process per workload, one lane per
    /// replay, each begin event carrying its span id, parent id (-1 for
    /// a root) and run id.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(2 * self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                self.emit_tree(i, &mut out);
            }
        }
        out
    }

    /// Depth-first: begin, children in start order, end — nondecreasing
    /// timestamps because siblings never overlap, and stack-paired by
    /// construction even where spans share an instant.
    fn emit_tree(&self, i: usize, out: &mut Vec<TraceEvent>) {
        let s = &self.spans[i];
        let event = |kind, ts, args| TraceEvent {
            kind,
            name: s.name,
            cat: "perfbench",
            track: Track::new(self.workload, u64::from(s.run)),
            ts,
            args,
        };
        out.push(event(
            EventKind::Begin,
            s.start,
            vec![
                ("span", i as f64),
                ("parent", s.parent.map_or(-1.0, |p| p as f64)),
                ("run", f64::from(s.run)),
            ],
        ));
        let mut children: Vec<usize> = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(i))
            .collect();
        children.sort_by_key(|&c| (self.spans[c].start, c));
        for c in children {
            self.emit_tree(c, out);
        }
        out.push(event(EventKind::End, s.end, Vec::new()));
    }
}

/// Process CPU seconds not attributed to any layer: untraced `cpu_s`
/// minus the layers' summed self time ([`RunTotals::layers_s`]).
pub fn unattributed_s(cpu_s: f64, layers_s: f64) -> f64 {
    cpu_s - layers_s
}

/// One replay's totals (see [`SpanLog::per_run`]).
#[derive(Debug, Default, Clone)]
pub struct RunTotals {
    /// Sum of non-root spans' self times, seconds.
    pub layers_s: f64,
    /// Total seconds per span name.
    pub by_name: BTreeMap<&'static str, f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_core::trace::complete_spans;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn synthetic() -> SpanLog {
        let mut log = SpanLog::new("test");
        log.run = 1;
        let root = log.push("replay", None, ms(0), ms(100));
        let map = log.push("map", Some(root), ms(10), ms(60));
        log.push("partition", Some(map), ms(20), ms(30));
        log.push("partition", Some(map), ms(40), ms(45));
        log.push("groupby.push", Some(root), ms(60), ms(90));
        log
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let log = synthetic();
        assert_eq!(log.self_time(0), ms(20)); // 100 - 50 - 30
        assert_eq!(log.self_time(1), ms(35)); // 50 - 10 - 5
        assert_eq!(log.self_time(2), ms(10));
        assert_eq!(log.self_time(4), ms(30));
    }

    #[test]
    fn run_totals_attribute_non_root_self_time() {
        let runs = synthetic().per_run();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert!((r.layers_s - 0.080).abs() < 1e-9); // 35 + 10 + 5 + 30
        assert!((r.by_name["partition"] - 0.015).abs() < 1e-9);
    }

    #[test]
    fn unattributed_is_cpu_minus_layer_self_time() {
        let r = &synthetic().per_run()[0];
        // 250 ms of CPU against 80 ms attributed to layers; the root's
        // own 20 ms is not a layer.
        assert!((unattributed_s(0.250, r.layers_s) - 0.170).abs() < 1e-9);
        // More attributed than spent (parallel CPU replayed serially)
        // reads negative rather than clamping to zero.
        assert!(unattributed_s(0.050, r.layers_s) < 0.0);
    }

    #[test]
    fn scopes_nest_and_export_balanced_chrome_spans() {
        let mut log = SpanLog::new("test");
        let v = log.replay(|log| log.scope("map", |log| log.scope("partition", |_| 7)));
        assert_eq!(v, 7);
        let spans = log.spans();
        assert!(spans.iter().all(|s| s.run == 1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let json = log.chrome_json();
        assert!(json.contains("\"parent\":-1"));
        assert!(json.contains("\"run\":1"));
        assert!(json.contains("\"test\""));
    }

    #[test]
    fn exported_events_pair_back_into_the_same_spans() {
        // A zero-length span ending where its parent ends must still pair
        // innermost-first.
        let mut log = synthetic();
        log.push("close", Some(0), ms(100), ms(100));
        let mut got: Vec<(&str, Duration)> = complete_spans(&log.events())
            .unwrap()
            .iter()
            .map(|s| (s.name, s.duration()))
            .collect();
        let mut want: Vec<(&str, Duration)> =
            log.spans().iter().map(|s| (s.name, s.duration())).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }
}
