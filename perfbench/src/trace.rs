//! Spans around the benchmark's calls into each layer, and the operation
//! ledger every run prints.
//!
//! A span records name, start, end, the span that was open when it began,
//! and the run (round) it belongs to. Spans stay in memory and are written
//! out once, when the run ends. With tracing off, [`Tracer::span`] only
//! calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    run: usize,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            values: BTreeMap::new(),
        }
    }

    /// Tag the spans that follow with this run id.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied(), run: self.run });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Record a measured value (a count, a ratio, a duration measured
    /// elsewhere) under `name`.
    pub fn value(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.values.entry(name).or_default().push(value);
        }
    }

    /// Self time of every span (its duration minus the time its child spans
    /// cover), grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            out.entry(span.name).or_default().push(span.end - span.start - children);
        }
        out
    }

    pub fn values(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.values
    }

    /// All spans as CSV: `id,name,start_s,end_s,parent,run`.
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("id,name,start_s,end_s,parent,run\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(out, "{id},{},{},{},{parent},{}", s.name, s.start, s.end, s.run);
        }
        out
    }
}

/// Operations attempted and failed, by step (and HTTP endpoint).
#[derive(Debug, Default, Clone)]
pub struct Ops {
    steps: BTreeMap<String, (u64, u64)>,
}

impl Ops {
    /// Count one attempt of `step`; `ok == false` also counts a failure.
    pub fn record(&mut self, step: &str, ok: bool) -> bool {
        let entry = self.steps.entry(step.to_string()).or_default();
        entry.0 += 1;
        entry.1 += u64::from(!ok);
        ok
    }

    /// Count a fallible step, reporting its error on stderr.
    pub fn check<T, E: std::fmt::Display>(&mut self, step: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => {
                self.record(step, true);
                Some(value)
            }
            Err(e) => {
                eprintln!("perfbench: {step} failed: {e}");
                self.record(step, false);
                None
            }
        }
    }

    pub fn totals(&self) -> (u64, u64) {
        self.steps.values().fold((0, 0), |(a, f), (sa, sf)| (a + sa, f + sf))
    }

    /// Did any step whose name starts with `prefix` fail?
    pub fn any_failed(&self, prefix: &str) -> bool {
        self.steps.iter().any(|(step, (_, failed))| step.starts_with(prefix) && *failed > 0)
    }

    /// `op <step> <attempted> <failed>` lines (the child-to-parent format
    /// and the printed table).
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (step, (attempted, failed)) in &self.steps {
            let _ = writeln!(out, "op {step} {attempted} {failed}");
        }
        out
    }

    /// Parse one `op` line back.
    pub fn parse_line(&mut self, line: &str) -> bool {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["op", step, attempted, failed] => match (attempted.parse::<u64>(), failed.parse::<u64>()) {
                (Ok(a), Ok(f)) => {
                    let entry = self.steps.entry(step.to_string()).or_default();
                    entry.0 += a;
                    entry.1 += f;
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let times = tr.self_times();
        let outer = times["outer"][0];
        let inner = times["inner"][0];
        assert!(inner >= 0.02 && outer >= 0.01 && outer < inner, "outer {outer} inner {inner}");
        assert_eq!(tr.spans_csv().lines().count(), 3);
    }

    #[test]
    fn ops_round_trip_through_lines() {
        let mut ops = Ops::default();
        ops.record("a", true);
        ops.record("a", false);
        ops.record("b", true);
        let mut back = Ops::default();
        for line in ops.lines().lines() {
            assert!(back.parse_line(line));
        }
        assert_eq!(back.totals(), (3, 1));
        assert!(back.any_failed("a") && !back.any_failed("b"));
    }
}
