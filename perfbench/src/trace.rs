//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer's
//! origin), an optional parent span and the id of the call it belongs
//! to. A span may also carry an *attributed* split: named durations
//! measured inside it by the library's own phase timers, which have no
//! timestamps of their own. A span's self time is its duration minus
//! the part of it covered by child spans, minus its attributed split.
//! Spans are written out as Chrome trace-event JSON once the run ends.

use std::time::Instant;

use ipt_core::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary crossed, e.g. `"ipt_parallel::transpose_parallel"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The call this span belongs to.
    pub call: u64,
    /// Durations measured inside the span by the library itself.
    pub attributed: Vec<(&'static str, u64)>,
}

impl Span {
    /// End minus start (zero for an unfinished span).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so
/// the untraced run pays one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start or stop recording; spans already open must be closed while
    /// still enabled.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span; returns its index (or 0 when disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, call: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            call,
            attributed: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.now();
        }
    }

    /// Attach a library-measured split to span `id`.
    pub fn attribute(&mut self, id: usize, split: Vec<(&'static str, u64)>) {
        if self.enabled {
            self.spans[id].attributed = split;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration, minus the union of its children's
/// intervals clipped to it, minus its attributed split (saturating).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let attributed: u64 = s.attributed.iter().map(|&(_, ns)| ns).sum();
            s.duration()
                .saturating_sub(covered)
                .saturating_sub(attributed)
        })
        .collect()
}

/// Sum of self time over spans named `name`, with their summed duration.
pub fn self_and_total(spans: &[Span], selfs: &[u64], name: &str) -> (u64, u64) {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(a, b), (s, &own)| (a + own, b + s.duration()))
}

/// The spans as a Chrome trace-event document (complete `"X"` events,
/// microsecond timestamps), with `meta` under `"otherData"`.
pub fn chrome_trace(spans: &[Span], meta: Vec<(&str, Json)>) -> Json {
    let selfs = self_times(spans);
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let events = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(i, (s, &own))| {
            let mut args = vec![
                ("span", Json::Num(i as f64)),
                ("call", Json::Num(s.call as f64)),
                ("self_us", us(own)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Num(p as f64)));
            }
            for &(name, ns) in &s.attributed {
                args.push((name, us(ns)));
            }
            Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", us(s.start)),
                ("dur", us(s.duration())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
        ("otherData", Json::obj(meta)),
    ])
}
