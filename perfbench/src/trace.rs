//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the wall-share attribution that turns them into per-layer
//! self time.
//!
//! A span's self time is its interval minus the part its child spans
//! cover. Where self intervals of several spans overlap (parallel jobs,
//! two shards), each instant is split evenly between them, so the layer
//! shares add up to the covered part of the wall and never exceed it;
//! what no span covers is the unattributed residual.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span of `layer`; `f` gets the span's id to pass
    /// to its children. With tracing off this is a plain call.
    pub fn span<R>(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.record(layer, parent, self.now(), f64::NAN);
        let value = f(id);
        let end = self.now();
        if let Some(id) = id {
            self.spans.lock().expect("trace poisoned")[id].end = end;
        }
        value
    }

    /// Records a span whose bounds were measured elsewhere (derived from
    /// job status transitions, or modelled from a measured unit cost).
    pub fn record(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("trace poisoned");
        spans.push(Span {
            parent,
            layer,
            start,
            end,
        });
        Some(spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace poisoned").clone()
    }
}

/// Per-layer wall share of `[t0, t1]`; the shares sum to the covered part.
pub fn attribute(spans: &[Span], t0: f64, t1: f64) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    // Self intervals: each span minus the union of its children.
    let mut events: Vec<(f64, i32, &'static str)> = Vec::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        // Open (NaN-ended) and empty spans cover nothing.
        if span.end.is_nan() || span.end <= span.start {
            continue;
        }
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cursor = span.start.max(t0);
        let stop = span.end.min(t1);
        for &(ks, ke) in kids.iter() {
            if ks > cursor {
                push_interval(&mut events, cursor, ks.min(stop), span.layer);
            }
            cursor = cursor.max(ke);
            if cursor >= stop {
                break;
            }
        }
        push_interval(&mut events, cursor, stop, span.layer);
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active: BTreeMap<&'static str, i32> = BTreeMap::new();
    let mut total = 0;
    let mut shares = BTreeMap::new();
    let mut last = t0;
    for (time, delta, layer) in events {
        let dt = time - last;
        if total > 0 && dt > 0.0 {
            for (&l, &n) in &active {
                if n > 0 {
                    *shares.entry(l).or_insert(0.0) += dt * f64::from(n) / f64::from(total);
                }
            }
        }
        last = time;
        *active.entry(layer).or_insert(0) += delta;
        total += delta;
    }
    shares
}

fn push_interval(events: &mut Vec<(f64, i32, &'static str)>, a: f64, b: f64, layer: &'static str) {
    if b > a {
        events.push((a, 1, layer));
        events.push((b, -1, layer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            parent,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn self_time_excludes_children_and_overlap_is_split() {
        let spans = vec![
            span(None, "batch", 0.0, 10.0),
            span(Some(0), "solve", 1.0, 5.0),
            span(Some(0), "solve", 3.0, 7.0),
            span(None, "decode", 10.0, 11.0),
        ];
        let shares = attribute(&spans, 0.0, 12.0);
        assert!((shares.values().sum::<f64>() - 11.0).abs() < 1e-12);
        assert!((shares["batch"] - 4.0).abs() < 1e-12);
        assert!((shares["solve"] - 6.0).abs() < 1e-12);
        assert!((shares["decode"] - 1.0).abs() < 1e-12);
    }
}
