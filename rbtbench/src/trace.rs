//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span holds a name, the layer (module) it times, start, end, its parent
//! span and the id of the request it belongs to. Spans are kept in memory
//! and written out once the run ends. A parent may be *logical*: a replay of
//! the work a request caused (its frame decode, its registry call) is filed
//! under that request's round-trip span even though it ran later, so a
//! layer's self time is its span's duration minus the durations of its
//! children, summed rather than intersected.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Every module the benchmark measures, in report order.
pub const LAYERS: [&str; 12] = [
    "linalg.codec",
    "linalg.pool",
    "data.normalize",
    "core.method",
    "core.pipeline",
    "core.session",
    "api",
    "cluster.kmeans",
    "server.client",
    "server.wire",
    "server.registry",
    "server.reactor",
];

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Off tracers record nothing and return id 0.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            layer,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Mean self time per span, in microseconds, for every layer that has
    /// spans.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let index: BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut child_ns = vec![0i64; self.spans.len()];
        for s in &self.spans {
            if let Some(&p) = index.get(&s.parent) {
                child_ns[p] += (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut sums: BTreeMap<&'static str, (i64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = sums.entry(s.layer).or_insert((0, 0));
            e.0 += (s.end_ns - s.start_ns) as i64 - child;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(layer, (ns, n))| (layer, ns as f64 / n as f64 / 1e3))
            .collect()
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.layer, s.start_ns, s.end_ns
            );
        }
        out
    }
}
