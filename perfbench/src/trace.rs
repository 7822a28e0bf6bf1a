//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans nest on one thread. Each layer aggregates, per operation, its
//! total time, its self time (the span minus the child spans inside it)
//! and its call count; counters sit beside them. A disabled tracer makes
//! every call a no-op, so the untraced path can share code with the
//! traced one.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

/// Per-operation layer times and counters, keyed by layer name.
#[derive(Clone, Debug, Default)]
pub struct OpTrace {
    pub layers: BTreeMap<&'static str, Layer>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl OpTrace {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6)
    }

    /// Mean span length per call, in nanoseconds (0 when never called).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        match self.layers.get(name) {
            Some(l) if l.calls > 0 => l.total_ns as f64 / l.calls as f64,
            _ => 0.0,
        }
    }

    pub fn calls(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.calls as f64)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time, in milliseconds.
    pub fn self_sum_ms(&self) -> f64 {
        self.layers.values().map(|l| l.self_ns as f64 / 1e6).sum()
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    stack: Vec<Open>,
    op: OpTrace,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            stack: Vec::new(),
            op: OpTrace::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let open = self.stack.pop().expect("span stack underflow");
        let dur = open.start.elapsed().as_nanos() as u64;
        self.credit(open.name, dur, dur.saturating_sub(open.child_ns), 1);
        out
    }

    /// Credits `calls` child spans of `name` totalling `ns`, measured
    /// inside the innermost open span (a scheduler wrapper aggregates its
    /// calls itself instead of opening a span per call).
    pub fn child(&mut self, name: &'static str, ns: u64, calls: u64) {
        if self.enabled {
            self.credit(name, ns, ns, calls);
        }
    }

    fn credit(&mut self, name: &'static str, total: u64, self_ns: u64, calls: u64) {
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        let l = self.op.layers.entry(name).or_default();
        l.total_ns += total;
        l.self_ns += self_ns;
        l.calls += calls;
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.op.counts.entry(name).or_default() += v;
        }
    }

    /// Sets counter `name` to `v`, keeping the largest value seen.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let c = self.op.counts.entry(name).or_insert(v);
            *c = c.max(v);
        }
    }

    /// Hands back everything recorded since the last call.
    pub fn take(&mut self) -> OpTrace {
        assert!(self.stack.is_empty(), "take() inside an open span");
        std::mem::take(&mut self.op)
    }
}
