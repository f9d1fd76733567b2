//! In-memory span recording for the traced run.
//!
//! One [`Tracer`] per thread records a span around every call into a layer:
//! layer, parent span, the unit of work it belongs to (app, mutation or
//! chart index), start, end, and the allocations made while it was open.
//! A span's *self* time and allocations exclude its children. Spans stay in
//! memory until the run ends; [`Aggregate`] folds them into per-layer
//! figures and [`write_tsv`] dumps them.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type LayerId = u16;

/// The layers with a fixed name, in the order their ids are assigned.
/// Per-rule layers (`core.rule.<name>`) are appended by [`Layers::id`].
pub const FIXED_LAYERS: [&str; 22] = [
    "datasets.gen",
    "datasets.builder",
    "chart.compile",
    "chart.render",
    "chart.fsload",
    "yaml.parse",
    "model.decode",
    "cluster.new",
    "cluster.install",
    "cluster.policy_index",
    "probe.baseline",
    "probe.runtime",
    "core.rules",
    "core.intern",
    "datasets.merge",
    "core.m4star",
    "guard.tick",
    "datasets.apply_mutation.install",
    "datasets.apply_mutation.uninstall",
    "datasets.apply_mutation.label-flip",
    "datasets.apply_mutation.policy-add",
    "datasets.apply_mutation.scale",
];

pub const GEN: LayerId = 0;
pub const BUILDER: LayerId = 1;
pub const COMPILE: LayerId = 2;
pub const RENDER: LayerId = 3;
pub const FSLOAD: LayerId = 4;
pub const YAML_PARSE: LayerId = 5;
pub const MODEL_DECODE: LayerId = 6;
pub const CLUSTER_NEW: LayerId = 7;
pub const INSTALL: LayerId = 8;
pub const POLICY_INDEX: LayerId = 9;
pub const BASELINE: LayerId = 10;
pub const RUNTIME: LayerId = 11;
pub const RULES: LayerId = 12;
pub const INTERN: LayerId = 13;
pub const MERGE: LayerId = 14;
pub const M4STAR: LayerId = 15;
pub const TICK: LayerId = 16;
/// `datasets.apply_mutation.<kind>` for kinds in `ChurnMutation::kind`
/// order: install, uninstall, label-flip, policy-add, scale.
pub const APPLY_BASE: LayerId = 17;

/// The rule names every registry this benchmark builds can contain: the
/// native rules plus the rules `packs/builtin.rules` adds.
pub const RULE_NAMES: [&str; 13] = [
    "m1", "m2", "m3", "m4a", "m4b", "m4c", "m5", "m5a", "m5b", "m5c", "m5d", "m6", "m7",
];

/// Layer id ↔ name table: the fixed layers, then one per rule.
#[derive(Debug, Clone)]
pub struct Layers {
    names: Vec<String>,
}

impl Default for Layers {
    fn default() -> Self {
        let mut names: Vec<String> = FIXED_LAYERS.iter().map(|s| s.to_string()).collect();
        names.extend(RULE_NAMES.iter().map(|r| format!("core.rule.{r}")));
        Layers { names }
    }
}

impl Layers {
    /// The id of `name`, registering it when new.
    pub fn id(&mut self, name: &str) -> LayerId {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as LayerId,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as LayerId
            }
        }
    }

    pub fn name(&self, id: LayerId) -> &str {
        &self.names[id as usize]
    }

    /// The id of an already-registered layer.
    pub fn position(&self, name: &str) -> Option<LayerId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| i as LayerId)
    }
}

/// No parent: a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One recorded layer call. Times are nanoseconds since the tracer epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: LayerId,
    pub parent: u32,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_bytes: u64,
}

struct Open {
    index: u32,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// A per-thread span recorder. A disabled tracer records nothing, so the
/// untraced and traced runs of a workload share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<Open>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(16),
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span of `layer` for `unit`. The tracer's own
    /// bookkeeping allocations are excluded from every span's counts.
    pub fn span<T>(&mut self, layer: LayerId, unit: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let before_push = alloc::snapshot();
        let parent = self.stack.last().map_or(ROOT, |o| o.index);
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent,
            unit,
            start_ns: 0,
            end_ns: 0,
            self_ns: 0,
            self_allocs: 0,
            self_bytes: 0,
        });
        self.stack.push(Open {
            index,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
        let (a0, b0) = alloc::snapshot();
        if let Some(p) = self.stack.iter_mut().rev().nth(1) {
            // Span-vector growth is the tracer's, not the parent layer's.
            p.child_allocs += a0 - before_push.0;
            p.child_bytes += b0 - before_push.1;
        }
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        let (a1, b1) = alloc::snapshot();
        let open = self.stack.pop().expect("span stack holds the open span");
        let dur = end.duration_since(start).as_nanos() as u64;
        let (allocs, bytes) = (a1 - a0, b1 - b0);
        let span = &mut self.spans[index as usize];
        span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = span.start_ns + dur;
        span.self_ns = dur.saturating_sub(open.child_ns);
        span.self_allocs = allocs.saturating_sub(open.child_allocs);
        span.self_bytes = bytes.saturating_sub(open.child_bytes);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
            p.child_allocs += allocs;
            p.child_bytes += bytes;
        }
        out
    }

    /// Summed self time of every span recorded so far: the time this
    /// thread spent inside layers.
    pub fn self_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ns).sum()
    }
}

/// `(layer, ops, self allocations, self bytes)` per layer: the
/// deterministic half of an [`Aggregate`].
pub type LayerCounts = Vec<(LayerId, u64, u64, u64)>;

/// Per-layer folding of recorded spans.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub ops: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_bytes: u64,
    pub durations: Vec<u64>,
}

#[derive(Debug, Default, Clone)]
pub struct Aggregate {
    pub layers: BTreeMap<LayerId, LayerStats>,
}

impl Aggregate {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            let l = self.layers.entry(s.layer).or_default();
            l.ops += 1;
            l.self_ns += s.self_ns;
            l.self_allocs += s.self_allocs;
            l.self_bytes += s.self_bytes;
            l.durations.push(s.end_ns - s.start_ns);
        }
    }

    pub fn get(&self, layer: LayerId) -> Option<&LayerStats> {
        self.layers.get(&layer)
    }

    /// `(layer, ops, self allocations, self bytes)` for every layer seen.
    pub fn counts(&self) -> LayerCounts {
        self.layers
            .iter()
            .map(|(&id, l)| (id, l.ops, l.self_allocs, l.self_bytes))
            .collect()
    }

    /// [`counts`](Self::counts) without what `core.intern` allocates: the
    /// counters that repeat exactly. Workers intern into a shard's table in
    /// completion order, and when its arena and map grow depends on that
    /// order.
    pub fn repeatable_counts(&self) -> LayerCounts {
        let mut counts = self.counts();
        for c in &mut counts {
            if c.0 == INTERN {
                (c.2, c.3) = (0, 0);
            }
        }
        counts
    }
}

/// Writes spans as tab-separated rows, one per span, with a header.
pub fn write_tsv(
    path: &std::path::Path,
    layers: &Layers,
    threads: &[(usize, &[Span])],
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(
        out,
        "thread\tindex\tlayer\tparent\tunit\tstart_ns\tend_ns\tself_ns\tself_allocs\tself_bytes"
    )?;
    for (thread, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{thread}\t{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                layers.name(s.layer),
                s.unit,
                s.start_ns,
                s.end_ns,
                s.self_ns,
                s.self_allocs,
                s.self_bytes
            )?;
        }
    }
    out.flush()
}
