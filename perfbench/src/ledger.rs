//! The traced run's layer ledger: time spent inside each call the benchmark
//! makes into a layer's public functions, plus the counts those calls
//! return. The benchmark's calls into layers never nest, so a layer's self
//! time is the sum of its calls' durations, less any time credited away
//! (see [`Ledger::credit`]).

use crate::util::Rows;
use std::collections::BTreeMap;
use std::time::Instant;

/// The repo's layers, outside in.
pub const LAYERS: [&str; 7] = [
    "data",
    "compress",
    "engine.cache",
    "plan",
    "exec",
    "campaign.shard",
    "serve",
];

/// Per-layer self time plus named counts.
#[derive(Default)]
pub struct Ledger {
    self_s: BTreeMap<&'static str, f64>,
    counts: BTreeMap<String, f64>,
}

impl Ledger {
    /// Time one call into `layer`; returns its result and duration.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        *self.self_s.entry(layer).or_insert(0.0) += secs;
        (r, secs)
    }

    /// Add to a named count.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// A named count (0 if never added).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Move `secs` of self time out of `layer` — used when a call wraps
    /// work inside the program that the layer replay already attributed to
    /// the layers it belongs to.
    pub fn credit(&mut self, layer: &'static str, secs: f64) {
        let v = self.self_s.entry(layer).or_insert(0.0);
        *v = (*v - secs).max(0.0);
    }

    /// Total self seconds over every layer.
    pub fn total_self(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// Per-layer self time and share of the traced wall, plus the two walls.
    pub fn layer_rows(&self, rows: &mut Rows, traced_wall_s: f64, untraced_wall_s: f64) {
        for layer in LAYERS {
            let s = self.self_s.get(layer).copied().unwrap_or(0.0);
            rows.push(format!("{layer}.self_s"), s, "s");
            rows.push(format!("{layer}.share"), s / traced_wall_s, "ratio");
        }
        rows.push("trace.wall_s", traced_wall_s, "s");
        rows.push("trace.untraced_wall_s", untraced_wall_s, "s");
    }
}
