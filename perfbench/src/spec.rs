//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names; the self-tests
//! hold the two in step.

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["assess_pair", "campaign", "serve"];

/// One metric's name, unit and direction (`"higher"` or `"lower"`).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, measured untraced; every workload reports each.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        m("setup_s", "s", "lower"),
        m("peak_rss_mb", "MB", "lower"),
        m("ok_frac", "ratio", "higher"),
        m("assess_gbs", "GB/s", "higher"),
        m("modeled_ms", "ms", "lower"),
        m("jobs_per_s", "1/s", "higher"),
        m("predict_err", "ratio", "lower"),
        m("host_rps", "1/s", "higher"),
        m("latency_p50_ms", "ms", "lower"),
        m("latency_p99_ms", "ms", "lower"),
        m("knee_rps", "1/s", "higher"),
        m("admitted_frac", "ratio", "higher"),
    ]
}

/// The assessment passes the exec ledger reports, with their metric-name
/// keys.
pub const PASSES: [(&str, zc_core::PassKind); 4] = [
    ("p1_scalars", zc_core::PassKind::P1Scalars),
    ("p1_hist", zc_core::PassKind::P1Hist),
    ("p2_stencil", zc_core::PassKind::P2Stencil),
    ("p3_ssim", zc_core::PassKind::P3Ssim),
];

/// Per-layer metrics, measured by the traced run; every workload reports
/// each (a layer a workload barely uses reports what little it did).
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = vec![
        m("data.gen_s", "s", "lower"),
        m("data.gen_mbps", "MB/s", "higher"),
        m("compress.roundtrip_s", "s", "lower"),
        m("compress.mbps", "MB/s", "higher"),
        m("compress.ratio", "ratio", "higher"),
        m("engine.cache.digest_s", "s", "lower"),
        m("engine.cache.digest_gbs", "GB/s", "higher"),
        m("engine.cache.hits", "count", "higher"),
        m("engine.cache.partial_hits", "count", "higher"),
        m("engine.cache.misses", "count", "lower"),
        m("engine.cache.evictions", "count", "lower"),
        m("engine.cache.useful_frac", "ratio", "higher"),
        m("plan.lower_us", "us", "lower"),
        m("plan.verify_us", "us", "lower"),
        m("plan.estimate_us", "us", "lower"),
        m("plan.estimate_rel_err", "ratio", "lower"),
    ];
    for (p, _) in PASSES {
        v.push(m(format!("exec.{p}.host_s"), "s", "lower"));
        v.push(m(format!("exec.{p}.host_gbs"), "GB/s", "higher"));
        v.push(m(format!("exec.{p}.modeled_ms"), "ms", "lower"));
        v.push(m(format!("exec.{p}.read_bytes"), "B", "lower"));
        v.push(m(format!("exec.{p}.flops"), "flop", "lower"));
        v.push(m(format!("exec.{p}.launches"), "count", "lower"));
    }
    v.extend([
        m("campaign.shard.plan_us", "us", "lower"),
        m("campaign.shard.utilization", "ratio", "higher"),
        m("campaign.shard.compute_busy", "ratio", "higher"),
        m("campaign.shard.h2d_busy", "ratio", "lower"),
        m("serve.offer_us", "us", "lower"),
        m("serve.drain_s", "s", "lower"),
        m("serve.batches", "count", "lower"),
        m("serve.refused_quota", "count", "lower"),
        m("serve.refused_saturated", "count", "lower"),
        m("serve.backlog_max_ms", "ms", "lower"),
    ]);
    for layer in crate::ledger::LAYERS {
        v.push(m(format!("{layer}.self_s"), "s", "lower"));
        v.push(m(format!("{layer}.share"), "ratio", "lower"));
    }
    v.push(m("trace.wall_s", "s", "lower"));
    v.push(m("trace.untraced_wall_s", "s", "lower"));
    v
}
