//! Layer-by-layer replay for the traced run: each helper times one call
//! into a layer's public functions on the ledger and records the counts
//! that call returns.

use crate::ledger::Ledger;
use crate::spec::PASSES;
use crate::util::Rows;
use zc_compress::{CompressionStats, CompressorSpec};
use zc_core::campaign::{FieldRef, Scheduler, ShardPlan};
use zc_core::engine::{field_digest, CacheStats, CostCalibration};
use zc_core::exec::Executor;
use zc_core::plan::{estimate_job_cost, resolve_slabs, verify, BackendCaps};
use zc_core::report::AnalysisReport;
use zc_core::{AssessConfig, AssessPlan, PassKind};
use zc_gpusim::MultiGpuModel;
use zc_kernels::P1Scalars;
use zc_tensor::Tensor;

/// `data`: synthesize a field.
pub fn generate(l: &mut Ledger, f: &FieldRef) -> Tensor<f32> {
    let (field, s) = l.time("data", || f.generate());
    l.add("data.gen_s", s);
    l.add("data.bytes", field.data.shape().len() as f64 * 4.0);
    field.data
}

/// `compress`: one codec round trip.
pub fn roundtrip(
    l: &mut Ledger,
    codec: &CompressorSpec,
    orig: &Tensor<f32>,
) -> Result<(Tensor<f32>, CompressionStats), String> {
    let (r, s) = l.time("compress", || codec.build().roundtrip(orig));
    let (dec, stats) = r.map_err(|e| format!("codec {}: {e}", codec.label()))?;
    l.add("compress.roundtrip_s", s);
    l.add("compress.orig_bytes", stats.original_bytes as f64);
    l.add("compress.comp_bytes", stats.compressed_bytes as f64);
    Ok((dec, stats))
}

/// `engine.cache`: content digest of a field.
pub fn digest(l: &mut Ledger, t: &Tensor<f32>) -> u64 {
    let (d, s) = l.time("engine.cache", || field_digest(t));
    l.add("engine.cache.digest_s", s);
    l.add("engine.cache.digest_bytes", t.shape().len() as f64 * 4.0);
    d
}

/// `plan`: lower, verify against the V100 envelope, and price a plan.
/// Returns the lowered plan, whether it was admitted (no error-severity
/// diagnostic) and its calibrated estimate in seconds.
pub fn plan(
    l: &mut Ledger,
    cfg: &AssessConfig,
    covered: Option<&[PassKind]>,
    shape: zc_tensor::Shape,
    gpus: u32,
    link: &MultiGpuModel,
    cal: CostCalibration,
) -> (AssessPlan, bool, f64) {
    let (plan, s) = l.time("plan", || match covered {
        Some(c) => AssessPlan::residual(cfg, c),
        None => AssessPlan::lower(cfg),
    });
    l.add("plan.lower_s", s);
    l.add("plan.lower_n", 1.0);
    let caps = BackendCaps::v100();
    let (diags, s) = l.time("plan", || verify(&plan, shape, cfg, &caps));
    l.add("plan.verify_s", s);
    l.add("plan.verify_n", 1.0);
    let admitted = !diags.iter().any(|d| d.severity == zc_lint::Severity::Error);
    let (est, s) = l.time("plan", || estimate_job_cost(&plan, shape, cfg, gpus, link));
    l.add("plan.estimate_s", s);
    l.add("plan.estimate_n", 1.0);
    (plan, admitted, cal.apply(est.seconds))
}

/// Record one prediction against the modeled time the executor charged.
pub fn estimate_error(l: &mut Ledger, predicted_s: f64, charged_s: f64) {
    if charged_s > 0.0 {
        l.add(
            "plan.err_sum",
            ((predicted_s - charged_s) / charged_s).abs(),
        );
        l.add("plan.err_n", 1.0);
    }
}

/// `campaign.shard`: place priced jobs onto device groups.
pub fn shard(l: &mut Ledger, costs: &[f64], splittable: &[usize], groups: u32) -> ShardPlan {
    let (p, s) = l.time("campaign.shard", || {
        Scheduler::List.plan(costs, splittable, groups)
    });
    l.add("campaign.shard.plan_s", s);
    l.add("campaign.shard.plan_n", 1.0);
    p
}

/// The slab count the scheduler may split a job of this shape into.
pub fn splittable(cfg: &AssessConfig, shape: zc_tensor::Shape) -> usize {
    let pair_bytes = shape.len() as u64 * 8;
    let planes = (shape.nz() * shape.nw()).max(1);
    resolve_slabs(cfg.tiling, pair_bytes, planes, None).unwrap_or(1)
}

fn pass_key(kind: PassKind) -> Option<&'static str> {
    PASSES.iter().find(|(_, k)| *k == kind).map(|(n, _)| *n)
}

/// `exec`: run a plan's field passes one at a time, as single-pass
/// residual plans. Pattern-1 scalars run cold when the plan holds them
/// (`seed` is `None`); every other pass is seeded with the scalars.
/// Returns the scalars and each single-pass report, in plan order.
#[allow(clippy::too_many_arguments)]
pub fn exec_by_pass(
    l: &mut Ledger,
    ex: &dyn Executor,
    plan: &AssessPlan,
    cfg: &AssessConfig,
    orig: &Tensor<f32>,
    dec: &Tensor<f32>,
    seed: Option<P1Scalars>,
) -> Result<(P1Scalars, Vec<AnalysisReport>), String> {
    let pair_bytes = orig.shape().len() as f64 * 8.0;
    let mut p1 = seed;
    let mut reports = Vec::new();
    for pass in plan.passes() {
        let Some(key) = pass_key(pass.kind) else {
            continue; // compression meta: nothing executes
        };
        let others: Vec<PassKind> = PassKind::ALL
            .iter()
            .copied()
            .filter(|&k| k != pass.kind)
            .collect();
        let single = AssessPlan::residual(cfg, &others);
        let (r, s) = l.time("exec", || match (pass.kind, p1) {
            (PassKind::P1Scalars, _) => ex.run_plan(&single, orig, dec, cfg),
            (_, Some(p)) => ex.run_plan_seeded(&single, orig, dec, cfg, p),
            (_, None) => unreachable!("lowered plans always open with P1 scalars"),
        });
        let a = r.map_err(|e| format!("assess {key}: {e}"))?;
        if pass.kind == PassKind::P1Scalars {
            p1 = Some(a.report.p1);
        }
        l.add(&format!("exec.{key}.host_s"), s);
        l.add(&format!("exec.{key}.bytes"), pair_bytes);
        l.add(&format!("exec.{key}.modeled_ms"), a.modeled_seconds * 1e3);
        l.add(
            &format!("exec.{key}.read_bytes"),
            a.counters.global_read_bytes as f64,
        );
        l.add(&format!("exec.{key}.flops"), a.counters.lane_flops as f64);
        l.add(&format!("exec.{key}.launches"), a.counters.launches as f64);
        reports.push(a.report);
    }
    Ok((p1.expect("P1 scalars ran or were seeded"), reports))
}

/// Record the cache counters a workload's cache ended with.
pub fn cache_counts(l: &mut Ledger, c: CacheStats) {
    l.add("engine.cache.hits", c.hits as f64);
    l.add("engine.cache.partial_hits", c.partial_hits as f64);
    l.add("engine.cache.misses", c.misses as f64);
    l.add("engine.cache.evictions", c.evictions as f64);
}

fn div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Fold the ledger's counts into the per-layer metric rows (everything but
/// the self-time rows, which [`Ledger::layer_rows`] adds).
pub fn layer_rows(l: &Ledger, rows: &mut Rows) {
    let c = |n: &str| l.count(n);
    rows.push("data.gen_s", c("data.gen_s"), "s");
    rows.push(
        "data.gen_mbps",
        div(c("data.bytes"), c("data.gen_s")) / 1e6,
        "MB/s",
    );
    rows.push("compress.roundtrip_s", c("compress.roundtrip_s"), "s");
    rows.push(
        "compress.mbps",
        div(c("compress.orig_bytes"), c("compress.roundtrip_s")) / 1e6,
        "MB/s",
    );
    rows.push(
        "compress.ratio",
        div(c("compress.orig_bytes"), c("compress.comp_bytes")),
        "ratio",
    );
    rows.push("engine.cache.digest_s", c("engine.cache.digest_s"), "s");
    rows.push(
        "engine.cache.digest_gbs",
        div(c("engine.cache.digest_bytes"), c("engine.cache.digest_s")) / 1e9,
        "GB/s",
    );
    let (h, p, m) = (
        c("engine.cache.hits"),
        c("engine.cache.partial_hits"),
        c("engine.cache.misses"),
    );
    rows.push("engine.cache.hits", h, "count");
    rows.push("engine.cache.partial_hits", p, "count");
    rows.push("engine.cache.misses", m, "count");
    rows.push(
        "engine.cache.evictions",
        c("engine.cache.evictions"),
        "count",
    );
    rows.push("engine.cache.useful_frac", div(h + p, h + p + m), "ratio");
    for what in ["lower", "verify", "estimate"] {
        rows.push(
            format!("plan.{what}_us"),
            div(c(&format!("plan.{what}_s")), c(&format!("plan.{what}_n"))) * 1e6,
            "us",
        );
    }
    rows.push(
        "plan.estimate_rel_err",
        div(c("plan.err_sum"), c("plan.err_n")),
        "ratio",
    );
    for (key, _) in PASSES {
        let host = c(&format!("exec.{key}.host_s"));
        rows.push(format!("exec.{key}.host_s"), host, "s");
        rows.push(
            format!("exec.{key}.host_gbs"),
            div(c(&format!("exec.{key}.bytes")), host) / 1e9,
            "GB/s",
        );
        rows.push(
            format!("exec.{key}.modeled_ms"),
            c(&format!("exec.{key}.modeled_ms")),
            "ms",
        );
        rows.push(
            format!("exec.{key}.read_bytes"),
            c(&format!("exec.{key}.read_bytes")),
            "B",
        );
        rows.push(
            format!("exec.{key}.flops"),
            c(&format!("exec.{key}.flops")),
            "flop",
        );
        rows.push(
            format!("exec.{key}.launches"),
            c(&format!("exec.{key}.launches")),
            "count",
        );
    }
    rows.push(
        "campaign.shard.plan_us",
        div(c("campaign.shard.plan_s"), c("campaign.shard.plan_n")) * 1e6,
        "us",
    );
    for (name, unit) in [
        ("campaign.shard.utilization", "ratio"),
        ("campaign.shard.compute_busy", "ratio"),
        ("campaign.shard.h2d_busy", "ratio"),
    ] {
        rows.push(name, c(name), unit);
    }
    rows.push(
        "serve.offer_us",
        div(c("serve.offer_s"), c("serve.offers")) * 1e6,
        "us",
    );
    rows.push("serve.drain_s", c("serve.drain_s"), "s");
    for name in [
        "serve.batches",
        "serve.refused_quota",
        "serve.refused_saturated",
    ] {
        rows.push(name, c(name), "count");
    }
    rows.push("serve.backlog_max_ms", c("serve.backlog_max_ms"), "ms");
}

/// Print the exec ledger's pass → kernel-class labels.
pub fn print_pass_classes() {
    for (key, kind) in PASSES {
        println!("# exec.{key} class={:?}", kind.class());
    }
}
