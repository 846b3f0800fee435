//! `assess_pair`: the paper's core use — a full-profile cuZC assessment of
//! one large pre-made pair (a NYX field, 256³, SZ at relative bound 1e-3),
//! repeated. The pair is made in set-up, so field generation and the codec
//! show only in `setup_s`; the timed loop is the executor (the pair is
//! auto-tiled into z-slabs).

use crate::ledger::Ledger;
use crate::replay;
use crate::serve::{serve_layer, service_config};
use crate::speed::HostSpeed;
use crate::util::{
    median, peak_rss_mb, quantile, repeated_setup, seeded_bins, since, timed, Digest, Outcome, Rows,
};
use crate::{Opts, Profile};
use std::time::Instant;
use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec};
use zc_core::engine::{AssessRequest, CacheKey, CfgKey, CostCalibration, ResultCache};
use zc_core::exec::{Assessment, Executor};
use zc_core::plan::{estimate_job_cost, verify, BackendCaps};
use zc_core::{AssessConfig, AssessPlan, CuZc, Metric, PassKind};
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::MultiGpuModel;
use zc_serve::ServeRequest;

const REL_BOUND: f64 = 1e-3;

/// The workload's inputs, all drawn from the seed.
struct Inputs {
    field: FieldRef,
    codec: CompressorSpec,
    cfg: AssessConfig,
}

fn inputs(o: &Opts) -> Inputs {
    let scale = match o.profile {
        Profile::Full => 2,
        Profile::Small => 8,
        Profile::Tiny => 16,
    };
    // NYX baryon density; the seed draws a fresh instance of it.
    Inputs {
        field: FieldRef::new(
            AppDataset::Nyx,
            0,
            GenOptions::scaled(scale).with_seed(o.seed),
        ),
        codec: CompressorSpec::Sz(ErrorBound::Rel(REL_BOUND)),
        cfg: AssessConfig {
            bins: seeded_bins(o.seed),
            ..Default::default()
        },
    }
}

fn executor(o: &Opts) -> CuZc {
    CuZc {
        reference_path: o.reference_path,
        ..Default::default()
    }
}

/// Digest of one assessment: every metric bit, the charged counters and
/// the modeled times.
fn digest_of(a: &Assessment) -> u64 {
    let mut d = Digest::default();
    d.report(&a.report);
    d.counters(&a.counters);
    d.f64(a.modeled_seconds);
    d.f64(a.e2e.map(|e| e.overlapped_s).unwrap_or(0.0));
    d.finish()
}

/// Checks a correct assessment of an SZ pair must pass.
fn check(a: &Assessment, problems: &mut Vec<String>) {
    let r = &a.report;
    let range = r.scalar(Metric::ValueRange).unwrap_or(0.0);
    let max_err = r.scalar(Metric::MaxAbsError).unwrap_or(f64::INFINITY);
    // The codec's bound is relative to the value range; allow f32 rounding
    // of the decompressed values.
    if max_err > REL_BOUND * range * 1.001 + f32::EPSILON as f64 * range {
        problems.push(format!(
            "max |error| {max_err:e} exceeds the SZ bound {:e}",
            REL_BOUND * range
        ));
    }
    let psnr = r.scalar(Metric::Psnr).unwrap_or(f64::NAN);
    if !(psnr.is_finite() && psnr > 20.0) {
        problems.push(format!("PSNR {psnr} is not plausible for SZ at 1e-3"));
    }
    let ssim = r.scalar(Metric::Ssim).unwrap_or(f64::NAN);
    if !(ssim > 0.0 && ssim <= 1.0 + 1e-9) {
        problems.push(format!("SSIM {ssim} out of (0, 1]"));
    }
    if r.stencil.is_none() || r.histograms.is_none() {
        problems.push("full profile is missing the stencil or histogram sections".into());
    }
    if a.e2e.is_none() {
        problems.push("no modeled end-to-end timeline".into());
    }
}

pub fn run(o: &Opts) -> Outcome {
    let inp = inputs(o);
    let fleet = FleetSpec::nvlink(1);
    let mut speed = HostSpeed::default();
    let ((orig, dec, cal), setup_s) = repeated_setup(|| {
        let orig = inp.field.generate().data;
        let (dec, _) = inp
            .codec
            .build()
            .roundtrip(&orig)
            .expect("SZ round trip of a catalog field");
        let cal = CostCalibration::probe(&fleet, &inp.cfg);
        (orig, dec, cal)
    });
    let shape = orig.shape();
    let ex = executor(o);
    let mut problems = Vec::new();
    let plan = AssessPlan::lower(&inp.cfg);
    let admitted = !verify(&plan, shape, &inp.cfg, &BackendCaps::v100())
        .iter()
        .any(|d| d.severity == zc_lint::Severity::Error);
    if !admitted {
        problems.push("plan verification refused the pair".into());
    }
    let est = estimate_job_cost(&plan, shape, &inp.cfg, 1, &MultiGpuModel::nvlink(1));
    let predicted = cal.apply(est.seconds);

    let t0 = Instant::now();
    let mut secs = Vec::new();
    let mut first: Option<(Assessment, u64)> = None;
    let mut failed = 0u64;
    let mut rss = 0.0;
    while secs.len() < 3 || since(t0) < o.seconds {
        let (r, s) = timed(|| ex.run_plan(&plan, &orig, &dec, &inp.cfg));
        secs.push(s);
        if secs.len() == 1 {
            rss = peak_rss_mb();
        }
        speed.tick();
        match r {
            Ok(a) => {
                let d = digest_of(&a);
                match &first {
                    None => first = Some((a, d)),
                    Some((_, d0)) if *d0 != d => {
                        problems.push("a repeat assessment answered differently".into())
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("assessment failed: {e}"));
            }
        }
    }
    let attempted = secs.len() as u64;
    let Some((a, digest)) = first else {
        return Outcome {
            rows: Rows::default(),
            attempted,
            failed,
            digest: 0,
            problems,
        };
    };
    check(&a, &mut problems);
    println!("{}", speed.describe());
    let k = speed.scale();
    let host = median(&secs) * k;
    let e2e = a.e2e.map(|e| e.overlapped_s).unwrap_or(a.modeled_seconds);
    let pair_bytes = shape.len() as f64 * 8.0;
    println!(
        "# assess_pair: {} {} pair, {} reps, raw host median {:.4} s (quartiles {:.4}..{:.4}), modeled {:.3} ms",
        inp.field.qualified_name(),
        shape,
        secs.len(),
        median(&secs),
        quantile(&secs, 0.25),
        quantile(&secs, 0.75),
        e2e * 1e3
    );
    let mut rows = Rows::default();
    rows.push("setup_s", setup_s * k, "s");
    rows.push("peak_rss_mb", rss, "MB");
    rows.push(
        "ok_frac",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    rows.push("assess_gbs", pair_bytes / host / 1e9, "GB/s");
    rows.push("modeled_ms", e2e * 1e3, "ms");
    rows.push("jobs_per_s", 1.0 / host, "1/s");
    rows.push("predict_err", ((predicted - e2e) / e2e).abs(), "ratio");
    rows.push("host_rps", 1.0 / host, "1/s");
    // One job alone on one device: its latency is its modeled span.
    rows.push("latency_p50_ms", e2e * 1e3, "ms");
    rows.push("latency_p99_ms", e2e * 1e3, "ms");
    rows.push("knee_rps", 1.0 / e2e, "1/s");
    rows.push("admitted_frac", if admitted { 1.0 } else { 0.0 }, "ratio");
    Outcome {
        rows,
        attempted,
        failed,
        digest,
        problems,
    }
}

pub fn trace(o: &Opts) -> Outcome {
    let inp = inputs(o);
    let fleet = FleetSpec::nvlink(1);
    let ex = executor(o);
    let mut problems = Vec::new();

    // Untraced: the same job through the plain path.
    let ((a, digest), untraced_s) = timed(|| {
        let orig = inp.field.generate().data;
        let (dec, _) = inp.codec.build().roundtrip(&orig).expect("SZ round trip");
        let a = ex.assess(&orig, &dec, &inp.cfg).expect("assessment");
        let d = digest_of(&a);
        (a, d)
    });
    check(&a, &mut problems);

    let mut l = Ledger::default();
    let t0 = Instant::now();
    let cal = CostCalibration::probe(&fleet, &inp.cfg);
    let orig = replay::generate(&mut l, &inp.field);
    let d = replay::digest(&mut l, &orig);
    let key = CacheKey {
        digest: d,
        compressor: inp.codec.label(),
        cfg: CfgKey::of(&inp.cfg),
    };
    let mut cache = ResultCache::new(1);
    let needed: Vec<PassKind> = AssessPlan::lower(&inp.cfg)
        .passes()
        .iter()
        .map(|p| p.kind)
        .collect();
    l.time("engine.cache", || cache.lookup(&key, &needed));
    let (plan, admitted, predicted) = replay::plan(
        &mut l,
        &inp.cfg,
        None,
        orig.shape(),
        1,
        &MultiGpuModel::nvlink(1),
        cal,
    );
    if !admitted {
        problems.push("plan verification refused the pair".into());
    }
    let e2e = a.e2e.map(|e| e.overlapped_s).unwrap_or(a.modeled_seconds);
    replay::estimate_error(&mut l, predicted, e2e);
    match replay::roundtrip(&mut l, &inp.codec, &orig).and_then(|(dec, stats)| {
        let r = replay::exec_by_pass(&mut l, &ex, &plan, &inp.cfg, &orig, &dec, None)?;
        Ok((r, stats))
    }) {
        Ok(((p1, reports), stats)) => {
            if p1.psnr_db().to_bits() != a.report.p1.psnr_db().to_bits() {
                problems.push("pass-by-pass P1 scalars differ from the full run's".into());
            }
            for r in &reports {
                l.time("engine.cache", || cache.absorb(key.clone(), r, stats));
            }
        }
        Err(e) => problems.push(format!("layer replay: {e}")),
    }
    replay::shard(
        &mut l,
        &[predicted],
        &[replay::splittable(&inp.cfg, orig.shape())],
        1,
    );
    if let Some(e) = a.e2e {
        l.add("campaign.shard.utilization", 1.0);
        l.add("campaign.shard.compute_busy", e.compute_s / e.overlapped_s);
        l.add("campaign.shard.h2d_busy", e.h2d_s / e.overlapped_s);
    }
    let replay_stats = cache.stats();
    drop(orig);
    let inner = l.total_self();
    // The serve layer: the same request offered to a one-GPU service.
    let req = ServeRequest {
        tenant: 0,
        arrival_s: 0.0,
        request: AssessRequest {
            field: inp.field.clone(),
            compressor: inp.codec,
            cfg: inp.cfg.clone(),
        },
    };
    let (served, credited) = serve_layer(&mut l, &[req], &service_config(1), inner);
    // The drain repeated the replayed work inside the program; count it once.
    let traced_s = since(t0) - credited;
    match served.answers.first() {
        Some(Ok(ans)) if ans.psnr_bits == a.report.p1.psnr_db().to_bits() => {}
        other => problems.push(format!(
            "the service's answer differs from the direct one: {:?}",
            other.map(|r| r.as_ref().map(|a| a.psnr_bits))
        )),
    }
    let key_of = |c: &zc_core::engine::CacheStats| (c.hits, c.partial_hits, c.misses);
    if key_of(&replay_stats) != key_of(&served.cache) {
        problems.push("the layer replay's cache disagrees with the service's".into());
    }
    replay::cache_counts(&mut l, replay_stats);

    let mut rows = Rows::default();
    replay::layer_rows(&l, &mut rows);
    l.layer_rows(&mut rows, traced_s, untraced_s);
    replay::print_pass_classes();
    Outcome {
        rows,
        attempted: 1,
        failed: served.failed as u64,
        digest,
        problems,
    }
}
