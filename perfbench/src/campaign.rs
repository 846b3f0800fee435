//! `campaign`: a codec sweep — the four paper datasets × 2 fields ×
//! `CompressorSpec::standard_sweep()` on a 4-GPU NVLink fleet with the list
//! scheduler. Every (field, codec) pair is unique, so nothing is answered
//! from a cache; field generation, the codec round trips, assessment and
//! shard planning share the work.

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
use zc_core::campaign::{
    CampaignReport, CampaignSpec, FieldRef, FleetSpec, JobOutcome, RecoveryPolicy, Scheduler,
};
use zc_core::engine::{AssessRequest, CacheKey, CfgKey, CostCalibration, ResultCache};
use zc_core::{AssessConfig, PassKind};
use zc_data::{AppDataset, GenOptions};
use zc_serve::ServeRequest;

const GPUS: u32 = 4;

fn spec(o: &Opts) -> CampaignSpec {
    let scale = match o.profile {
        Profile::Full => 8,
        Profile::Small => 16,
        Profile::Tiny => 32,
    };
    // The fields are fixed; the seed draws fresh instances of them, so the
    // host work per job stays the same from seed to seed.
    let opts = GenOptions::scaled(scale).with_seed(o.seed);
    let fields = AppDataset::ALL
        .iter()
        .flat_map(|&ds| [0, ds.field_count() / 2].map(|i| FieldRef::new(ds, i, opts)))
        .collect();
    CampaignSpec {
        fields,
        compressors: CompressorSpec::standard_sweep(),
        cfg: AssessConfig {
            bins: seeded_bins(o.seed),
            ..Default::default()
        },
        fleet: FleetSpec::nvlink(GPUS),
        scheduler: Scheduler::List,
        progressive: None,
        recovery: RecoveryPolicy::default(),
    }
}

/// Digest of a campaign: every job's metric bits and charged counters,
/// plus the fleet's modeled figures.
fn digest_of(r: &CampaignReport) -> u64 {
    let mut d = Digest::default();
    for j in &r.jobs {
        d.str(&j.spec.field.qualified_name());
        d.str(&j.spec.compressor.label());
        d.u64(j.group as u64);
        match &j.outcome {
            JobOutcome::Done(m) => {
                for v in [
                    m.psnr,
                    m.ssim,
                    m.mse,
                    m.pearson,
                    m.autocorr1.unwrap_or(f64::NAN),
                    m.compression_ratio,
                    m.modeled_seconds,
                ] {
                    d.f64(v);
                }
                d.f64(m.e2e.map(|e| e.overlapped_s).unwrap_or(0.0));
                for run in &m.runs {
                    d.counters(&run.counters);
                }
            }
            JobOutcome::Failed(msg) => d.str(msg),
        }
    }
    d.f64(r.fleet.makespan_s);
    d.f64(r.fleet.predicted_makespan_s);
    d.counters(&r.totals.combined());
    d.finish()
}

/// A correct sweep: every job completes, and on every field a tighter SZ
/// bound gives a higher PSNR and a lower compression ratio.
fn check(spec: &CampaignSpec, r: &CampaignReport, problems: &mut Vec<String>) {
    for (j, why) in r.failures() {
        problems.push(format!(
            "job {} {} failed: {why}",
            j.spec.field.qualified_name(),
            j.spec.compressor.label()
        ));
    }
    let per = spec.compressors.len();
    for chunk in r.jobs.chunks(per) {
        let sz: Vec<(f64, f64, f64)> = chunk
            .iter()
            .filter_map(|j| match (j.spec.compressor, j.metrics()) {
                (CompressorSpec::Sz(ErrorBound::Rel(e)), Some(m)) => {
                    Some((e, m.psnr, m.compression_ratio))
                }
                _ => None,
            })
            .collect();
        for w in sz.windows(2) {
            let (loose, tight) = if w[0].0 > w[1].0 {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            if !(tight.1 > loose.1 && tight.2 < loose.2) {
                problems.push(format!(
                    "{}: SZ bound {:e} vs {:e} does not order PSNR and ratio",
                    chunk[0].spec.field.qualified_name(),
                    tight.0,
                    loose.0
                ));
            }
        }
    }
}

fn pair_bytes(spec: &CampaignSpec) -> f64 {
    spec.jobs()
        .iter()
        .map(|j| j.field.shape().len() as f64 * 8.0)
        .sum()
}

pub fn run(o: &Opts) -> Outcome {
    let mut speed = HostSpeed::default();
    let (spec, setup_s) = repeated_setup(|| {
        let spec = spec(o);
        // Admission and pricing a campaign pays before any field exists.
        let _ = CostCalibration::probe(&spec.fleet, &spec.cfg);
        let (costs, split) = spec.job_costs();
        let _ = spec.scheduler.plan(&costs, &split, spec.fleet.groups());
        spec
    });
    let jobs = spec.jobs().len() as u64;
    let mut problems = Vec::new();
    let t0 = Instant::now();
    let mut secs = Vec::new();
    let mut first: Option<(CampaignReport, u64)> = None;
    let mut failed = 0u64;
    let mut rss = 0.0;
    while secs.len() < 3 || since(t0) < o.seconds {
        let (r, s) = timed(|| spec.run());
        secs.push(s);
        if secs.len() == 1 {
            rss = peak_rss_mb();
        }
        speed.tick();
        match r {
            Ok(r) => {
                failed += r.failures().len() as u64;
                let d = digest_of(&r);
                match &first {
                    None => first = Some((r, d)),
                    Some((_, d0)) if *d0 != d => {
                        problems.push("a repeat campaign answered differently".into())
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                failed += jobs;
                problems.push(format!("campaign failed: {e}"));
            }
        }
    }
    let attempted = jobs * secs.len() as u64;
    let Some((r, digest)) = first else {
        return Outcome {
            rows: Rows::default(),
            attempted,
            failed,
            digest: 0,
            problems,
        };
    };
    check(&spec, &r, &mut problems);
    println!("{}", speed.describe());
    let k = speed.scale();
    let host = median(&secs) * k;
    let mut lat: Vec<f64> = r
        .jobs
        .iter()
        .filter_map(|j| j.metrics())
        .map(|m| m.e2e.map(|e| e.overlapped_s).unwrap_or(m.modeled_seconds) * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let admitted = r
        .jobs
        .iter()
        .filter(|j| !matches!(&j.outcome, JobOutcome::Failed(m) if m.starts_with("admission")))
        .count();
    println!(
        "# campaign: {jobs} jobs, {} runs, raw host median {:.4} s (quartiles {:.4}..{:.4}), makespan {:.3} ms predicted {:.3} ms",
        secs.len(),
        median(&secs),
        quantile(&secs, 0.25),
        quantile(&secs, 0.75),
        r.fleet.makespan_s * 1e3,
        r.fleet.predicted_makespan_s * 1e3
    );
    let mut rows = Rows::default();
    rows.push("setup_s", setup_s * k, "s");
    rows.push("peak_rss_mb", rss, "MB");
    rows.push("ok_frac", r.completed() as f64 / jobs as f64, "ratio");
    rows.push("assess_gbs", pair_bytes(&spec) / host / 1e9, "GB/s");
    rows.push("modeled_ms", r.fleet.makespan_s * 1e3, "ms");
    rows.push("jobs_per_s", jobs as f64 / host, "1/s");
    rows.push("predict_err", r.fleet.makespan_rel_error.abs(), "ratio");
    rows.push("host_rps", jobs as f64 / host, "1/s");
    // All jobs arrive at once; a job's latency is its modeled span.
    rows.push("latency_p50_ms", quantile(&lat, 0.50), "ms");
    rows.push("latency_p99_ms", quantile(&lat, 0.99), "ms");
    rows.push("knee_rps", r.fleet.jobs_per_sec, "1/s");
    rows.push("admitted_frac", admitted as f64 / jobs as f64, "ratio");
    Outcome {
        rows,
        attempted,
        failed,
        digest,
        problems,
    }
}

pub fn trace(o: &Opts) -> Outcome {
    let spec = spec(o);
    let mut problems = Vec::new();
    let (report, untraced_s) = timed(|| spec.run());
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                rows: Rows::default(),
                attempted: spec.jobs().len() as u64,
                failed: spec.jobs().len() as u64,
                digest: 0,
                problems: vec![format!("campaign failed: {e}")],
            }
        }
    };
    check(&spec, &report, &mut problems);
    let digest = digest_of(&report);

    let mut l = Ledger::default();
    let t0 = Instant::now();
    let cal = CostCalibration::probe(&spec.fleet, &spec.cfg);
    let link = spec.fleet.link.model(spec.fleet.gpus_per_job);
    let ex = spec.fleet.executor();
    let mut cache = ResultCache::new(256);
    let needed: Vec<PassKind> = zc_core::AssessPlan::lower(&spec.cfg)
        .passes()
        .iter()
        .map(|p| p.kind)
        .collect();
    let (mut costs, mut split) = (Vec::new(), Vec::new());
    let jobs = spec.jobs();
    for (fi, field) in spec.fields.iter().enumerate() {
        let orig = replay::generate(&mut l, field);
        let d = replay::digest(&mut l, &orig);
        for job in jobs.iter().filter(|j| j.field_index == fi) {
            let key = CacheKey {
                digest: d,
                compressor: job.compressor.label(),
                cfg: CfgKey::of(&spec.cfg),
            };
            l.time("engine.cache", || cache.lookup(&key, &needed));
            let (plan, _, est) = replay::plan(&mut l, &spec.cfg, None, orig.shape(), 1, &link, cal);
            costs.push(est);
            split.push(replay::splittable(&spec.cfg, orig.shape()));
            let charged = report.jobs[job.id]
                .metrics()
                .and_then(|m| m.e2e.map(|e| e.overlapped_s));
            if let Some(c) = charged {
                replay::estimate_error(&mut l, est, c);
            }
            let run = replay::roundtrip(&mut l, &job.compressor, &orig).and_then(|(dec, stats)| {
                let r = replay::exec_by_pass(&mut l, &ex, &plan, &spec.cfg, &orig, &dec, None)?;
                Ok((r, stats))
            });
            match run {
                Ok(((p1, reports), stats)) => {
                    let want = report.jobs[job.id].metrics().map(|m| m.psnr.to_bits());
                    if want != Some(p1.psnr_db().to_bits()) {
                        problems.push(format!("job {} replayed to a different PSNR", job.id));
                    }
                    for r in &reports {
                        l.time("engine.cache", || cache.absorb(key.clone(), r, stats));
                    }
                }
                Err(e) => problems.push(format!("layer replay of job {}: {e}", job.id)),
            }
        }
    }
    replay::shard(&mut l, &costs, &split, spec.fleet.groups());
    l.add("campaign.shard.utilization", report.fleet.utilization);
    l.add(
        "campaign.shard.compute_busy",
        report.fleet.engines.compute_fraction(),
    );
    l.add(
        "campaign.shard.h2d_busy",
        report.fleet.engines.h2d_fraction(),
    );
    let replay_stats = cache.stats();
    replay::cache_counts(&mut l, replay_stats);
    let inner = l.total_self();
    // The serve layer: the same jobs offered to a 4-GPU service at once.
    let trace: Vec<ServeRequest> = jobs
        .iter()
        .map(|j| ServeRequest {
            tenant: j.id as u32,
            arrival_s: 0.0,
            request: AssessRequest {
                field: j.field.clone(),
                compressor: j.compressor,
                cfg: spec.cfg.clone(),
            },
        })
        .collect();
    let (served, credited) = serve_layer(&mut l, &trace, &service_config(GPUS), inner);
    // The drain repeated the replayed work inside the program; count it once.
    let traced_s = since(t0) - credited;
    if served.completed() != jobs.len() {
        problems.push(format!(
            "the service answered {} of {} campaign jobs",
            served.completed(),
            jobs.len()
        ));
    }
    if served.cache.misses != replay_stats.misses {
        problems.push("the layer replay's cache disagrees with the service's".into());
    }

    let mut rows = Rows::default();
    replay::layer_rows(&l, &mut rows);
    l.layer_rows(&mut rows, traced_s, untraced_s);
    replay::print_pass_classes();
    Outcome {
        rows,
        attempted: jobs.len() as u64,
        failed: report.failures().len() as u64,
        digest,
        problems,
    }
}
