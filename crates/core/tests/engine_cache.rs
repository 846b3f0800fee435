//! Cache-semantics tier: the engine's content-addressed result cache must
//! be *invisible* in every metric value.
//!
//! The load-bearing property is the partial-hit path: a residual plan of
//! only the missing passes, seeded with cached pattern-1 scalars, must
//! produce sections bit-identical to a cold full run — on every executor,
//! since the cache sits above the executor choice. The remaining tests pin
//! the key semantics (metric selection is coverage, not key; value-affecting
//! knobs are key), that LRU eviction only ever costs re-runs, never
//! correctness, and that generating fields only on a cache miss changes
//! how much a drain generates, never what it answers.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::{AssessRequest, CacheOutcome, Engine, JobResult};
use zc_core::exec::{CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::plan::{AssessPlan, PassKind};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};
use zc_tensor::{Shape, Tensor};

fn small_field() -> Tensor<f32> {
    Tensor::from_fn(Shape::d3(24, 16, 12), |[x, y, z, _]| {
        (x as f32 * 0.23).sin() + (y as f32 * 0.11).cos() + z as f32 * 0.015
    })
}

fn full_cfg() -> AssessConfig {
    AssessConfig {
        max_lag: 3,
        bins: 32,
        metrics: MetricSelection::all(),
        ..Default::default()
    }
}

/// The coverage the cache would derive from a stored narrow report:
/// scalars and the meta pass always ride along, sections only if present.
fn covered_by(report: &zc_core::AnalysisReport, plan: &AssessPlan) -> Vec<PassKind> {
    plan.passes()
        .iter()
        .map(|p| p.kind)
        .filter(|&k| match k {
            PassKind::P1Scalars | PassKind::CompressionMeta => true,
            PassKind::P1Hist => report.histograms.is_some(),
            PassKind::P2Stencil => report.stencil.is_some(),
            PassKind::P3Ssim => report.ssim.is_some(),
        })
        .collect()
}

#[test]
fn seeded_residual_is_bit_identical_to_cold_on_every_executor() {
    let orig = small_field();
    let (dec, _stats) = CompressorSpec::Sz(ErrorBound::Rel(1e-3))
        .build()
        .roundtrip(&orig)
        .expect("roundtrip");
    let cfg = full_cfg();
    let narrow_cfg = AssessConfig {
        metrics: MetricSelection::none().with(Metric::Psnr),
        ..cfg.clone()
    };
    let full_plan = AssessPlan::lower(&cfg);
    let narrow_plan = AssessPlan::lower(&narrow_cfg);

    let serial = SerialZc;
    let omp = OmpZc::default();
    let mo = MoZc::default();
    let cu = CuZc::default();
    let multi = FleetSpec::nvlink(2).executor();
    let executors: [(&str, &dyn Executor); 5] = [
        ("serialZC", &serial),
        ("ompZC", &omp),
        ("moZC", &mo),
        ("cuZC", &cu),
        ("multi-cuZC", &multi),
    ];
    for (name, ex) in executors {
        // Cold: the full profile in one run.
        let cold = ex
            .run_plan(&full_plan, &orig, &dec, &cfg)
            .expect("cold run");
        // Warm path: a PSNR-only run first (what an earlier request left in
        // the cache), then the residual of the full profile, seeded with
        // the narrow run's pattern-1 scalars.
        let narrow = ex
            .run_plan(&narrow_plan, &orig, &dec, &narrow_cfg)
            .expect("narrow run");
        let covered = covered_by(&narrow.report, &full_plan);
        assert!(
            covered.contains(&PassKind::P1Scalars),
            "{name}: scalars always covered"
        );
        let residual = AssessPlan::residual(&cfg, &covered);
        assert!(
            !residual.passes().is_empty() && residual.passes().len() < full_plan.passes().len(),
            "{name}: residual must be a strict, non-empty subset of the full plan"
        );
        let warm = ex
            .run_plan_seeded(&residual, &orig, &dec, &cfg, narrow.report.p1)
            .expect("seeded residual run");
        // Bit-identity, section by section and scalar by scalar.
        assert_eq!(cold.report.p1, warm.report.p1, "{name}: p1 moments");
        assert_eq!(cold.report.stencil, warm.report.stencil, "{name}: stencil");
        assert_eq!(cold.report.ssim, warm.report.ssim, "{name}: ssim");
        for m in Metric::ALL {
            let (a, b) = (cold.report.scalar(m), warm.report.scalar(m));
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "{name}: {m:?} differs between cold and seeded-residual runs: {a:?} vs {b:?}"
            );
        }
    }
}

fn request(metrics: MetricSelection, seed: u64) -> AssessRequest {
    AssessRequest {
        field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32).with_seed(seed)),
        compressor: CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        cfg: AssessConfig {
            metrics,
            ..full_cfg()
        },
    }
}

#[test]
fn cache_key_ignores_metric_selection_construction_order() {
    // The selection canonicalizes (it is a set), and the metric set is not
    // part of the physical key at all — so any construction order of the
    // same metrics must find the entry the first run stored.
    let forward = MetricSelection::none()
        .with(Metric::Psnr)
        .with(Metric::Mse)
        .with(Metric::Ssim);
    let backward = MetricSelection::none()
        .with(Metric::Ssim)
        .with(Metric::Mse)
        .with(Metric::Psnr);
    let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
    engine.submit(request(forward, 0)).unwrap();
    let first = engine.drain();
    assert_eq!(first.results[0].cache, CacheOutcome::Miss);
    engine.submit(request(backward, 0)).unwrap();
    let second = engine.drain();
    assert_eq!(second.results[0].cache, CacheOutcome::Hit);
}

#[test]
fn value_affecting_knobs_are_part_of_the_key() {
    let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
    engine.submit(request(MetricSelection::all(), 0)).unwrap();
    engine.drain();
    // Same field, same codec, different histogram resolution → the cached
    // PDFs would be wrong, so this must be a miss, not any kind of hit.
    let mut req = request(MetricSelection::all(), 0);
    req.cfg.bins = 64;
    engine.submit(req).unwrap();
    let batch = engine.drain();
    assert_eq!(batch.results[0].cache, CacheOutcome::Miss);
}

#[test]
fn eviction_never_changes_metric_values() {
    // A 1-entry cache thrashed by three alternating fields: every repeat
    // re-misses (its entry was evicted), and every metric value matches an
    // uncached engine bit for bit.
    let seeds = [0u64, 1, 2, 0, 1, 2];
    let mut tiny = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(1);
    let mut uncached = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(0);
    for &seed in &seeds {
        tiny.submit(request(MetricSelection::all(), seed)).unwrap();
        uncached
            .submit(request(MetricSelection::all(), seed))
            .unwrap();
        let a = tiny.drain();
        let b = uncached.drain();
        let (ma, mb) = match (&a.results[0].outcome, &b.results[0].outcome) {
            (JobOutcome::Done(ma), JobOutcome::Done(mb)) => (ma, mb),
            _ => panic!("seed {seed}: both engines must complete"),
        };
        assert_eq!(
            ma.psnr.to_bits(),
            mb.psnr.to_bits(),
            "seed {seed}: psnr differs under eviction pressure"
        );
        assert_eq!(
            ma.ssim.to_bits(),
            mb.ssim.to_bits(),
            "seed {seed}: ssim differs under eviction pressure"
        );
    }
    assert!(
        tiny.cache_stats().evictions > 0,
        "the 1-entry cache must actually have thrashed: {:?}",
        tiny.cache_stats()
    );
}

/// Every value-derived metric of two completed results, as exact bits
/// (the codec throughputs are wall-clock and excluded).
fn assert_same_answer(a: &JobResult, b: &JobResult, what: &str) {
    let (ra, rb) = (a.report.as_ref(), b.report.as_ref());
    let (ra, rb) = (
        ra.unwrap_or_else(|| panic!("{what}: first side has no report")),
        rb.unwrap_or_else(|| panic!("{what}: second side has no report")),
    );
    let wall_clock = [
        Metric::CompressionThroughput,
        Metric::DecompressionThroughput,
    ];
    for m in Metric::ALL.into_iter().filter(|m| !wall_clock.contains(m)) {
        assert_eq!(
            ra.scalar(m).map(f64::to_bits),
            rb.scalar(m).map(f64::to_bits),
            "{what}: {m:?} differs"
        );
    }
    assert_eq!(ra.stencil, rb.stencil, "{what}: stencil");
    assert_eq!(ra.ssim, rb.ssim, "{what}: ssim");
}

#[test]
fn warm_drain_generates_no_fields_and_answers_identically() {
    let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
    let batch = || {
        [(MetricSelection::all(), 0), (MetricSelection::all(), 1)]
            .map(|(m, seed)| request(m, seed))
            .into_iter()
            .chain([request(MetricSelection::none().with(Metric::Psnr), 0)])
    };
    for req in batch() {
        engine.submit(req).unwrap();
    }
    let cold = engine.drain();
    assert_eq!(cold.fields_generated, 2, "two distinct fields, both new");
    for req in batch() {
        engine.submit(req).unwrap();
    }
    let warm = engine.drain();
    assert_eq!(warm.fields_generated, 0, "every request is a full hit");
    for (i, (c, w)) in cold.results.iter().zip(&warm.results).enumerate() {
        assert_eq!(w.cache, CacheOutcome::Hit, "request {i}");
        assert_same_answer(c, w, &format!("request {i}"));
    }
}

#[test]
fn mid_batch_eviction_falls_back_to_generating_the_field() {
    // 1-entry cache: drain [B], then [A, B]. Before the second batch, B
    // looks like a full hit, so only A is generated up front; A's absorb
    // then evicts B, and B's lookup misses and generates it on demand.
    let (a, b) = (1, 2);
    let mut tiny = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(1);
    let mut uncached = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(0);
    for batch in [vec![b], vec![a, b]] {
        for &seed in &batch {
            tiny.submit(request(MetricSelection::all(), seed)).unwrap();
            uncached
                .submit(request(MetricSelection::all(), seed))
                .unwrap();
        }
        let (x, y) = (tiny.drain(), uncached.drain());
        for (i, (rx, ry)) in x.results.iter().zip(&y.results).enumerate() {
            assert_same_answer(rx, ry, &format!("batch {batch:?}, request {i}"));
        }
        if batch.len() == 2 {
            assert_eq!(x.results[1].cache, CacheOutcome::Miss, "B was evicted");
            assert_eq!(x.fields_generated, 2, "A up front, B on demand");
        }
    }
    assert_eq!(tiny.cache_stats().evictions, 2);
}

#[test]
fn digest_memo_never_outgrows_the_cache_budget() {
    let budget = 2;
    let mut engine = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(budget);
    for seed in 0..5 {
        engine
            .submit(request(MetricSelection::none().with(Metric::Psnr), seed))
            .unwrap();
        let batch = engine.drain();
        assert_eq!(batch.fields_generated, 1, "seed {seed} is a fresh field");
        assert!(
            engine.memoized_fields() <= budget,
            "seed {seed}: {} memoized digests over a budget of {budget}",
            engine.memoized_fields()
        );
    }
    assert_eq!(engine.memoized_fields(), budget);
}
