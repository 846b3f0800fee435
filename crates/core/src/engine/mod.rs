//! The assessment engine — the resident execution core behind campaigns
//! and the `zc-serve` service.
//!
//! [`crate::campaign`] describes *what* to assess; this module owns *how*:
//! admission (static plan verification against the device envelope),
//! field generation, codec round-trips, plan lowering and execution on the
//! fleet executor, shard planning, and report aggregation. The one-shot
//! [`crate::campaign::CampaignSpec::run`] is a thin wrapper over
//! `run_campaign`; a long-lived caller instead holds an [`Engine`] and
//! feeds it [`AssessRequest`]s — gaining two things a one-shot run cannot
//! have:
//!
//! * **Calibration** ([`CostCalibration`]): one probe job at startup fits
//!   the closed-form cost estimator to the fleet's modeled executor, so
//!   scheduler predictions track measured makespans.
//! * **Memory** ([`ResultCache`]): results are content-addressed by
//!   (field digest, codec label, value-affecting config). A repeated
//!   request is answered from cache without touching the executor; a
//!   request whose metrics partially overlap a cached result runs only a
//!   *residual plan* of the missing passes, seeded with the cached
//!   pattern-1 scalars — bit-identical to a cold run, by construction.
//!
//! The engine is deterministic end to end: ticket order is submission
//! order, batch execution is sequential in ticket order (field generation
//! is host-parallel but index-ordered), and the cache's LRU clock is
//! logical. Results are independent of `ZC_PAR_THREADS`.

mod cache;
mod calibrate;

pub use cache::{field_digest, CacheKey, CacheStats, CfgKey, Lookup, ResultCache};
pub use calibrate::CostCalibration;

use crate::campaign::{
    job, recover, CampaignError, CampaignReport, CampaignSpec, FieldRef, FleetSpec,
    FleetUtilization, JobOutcome, JobRecord, JobSpec, Scheduler,
};
use crate::config::AssessConfig;
use crate::exec::{Confidence, Executor, MultiCuZc, PatternTimes};
use crate::plan::{estimate_job_cost, resolve_slabs, verify, AssessPlan, BackendCaps, PassKind};
use std::collections::HashMap;
use zc_compress::CompressorSpec;
use zc_data::AppDataset;
use zc_tensor::Tensor;

/// Default result-cache capacity (entries).
const DEFAULT_CACHE_ENTRIES: usize = 256;

/// One assessment request: a field, a codec configuration, and the
/// assessment config (whose [`crate::metrics::MetricSelection`] names the
/// metrics wanted).
#[derive(Clone, Debug)]
pub struct AssessRequest {
    /// The field to assess.
    pub field: FieldRef,
    /// The compressor configuration under assessment.
    pub compressor: CompressorSpec,
    /// Assessment configuration (metrics, bins, lags, SSIM window…).
    pub cfg: AssessConfig,
}

/// Handle for a submitted request; results carry it back in batch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobTicket(u64);

impl JobTicket {
    /// The ticket's submission sequence number.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Errors the engine can raise at session or submission time. Per-job
/// execution failures are *not* errors — they come back as
/// [`JobOutcome::Failed`] in the batch, exactly as in campaigns.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The fleet description is inconsistent.
    BadFleet(String),
    /// The request's assessment configuration failed validation.
    BadConfig(String),
    /// Static plan verification found an error-severity diagnostic: the
    /// request would not fit the device envelope and is refused up front.
    Admission(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadFleet(m) => write!(f, "bad fleet spec: {m}"),
            EngineError::BadConfig(m) => write!(f, "bad assess config: {m}"),
            EngineError::Admission(m) => write!(f, "admission: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// How the cache answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Nothing cached; the full plan ran.
    Miss,
    /// Cached scalars seeded a residual plan of only the missing passes.
    Partial,
    /// Answered entirely from cache; no assessment work ran.
    Hit,
}

impl CacheOutcome {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Partial => "partial",
            CacheOutcome::Hit => "hit",
        }
    }
}

/// The engine's answer to one request.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The ticket this result answers.
    pub ticket: JobTicket,
    /// How the cache participated.
    pub cache: CacheOutcome,
    /// Metrics or the failure message, as in campaign job records.
    pub outcome: JobOutcome,
    /// The full analysis report (merged with any cached sections and the
    /// codec stats) for completed jobs.
    pub report: Option<crate::report::AnalysisReport>,
}

/// What one [`Engine::drain`] returns: per-ticket results in submission
/// order plus fleet-level accounting over the work that actually ran.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One result per drained ticket, in ticket order.
    pub results: Vec<JobResult>,
    /// Modeled fleet utilization of the batch's *executed* jobs (full
    /// cache hits occupy no device time and are excluded).
    pub fleet: FleetUtilization,
    /// Cumulative cache counters after the batch.
    pub cache: CacheStats,
}

/// A resident assessment session: a fleet, its calibrated cost model, and
/// a content-addressed result cache, fed by [`Engine::submit`] and driven
/// by [`Engine::drain`].
#[derive(Clone, Debug)]
pub struct Engine {
    fleet: FleetSpec,
    scheduler: Scheduler,
    executor: MultiCuZc,
    caps: BackendCaps,
    calibration: CostCalibration,
    cache: ResultCache,
    pending: Vec<(JobTicket, AssessRequest)>,
    next_ticket: u64,
}

impl Engine {
    /// Open a session on a fleet: validate it, build its executor, and
    /// run the calibration probe (one small deterministic assessment).
    pub fn new(fleet: FleetSpec) -> Result<Engine, EngineError> {
        fleet.validate().map_err(EngineError::BadFleet)?;
        let calibration = CostCalibration::probe(&fleet, &AssessConfig::default());
        let executor = fleet.executor();
        Ok(Engine {
            executor,
            scheduler: Scheduler::default(),
            caps: BackendCaps::v100(),
            calibration,
            cache: ResultCache::new(DEFAULT_CACHE_ENTRIES),
            pending: Vec::new(),
            next_ticket: 0,
            fleet,
        })
    }

    /// Replace the job-placement policy (default: the fleet scheduler's
    /// default).
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replace the result-cache capacity (0 disables caching).
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache = ResultCache::new(entries);
        self
    }

    /// The fitted cost calibration.
    pub fn calibration(&self) -> CostCalibration {
        self.calibration
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Requests submitted but not yet drained.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Calibrated predicted seconds for a request — what `zc-serve` prices
    /// admission and backpressure with.
    pub fn estimate_seconds(&self, req: &AssessRequest) -> f64 {
        let plan = AssessPlan::lower(&req.cfg);
        let link = self.fleet.link.model(self.fleet.gpus_per_job);
        let est = estimate_job_cost(
            &plan,
            req.field.shape(),
            &req.cfg,
            self.fleet.gpus_per_job,
            &link,
        );
        self.calibration.apply(est.seconds)
    }

    /// Submit a request. Validation and admission happen *here*, not at
    /// drain time: a request whose lowered plan carries an error-severity
    /// verifier diagnostic (device-envelope overflow, malformed DAG…) is
    /// refused before it can occupy the queue.
    pub fn submit(&mut self, req: AssessRequest) -> Result<JobTicket, EngineError> {
        req.cfg
            .validate()
            .map_err(|e| EngineError::BadConfig(e.to_string()))?;
        let plan = AssessPlan::lower(&req.cfg);
        if let Some(d) = verify(&plan, req.field.shape(), &req.cfg, &self.caps)
            .iter()
            .find(|d| d.severity == zc_lint::Severity::Error)
        {
            return Err(EngineError::Admission(format!(
                "{}: {}",
                d.lint_id, d.message
            )));
        }
        let ticket = JobTicket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, req));
        Ok(ticket)
    }

    /// Execute every pending request and return the batch.
    ///
    /// Fields are generated once per distinct identity (host-parallel,
    /// index-ordered); execution is sequential in ticket order, so
    /// duplicate requests inside one batch hit the cache left by their
    /// predecessor, and results are bit-identical at any worker count.
    pub fn drain(&mut self) -> BatchReport {
        let pending = std::mem::take(&mut self.pending);
        // Generate each distinct field once, whatever the requests call it.
        type FieldId = (AppDataset, usize, usize, usize, u64, usize);
        let mut index_of: HashMap<FieldId, usize> = HashMap::new();
        let mut unique: Vec<FieldRef> = Vec::new();
        let field_of: Vec<usize> = pending
            .iter()
            .map(|(_, req)| {
                let f = &req.field;
                let id = (
                    f.dataset,
                    f.index,
                    f.opts.scale,
                    f.opts.scale_z,
                    f.opts.seed,
                    f.steps,
                );
                *index_of.entry(id).or_insert_with(|| {
                    unique.push(f.clone());
                    unique.len() - 1
                })
            })
            .collect();
        let fields = zc_par::par_map(unique.len(), |i| unique[i].generate());
        let digests = zc_par::par_map(fields.len(), |i| field_digest(&fields[i].data));

        let link = self.fleet.link.model(self.fleet.gpus_per_job);
        let mut results = Vec::with_capacity(pending.len());
        let mut records: Vec<JobRecord> = Vec::new();
        let mut costs: Vec<f64> = Vec::new();
        let mut splittable: Vec<usize> = Vec::new();
        let mut repr_cfg: Option<AssessConfig> = None;
        for (seq, (ticket, req)) in pending.into_iter().enumerate() {
            let fi = field_of[seq];
            let orig: &Tensor<f32> = &fields[fi].data;
            let key = CacheKey {
                digest: digests[fi],
                compressor: req.compressor.label(),
                cfg: CfgKey::of(&req.cfg),
            };
            let full_plan = AssessPlan::lower(&req.cfg);
            let needed: Vec<PassKind> = full_plan.passes().iter().map(|p| p.kind).collect();
            let (cache_outcome, executed_plan, run) = match self.cache.lookup(&key, &needed) {
                Lookup::Full(found) => {
                    let (report, stats) = *found;
                    let report = report.with_compression(stats);
                    let m = job::metrics_from_report(
                        &report,
                        0.0,
                        PatternTimes::default(),
                        Vec::new(),
                        None,
                        Confidence::Full,
                        0,
                    );
                    results.push(JobResult {
                        ticket,
                        cache: CacheOutcome::Hit,
                        outcome: JobOutcome::Done(Box::new(m)),
                        report: Some(report),
                    });
                    continue; // no device time: not a fleet record
                }
                Lookup::Partial { p1, covered } => {
                    let residual = AssessPlan::residual(&req.cfg, &covered);
                    let run = req
                        .compressor
                        .build()
                        .roundtrip(orig)
                        .map_err(|e| format!("codec: {e}"))
                        .and_then(|(dec, stats)| {
                            self.executor
                                .run_plan_seeded(&residual, orig, &dec, &req.cfg, p1)
                                .map(|a| (a, stats))
                                .map_err(|e| format!("assess: {e}"))
                        });
                    (CacheOutcome::Partial, residual, run)
                }
                Lookup::Miss => {
                    let run = req
                        .compressor
                        .build()
                        .roundtrip(orig)
                        .map_err(|e| format!("codec: {e}"))
                        .and_then(|(dec, stats)| {
                            self.executor
                                .run_plan(&full_plan, orig, &dec, &req.cfg)
                                .map(|a| (a, stats))
                                .map_err(|e| format!("assess: {e}"))
                        });
                    (CacheOutcome::Miss, full_plan, run)
                }
            };
            // Executed (or failed) on the device: price it for the shard
            // plan and record it for fleet accounting.
            let est = estimate_job_cost(
                &executed_plan,
                orig.shape(),
                &req.cfg,
                self.fleet.gpus_per_job,
                &link,
            );
            costs.push(self.calibration.apply(est.seconds));
            let pair_bytes = orig.shape().len() as u64 * 8;
            let planes = (orig.shape().nz() * orig.shape().nw()).max(1);
            splittable.push(resolve_slabs(req.cfg.tiling, pair_bytes, planes, None).unwrap_or(1));
            repr_cfg.get_or_insert_with(|| req.cfg.clone());
            let (outcome, report) = match run {
                Ok((a, stats)) => {
                    let merged = self.cache.absorb(key, &a.report, stats);
                    let report = merged.with_compression(stats);
                    let m = job::metrics_from_report(
                        &report,
                        a.modeled_seconds,
                        a.pattern_times,
                        a.runs,
                        a.e2e,
                        a.confidence,
                        pair_bytes,
                    );
                    (JobOutcome::Done(Box::new(m)), Some(report))
                }
                Err(msg) => (JobOutcome::Failed(msg), None),
            };
            records.push(JobRecord {
                spec: JobSpec {
                    id: records.len(),
                    field_index: fi,
                    field: req.field.clone(),
                    compressor: req.compressor,
                },
                group: 0, // placed below, once every executed job is priced
                outcome: outcome.clone(),
                attempts: 1,
            });
            results.push(JobResult {
                ticket,
                cache: cache_outcome,
                outcome,
                report,
            });
        }
        let shard = self
            .scheduler
            .plan(&costs, &splittable, self.fleet.groups());
        for (i, r) in records.iter_mut().enumerate() {
            r.group = shard.group_of(i);
        }
        let agg =
            CampaignReport::aggregate(records, &self.fleet, &repr_cfg.unwrap_or_default(), &shard);
        BatchReport {
            results,
            fleet: agg.fleet,
            cache: self.cache.stats(),
        }
    }
}

/// Execute a campaign description: the engine-side machinery behind
/// [`CampaignSpec::run_on_fleets`] (and therefore [`CampaignSpec::run`]).
///
/// The sequence is the resident engine's, specialized to one batch:
/// admission (one verifier verdict per field — jobs sharing a field share
/// a plan and a shape), host-parallel field generation, per-job isolated
/// execution, calibrated cost-model shard planning per fleet, and
/// aggregation (through the chaos replay when a fleet carries live
/// faults).
pub(crate) fn run_campaign(
    spec: &CampaignSpec,
    fleets: &[FleetSpec],
) -> Result<Vec<CampaignReport>, CampaignError> {
    spec.fleet.validate().map_err(CampaignError::BadFleet)?;
    spec.cfg
        .validate()
        .map_err(|e| CampaignError::BadConfig(e.to_string()))?;
    for fleet in fleets {
        fleet.validate().map_err(CampaignError::BadFleet)?;
        if fleet.gpus_per_job != spec.fleet.gpus_per_job {
            return Err(CampaignError::BadFleet(format!(
                "fleet sweep must share gpus_per_job (campaign: {}, fleet: {})",
                spec.fleet.gpus_per_job, fleet.gpus_per_job
            )));
        }
        if spec.fleet.gpus_per_job > 1 && fleet.link != spec.fleet.link {
            return Err(CampaignError::BadFleet(
                "ganged jobs embed the link in the job model; \
                 fleet sweep must share the link kind"
                    .into(),
            ));
        }
    }
    let jobs = spec.jobs();
    // Admission: statically verify every job's lowered plan against the
    // fleet's device envelope before any field is generated or sharded.
    // Jobs whose plan carries an error-severity diagnostic are recorded as
    // failed without running.
    let plan_ir = AssessPlan::lower(&spec.cfg);
    let caps = BackendCaps::v100();
    let admission: Vec<Option<String>> = spec
        .fields
        .iter()
        .map(|f| {
            verify(&plan_ir, f.shape(), &spec.cfg, &caps)
                .iter()
                .find(|d| d.severity == zc_lint::Severity::Error)
                .map(|d| format!("admission: {}: {}", d.lint_id, d.message))
        })
        .collect();
    // Generate each field once up front (host-parallel, index-ordered),
    // not once per compressor config.
    let fields = zc_par::par_map(spec.fields.len(), |i| spec.fields[i].generate());
    let executor = spec.fleet.executor();
    let outcomes = zc_par::par_map(jobs.len(), |i| {
        if let Some(msg) = &admission[jobs[i].field_index] {
            return JobOutcome::Failed(msg.clone());
        }
        job::run_job(
            &fields[jobs[i].field_index].data,
            &jobs[i],
            &executor,
            &spec.cfg,
            spec.progressive.as_ref(),
        )
    });
    // Calibrate the scheduler's cost model against the fleet executor: a
    // uniform scale, so placement (and every metric value) is unchanged —
    // only the predicted makespan moves toward the measured one.
    let cal = CostCalibration::probe(&spec.fleet, &spec.cfg);
    let (mut costs, splittable) = spec.job_costs();
    for c in &mut costs {
        *c = cal.apply(*c);
    }
    let mut reports = Vec::with_capacity(fleets.len());
    for fleet in fleets {
        let plan = spec.scheduler.plan(&costs, &splittable, fleet.groups());
        let records: Vec<JobRecord> = jobs
            .iter()
            .zip(&outcomes)
            .enumerate()
            .map(|(i, (jspec, outcome))| JobRecord {
                spec: jspec.clone(),
                group: plan.group_of(i),
                outcome: outcome.clone(),
                attempts: 1,
            })
            .collect();
        // A fleet carrying a live fault plan aggregates through the chaos
        // replay; a null (or absent) plan takes the original fault-free
        // path — same bits, no simulation.
        let report = match fleet.faults.as_ref().filter(|p| !p.is_null()) {
            Some(faults) => recover::aggregate_with_faults(
                records,
                fleet,
                &spec.cfg,
                &plan,
                &spec.recovery,
                faults,
            )?,
            None => CampaignReport::aggregate(records, fleet, &spec.cfg, &plan),
        };
        reports.push(report);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metric, MetricSelection};
    use zc_compress::ErrorBound;
    use zc_data::GenOptions;

    fn request(metrics: MetricSelection) -> AssessRequest {
        AssessRequest {
            field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32)),
            compressor: CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            cfg: AssessConfig {
                max_lag: 3,
                bins: 32,
                metrics,
                ..Default::default()
            },
        }
    }

    #[test]
    fn repeat_request_is_a_full_hit_with_identical_metrics() {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let t0 = engine.submit(request(MetricSelection::all())).unwrap();
        let batch0 = engine.drain();
        let t1 = engine.submit(request(MetricSelection::all())).unwrap();
        let batch1 = engine.drain();
        assert_ne!(t0, t1);
        assert_eq!(batch0.results[0].cache, CacheOutcome::Miss);
        assert_eq!(batch1.results[0].cache, CacheOutcome::Hit);
        let (m0, m1) = match (&batch0.results[0].outcome, &batch1.results[0].outcome) {
            (JobOutcome::Done(a), JobOutcome::Done(b)) => (a, b),
            _ => panic!("both jobs must complete"),
        };
        assert_eq!(m0.psnr.to_bits(), m1.psnr.to_bits());
        assert_eq!(m0.ssim.to_bits(), m1.ssim.to_bits());
        // The hit consumed no device time and read no field bytes.
        assert_eq!(m1.modeled_seconds, 0.0);
        assert_eq!(m1.assessed_bytes, 0);
        assert!(m0.assessed_bytes > 0);
        assert_eq!(batch1.fleet.makespan_s, 0.0);
    }

    #[test]
    fn duplicate_requests_in_one_batch_share_work() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain();
        assert_eq!(batch.results[0].cache, CacheOutcome::Miss);
        assert_eq!(batch.results[1].cache, CacheOutcome::Hit);
    }

    #[test]
    fn admission_refuses_invalid_config_at_submit() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        let mut req = request(MetricSelection::all());
        req.cfg.max_lag = 0;
        assert!(matches!(engine.submit(req), Err(EngineError::BadConfig(_))));
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn psnr_then_full_profile_is_a_partial_hit() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        engine
            .submit(request(MetricSelection::none().with(Metric::Psnr)))
            .unwrap();
        engine.drain();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain();
        assert_eq!(batch.results[0].cache, CacheOutcome::Partial);
        let report = batch.results[0].report.as_ref().unwrap();
        assert!(report.stencil.is_some() && report.ssim.is_some());
        assert_eq!(batch.cache.partial_hits, 1);
    }

    #[test]
    fn estimate_is_calibrated_and_positive() {
        let engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let req = request(MetricSelection::all());
        assert!(engine.estimate_seconds(&req) > 0.0);
        assert!(engine.calibration().scale > 1.0);
    }
}
