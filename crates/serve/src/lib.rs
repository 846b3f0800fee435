//! zc-serve — the resident assessment service over the engine core.
//!
//! Z-checker's original framing (Di et al., IJHPCA 2017) is assessment as
//! a reusable *service layer*: compressor developers and users query the
//! same fields under overlapping metric sets, repeatedly. This crate is
//! that shape, built on [`zc_core::engine`]:
//!
//! * a **request loop** ([`Server`]): requests arrive (modeled arrival
//!   times), pass admission, batch up, and drain onto the simulated fleet
//!   as one shard-scheduled batch per window;
//! * **admission control**: structural validation and static plan
//!   verification happen at [`Server::offer`] time, via the engine (a
//!   refused request never occupies the queue);
//! * **per-tenant quotas**: each tenant may hold at most a fixed number of
//!   queued requests per batch window — one chatty tenant cannot starve
//!   the rest;
//! * **backpressure**: when the fleet's modeled backlog (time still owed
//!   on previous batches plus the estimated cost of the queue) exceeds an
//!   occupancy watermark, [`Server::offer`] returns the typed
//!   [`ServeError::Saturated`] instead of queueing unboundedly;
//! * **caching for free**: the engine's content-addressed result cache
//!   turns the service's overlapping traffic into full and partial hits —
//!   the exact access pattern the cache exists for.
//!
//! Everything is deterministic: traces are seeded ([`RequestTrace`]),
//! time is modeled (no wall clock), the engine drains in ticket order, and
//! results are bit-identical at any `ZC_PAR_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome, Scheduler};
use zc_core::engine::{AssessRequest, CacheOutcome, CacheStats, Engine, EngineError, JobTicket};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The simulated fleet the service runs on.
    pub fleet: FleetSpec,
    /// Job-placement policy for each drained batch (default: the
    /// cost-model list scheduler — the service exists to batch well).
    pub scheduler: Scheduler,
    /// Queued requests per batch window; the queue drains when full.
    pub batch: usize,
    /// Max queued requests one tenant may hold per batch window.
    pub tenant_quota: usize,
    /// Modeled-backlog watermark (seconds): offers are refused with
    /// [`ServeError::Saturated`] while the backlog exceeds it.
    pub watermark_s: f64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
}

impl ServeConfig {
    /// Service defaults on a fleet: list scheduling, 8-request batches,
    /// 4 requests per tenant per window, a 0.5 s modeled-backlog
    /// watermark, 256 cache entries.
    pub fn new(fleet: FleetSpec) -> Self {
        ServeConfig {
            fleet,
            scheduler: Scheduler::List,
            batch: 8,
            tenant_quota: 4,
            watermark_s: 0.5,
            cache_entries: 256,
        }
    }
}

/// Typed service refusals. A refusal is data, not a crash: the caller
/// (or the trace loop) records it and the service keeps running.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Modeled fleet backlog exceeds the occupancy watermark; retry after
    /// the current batches drain.
    Saturated {
        /// The modeled backlog at refusal time (seconds).
        backlog_s: f64,
    },
    /// The tenant already holds its quota of queued requests this window.
    QuotaExceeded {
        /// The refused tenant.
        tenant: u32,
    },
    /// Static plan verification refused the request (device-envelope
    /// overflow or a malformed plan).
    Admission(String),
    /// The request is structurally invalid (bad assessment config).
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Saturated { backlog_s } => {
                write!(
                    f,
                    "saturated: modeled backlog {backlog_s:.3}s over watermark"
                )
            }
            ServeError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} exceeded its queued-request quota")
            }
            ServeError::Admission(m) => write!(f, "admission: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One service request: who asks, when (modeled), and what to assess.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// Requesting tenant.
    pub tenant: u32,
    /// Modeled arrival time (seconds since trace start, non-decreasing).
    pub arrival_s: f64,
    /// The assessment asked for.
    pub request: AssessRequest,
}

/// A deterministic synthetic request trace: seeded, skewed, and
/// reproducible bit-for-bit from `(seed, count)` alone.
///
/// The skew is the service's reason to exist: a small hot set of
/// (field, codec) pairs dominates, and metric selections overlap but
/// rarely coincide — so a content-addressed cache sees full hits on exact
/// repeats and partial hits when a later request widens the metric set.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The requests, in arrival order.
    pub requests: Vec<ServeRequest>,
}

/// SplitMix64 — the repo's stock deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from one SplitMix64 draw.
fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl RequestTrace {
    /// The hot field pool: small scaled catalog fields, heavily skewed
    /// (the first entries absorb most of the traffic).
    fn field_pool() -> Vec<FieldRef> {
        vec![
            FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Nyx, 2, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Hurricane, 5, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Hurricane, 9, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Miranda, 3, GenOptions::scaled(32)),
        ]
    }

    /// The codec pool (also skewed toward the first entry).
    fn codec_pool() -> Vec<CompressorSpec> {
        vec![
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::Zfp(12.0),
            CompressorSpec::Sz(ErrorBound::Abs(1e-2)),
        ]
    }

    /// The overlapping metric selections real clients ask for: a scalar
    /// screen, a scalar+SSIM check, and the full profile. Sharing one
    /// cache entry across these is the partial-hit path.
    fn metric_pool() -> Vec<MetricSelection> {
        vec![
            MetricSelection::none().with(Metric::Psnr).with(Metric::Mse),
            MetricSelection::none()
                .with(Metric::Psnr)
                .with(Metric::Ssim),
            MetricSelection::all(),
        ]
    }

    /// Draw an index in `[0, n)` with geometric-ish skew: index 0 is
    /// roughly twice as likely as index 1, and so on.
    fn skewed_index(state: &mut u64, n: usize) -> usize {
        // Geometric: P(0)=1/2, P(1)=1/4, … — index 0 is the hot one.
        let mut i = 0;
        while i + 1 < n && u01(state) < 0.5 {
            i += 1;
        }
        i
    }

    /// Generate `count` requests from `seed`: skewed field/codec/metric
    /// draws, four tenants (tenant 0 hottest), and exponential-flavored
    /// inter-arrival gaps with a mean of 2 ms of modeled time.
    pub fn synthetic(seed: u64, count: usize) -> RequestTrace {
        let fields = Self::field_pool();
        let codecs = Self::codec_pool();
        let metrics = Self::metric_pool();
        let mut state = seed ^ 0x5eed_cafe_f00d_d00d;
        let mut now = 0.0f64;
        let mut requests = Vec::with_capacity(count);
        for _ in 0..count {
            let field = fields[Self::skewed_index(&mut state, fields.len())].clone();
            let compressor = codecs[Self::skewed_index(&mut state, codecs.len())];
            let selection = metrics[Self::skewed_index(&mut state, metrics.len())].clone();
            let tenant = Self::skewed_index(&mut state, 4) as u32;
            // Inter-arrival: -ln(U) * mean, clamped away from 0 to keep
            // arrival order strict.
            let gap = (-(1.0 - u01(&mut state)).ln()).max(1e-6) * 2e-3;
            now += gap;
            requests.push(ServeRequest {
                tenant,
                arrival_s: now,
                request: AssessRequest {
                    field,
                    compressor,
                    cfg: AssessConfig {
                        max_lag: 3,
                        bins: 32,
                        metrics: selection,
                        ..Default::default()
                    },
                },
            });
        }
        RequestTrace { requests }
    }
}

/// Per-request service verdicts, in trace order.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Accepted and completed; the fields are (modeled latency seconds,
    /// cache outcome, assessed bytes, PSNR).
    Done {
        /// Modeled arrival→completion latency (seconds).
        latency_s: f64,
        /// How the result cache participated.
        cache: CacheOutcome,
        /// Field bytes this request's assessment actually read.
        assessed_bytes: u64,
        /// The job's PSNR, as exact bits (determinism checks compare it).
        psnr_bits: u64,
    },
    /// Accepted but the job failed during execution (codec/assess error).
    Failed(String),
    /// Refused at offer time.
    Refused(ServeError),
}

/// The service report for one trace run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Verdict per trace request, in trace order.
    pub verdicts: Vec<Verdict>,
    /// Completed jobs.
    pub completed: usize,
    /// Refusals by saturation backpressure.
    pub saturated: usize,
    /// Refusals by tenant quota.
    pub quota_refused: usize,
    /// Refusals by admission / bad request.
    pub admission_refused: usize,
    /// Jobs that failed during execution.
    pub failed: usize,
    /// Sustained completed jobs per modeled second (completions over the
    /// span from first arrival to last completion).
    pub jobs_per_sec: f64,
    /// Median modeled latency over completed jobs (seconds).
    pub p50_latency_s: f64,
    /// 99th-percentile modeled latency over completed jobs (seconds).
    pub p99_latency_s: f64,
    /// Total field bytes assessed (cache hits read zero).
    pub assessed_bytes: u64,
    /// Engine cache counters after the run.
    pub cache: CacheStats,
    /// Fields the session's drained batches generated, cumulative like
    /// `cache` (a batch skips fields whose every request the cache
    /// answered).
    pub fields_generated: usize,
    /// Modeled completion time of the last batch (seconds).
    pub makespan_s: f64,
}

impl ServeReport {
    /// Render the service summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<26} {:>10}\n", "serve metric", "value"));
        let rows: Vec<(&str, String)> = vec![
            ("requests", format!("{}", self.verdicts.len())),
            ("completed", format!("{}", self.completed)),
            ("failed", format!("{}", self.failed)),
            ("refused: saturated", format!("{}", self.saturated)),
            ("refused: quota", format!("{}", self.quota_refused)),
            ("refused: admission", format!("{}", self.admission_refused)),
            ("jobs/s (modeled)", format!("{:.1}", self.jobs_per_sec)),
            (
                "p50 latency (ms)",
                format!("{:.3}", self.p50_latency_s * 1e3),
            ),
            (
                "p99 latency (ms)",
                format!("{:.3}", self.p99_latency_s * 1e3),
            ),
            ("cache hit rate", format!("{:.3}", self.cache.hit_rate())),
            (
                "cache partial rate",
                format!("{:.3}", self.cache.partial_rate()),
            ),
            (
                "assessed MB",
                format!("{:.2}", self.assessed_bytes as f64 / 1e6),
            ),
            ("makespan (ms)", format!("{:.3}", self.makespan_s * 1e3)),
        ];
        for (k, v) in rows {
            out.push_str(&format!("{k:<26} {v:>10}\n"));
        }
        out
    }
}

/// Percentile by nearest-rank over a sorted slice (0 for an empty one).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The resident service: an engine session plus the request loop's
/// admission, quota, and backpressure state.
pub struct Server {
    engine: Engine,
    cfg: ServeConfig,
    /// Modeled time the fleet finishes everything drained so far.
    free_at_s: f64,
    /// Estimated seconds of the queued (undrained) requests.
    queued_est_s: f64,
    /// Queued requests per tenant this window.
    tenant_queued: Vec<usize>,
    /// (ticket, tenant, arrival) of queued requests, in ticket order.
    queued: Vec<(JobTicket, u32, f64)>,
    /// Fields generated by every batch drained so far.
    fields_generated: usize,
}

impl Server {
    /// Open the service: validates the fleet and runs the engine's
    /// calibration probe.
    pub fn new(cfg: ServeConfig) -> Result<Server, ServeError> {
        let engine = Engine::new(cfg.fleet)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?
            .with_scheduler(cfg.scheduler)
            .with_cache_entries(cfg.cache_entries);
        Ok(Server {
            engine,
            cfg,
            free_at_s: 0.0,
            queued_est_s: 0.0,
            tenant_queued: Vec::new(),
            queued: Vec::new(),
            fields_generated: 0,
        })
    }

    /// The modeled backlog at time `now_s`: seconds still owed on drained
    /// batches plus the calibrated estimate of the queue.
    pub fn backlog_s(&self, now_s: f64) -> f64 {
        (self.free_at_s - now_s).max(0.0) + self.queued_est_s
    }

    /// Offer one request to the service at its arrival time. Quota and
    /// watermark are checked before admission so a saturated service does
    /// no verification work.
    pub fn offer(&mut self, req: &ServeRequest) -> Result<JobTicket, ServeError> {
        let tenant = req.tenant as usize;
        if self.tenant_queued.len() <= tenant {
            self.tenant_queued.resize(tenant + 1, 0);
        }
        if self.tenant_queued[tenant] >= self.cfg.tenant_quota {
            return Err(ServeError::QuotaExceeded { tenant: req.tenant });
        }
        let backlog = self.backlog_s(req.arrival_s);
        if backlog > self.cfg.watermark_s {
            return Err(ServeError::Saturated { backlog_s: backlog });
        }
        let ticket = self
            .engine
            .submit(req.request.clone())
            .map_err(|e| match e {
                EngineError::Admission(m) => ServeError::Admission(m),
                EngineError::BadConfig(m) | EngineError::BadFleet(m) => ServeError::BadRequest(m),
            })?;
        self.queued_est_s += self.engine.estimate_seconds(&req.request);
        self.tenant_queued[tenant] += 1;
        self.queued.push((ticket, req.tenant, req.arrival_s));
        Ok(ticket)
    }

    /// Whether the queue has reached the batch size.
    pub fn batch_ready(&self) -> bool {
        self.queued.len() >= self.cfg.batch
    }

    /// Drain the queued batch at modeled time `now_s`. Returns
    /// (ticket, tenant, arrival, completion, result) per queued request,
    /// in ticket order; the window's quota counters reset.
    #[allow(clippy::type_complexity)]
    pub fn drain(
        &mut self,
        now_s: f64,
    ) -> Vec<(JobTicket, u32, f64, f64, zc_core::engine::JobResult)> {
        if self.queued.is_empty() {
            return Vec::new();
        }
        let start = self.free_at_s.max(now_s);
        let batch = self.engine.drain();
        self.fields_generated += batch.fields_generated;
        let completion = start + batch.fleet.makespan_s;
        self.free_at_s = completion;
        self.queued_est_s = 0.0;
        self.tenant_queued.clear();
        let queued = std::mem::take(&mut self.queued);
        queued
            .into_iter()
            .zip(batch.results)
            .map(|((ticket, tenant, arrival), result)| {
                debug_assert_eq!(ticket, result.ticket);
                (ticket, tenant, arrival, completion, result)
            })
            .collect()
    }

    /// Engine cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Run a whole trace through the loop: offer each request at its
    /// arrival time, drain whenever the batch fills, flush at the end,
    /// and fold the verdicts into a [`ServeReport`].
    pub fn run_trace(&mut self, trace: &RequestTrace) -> ServeReport {
        let n = trace.requests.len();
        let mut verdicts: Vec<Option<Verdict>> = vec![None; n];
        let mut ticket_slot: Vec<(JobTicket, usize)> = Vec::new();
        let mut latencies = Vec::new();
        let mut completed = 0usize;
        let (mut saturated, mut quota_refused, mut admission_refused, mut failed) = (0, 0, 0, 0);
        let mut assessed_bytes = 0u64;
        let mut last_completion = 0.0f64;
        let mut settle = |drained: Vec<(JobTicket, u32, f64, f64, zc_core::engine::JobResult)>,
                          ticket_slot: &mut Vec<(JobTicket, usize)>,
                          verdicts: &mut Vec<Option<Verdict>>| {
            for (ticket, _tenant, arrival, completion, result) in drained {
                let slot = ticket_slot
                    .iter()
                    .find(|(t, _)| *t == ticket)
                    .map(|(_, s)| *s)
                    .expect("every drained ticket was offered");
                last_completion = last_completion.max(completion);
                let verdict = match result.outcome {
                    JobOutcome::Done(m) => {
                        completed += 1;
                        let latency = completion - arrival;
                        latencies.push(latency);
                        assessed_bytes += m.assessed_bytes;
                        Verdict::Done {
                            latency_s: latency,
                            cache: result.cache,
                            assessed_bytes: m.assessed_bytes,
                            psnr_bits: m.psnr.to_bits(),
                        }
                    }
                    JobOutcome::Failed(msg) => {
                        failed += 1;
                        Verdict::Failed(msg)
                    }
                };
                verdicts[slot] = Some(verdict);
            }
        };
        for (i, req) in trace.requests.iter().enumerate() {
            match self.offer(req) {
                Ok(ticket) => ticket_slot.push((ticket, i)),
                Err(e) => {
                    match &e {
                        ServeError::Saturated { .. } => saturated += 1,
                        ServeError::QuotaExceeded { .. } => quota_refused += 1,
                        ServeError::Admission(_) | ServeError::BadRequest(_) => {
                            admission_refused += 1
                        }
                    }
                    verdicts[i] = Some(Verdict::Refused(e));
                    continue;
                }
            }
            if self.batch_ready() {
                let drained = self.drain(req.arrival_s);
                settle(drained, &mut ticket_slot, &mut verdicts);
            }
        }
        let end = trace.requests.last().map(|r| r.arrival_s).unwrap_or(0.0);
        let drained = self.drain(end);
        settle(drained, &mut ticket_slot, &mut verdicts);
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let first_arrival = trace.requests.first().map(|r| r.arrival_s).unwrap_or(0.0);
        let span = (last_completion - first_arrival).max(f64::EPSILON);
        ServeReport {
            verdicts: verdicts
                .into_iter()
                .map(|v| v.expect("every request got a verdict"))
                .collect(),
            completed,
            saturated,
            quota_refused,
            admission_refused,
            failed,
            jobs_per_sec: if completed > 0 {
                completed as f64 / span
            } else {
                0.0
            },
            p50_latency_s: percentile(&latencies, 0.50),
            p99_latency_s: percentile(&latencies, 0.99),
            assessed_bytes,
            cache: self.cache_stats(),
            fields_generated: self.fields_generated,
            makespan_s: last_completion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            batch: 4,
            ..ServeConfig::new(FleetSpec::nvlink(2))
        }
    }

    #[test]
    fn trace_is_deterministic_from_its_seed() {
        let a = RequestTrace::synthetic(7, 20);
        let b = RequestTrace::synthetic(7, 20);
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.arrival_s.to_bits(), y.arrival_s.to_bits());
            assert_eq!(
                x.request.field.qualified_name(),
                y.request.field.qualified_name()
            );
            assert_eq!(x.request.compressor.label(), y.request.compressor.label());
        }
        let c = RequestTrace::synthetic(8, 20);
        assert!(a
            .requests
            .iter()
            .zip(&c.requests)
            .any(|(x, y)| x.arrival_s != y.arrival_s));
    }

    #[test]
    fn trace_is_skewed_toward_a_hot_set() {
        let t = RequestTrace::synthetic(3, 200);
        let hot_name = RequestTrace::field_pool()[0].qualified_name();
        let hot = t
            .requests
            .iter()
            .filter(|r| r.request.field.qualified_name() == hot_name)
            .count();
        // Index 0 of the pool should absorb roughly half the traffic.
        assert!(hot > 60, "hot field drew only {hot}/200");
    }

    #[test]
    fn served_trace_completes_and_caches() {
        let mut server = Server::new(small_cfg()).unwrap();
        let report = server.run_trace(&RequestTrace::synthetic(11, 24));
        assert!(report.completed > 0);
        assert_eq!(
            report.completed
                + report.failed
                + report.saturated
                + report.quota_refused
                + report.admission_refused,
            24
        );
        assert_eq!(report.failed, 0);
        // The skewed trace must produce repeat traffic the cache absorbs.
        assert!(report.cache.hits + report.cache.partial_hits > 0);
        assert!(report.jobs_per_sec > 0.0);
        assert!(report.p99_latency_s >= report.p50_latency_s);
    }

    #[test]
    fn quota_refuses_the_chatty_tenant() {
        let mut server = Server::new(ServeConfig {
            tenant_quota: 1,
            batch: 100, // never auto-drains: quotas must bite first
            ..small_cfg()
        })
        .unwrap();
        let trace = RequestTrace::synthetic(5, 12);
        let mut quota_hits = 0;
        for req in &trace.requests {
            if let Err(ServeError::QuotaExceeded { .. }) = server.offer(req) {
                quota_hits += 1;
            }
        }
        assert!(quota_hits > 0, "12 skewed requests, quota 1, no refusals?");
    }

    #[test]
    fn watermark_saturates_the_service() {
        let mut server = Server::new(ServeConfig {
            watermark_s: 0.0,
            ..small_cfg()
        })
        .unwrap();
        // Drain something first so free_at > 0, then the next offer at
        // t=0 sees backlog > 0 = watermark.
        let trace = RequestTrace::synthetic(2, 6);
        let report = server.run_trace(&trace);
        assert!(
            report.saturated > 0,
            "zero watermark must shed load: {report:?}"
        );
    }
}
