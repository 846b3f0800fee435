//! `serve`: an open-loop request trace in modeled time, replayed through
//! `zc_serve::Server` on a 4-GPU NVLink fleet at a ladder of offered rates.
//!
//! The trace is skewed like `RequestTrace::synthetic` — hot fields, codecs
//! and metric sets — but its fields are scaled catalog fields large enough
//! to cost real host time, and its 64 tenants are spread widely enough
//! that the per-window tenant quota does not set the knee. Cache hits,
//! partial residual plans, per-offer admission and batching dominate.

use crate::ledger::Ledger;
use crate::replay;
use crate::speed::HostSpeed;
use crate::util::{
    median, peak_rss_mb, quantile, repeated_setup, seeded_bins, since, splitmix64, timed, u01,
    Digest, Outcome, Rows,
};
use crate::{Opts, Profile};
use std::collections::HashMap;
use std::time::Instant;
use zc_compress::CompressorSpec;
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::{
    AssessRequest, CacheKey, CacheOutcome, CacheStats, CfgKey, CostCalibration, Lookup, ResultCache,
};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::{AssessConfig, AssessPlan, PassKind};
use zc_data::{AppDataset, GenOptions};
use zc_serve::{ServeConfig, ServeError, ServeRequest, Server};

/// Modeled latency limit on p99 for the knee (seconds).
const LATENCY_LIMIT_S: f64 = 0.005;
/// Tenants the trace spreads over.
const TENANTS: u64 = 64;
/// Every `TAIL_EVERY`-th request asks about a fresh field instance — the
/// long tail of cold traffic that keeps the fleet busy in steady state.
const TAIL_EVERY: usize = 10;
/// Leading requests (one in six) that warm the cache: served and checked,
/// but left out of the latency and knee figures.
fn warmup(requests: usize) -> usize {
    requests / 6
}

struct Shape {
    scale: usize,
    requests: usize,
    /// Offered rates (requests per modeled second), ascending.
    ladder: &'static [f64],
    /// Index of the reference rung in `ladder`.
    reference: usize,
}

fn shape(p: Profile) -> Shape {
    match p {
        Profile::Full => Shape {
            scale: 16,
            requests: 1200,
            ladder: &[8000.0, 12000.0, 16000.0, 20000.0, 24000.0],
            reference: 1,
        },
        Profile::Small => Shape {
            scale: 32,
            requests: 400,
            ladder: &[400.0, 800.0, 3200.0, 12800.0],
            reference: 1,
        },
        Profile::Tiny => Shape {
            scale: 32,
            requests: 160,
            ladder: &[400.0, 800.0, 12800.0],
            reference: 1,
        },
    }
}

/// The service every rung runs: `zc-serve` defaults on an NVLink fleet.
pub fn service_config(gpus: u32) -> ServeConfig {
    ServeConfig::new(FleetSpec::nvlink(gpus))
}

/// Geometric skew: index 0 is about twice as likely as index 1, and so on.
fn skewed(state: &mut u64, n: usize) -> usize {
    let mut i = 0;
    while i + 1 < n && u01(state) < 0.5 {
        i += 1;
    }
    i
}

/// The seeded trace at unit rate: one request per modeled second, on a
/// fixed schedule (an open loop).
fn base_trace(seed: u64, sh: &Shape) -> Vec<ServeRequest> {
    let mut st = seed ^ 0x5e7e_0000_0000_0001;
    let opts = GenOptions::scaled(sh.scale).with_seed(seed);
    // Two fixed fields per dataset, hottest first; the seed draws fresh
    // instances of them, so the host work stays the same from seed to seed.
    let fields: Vec<FieldRef> = (0..2)
        .flat_map(|k| AppDataset::ALL.map(|ds| FieldRef::new(ds, k * (ds.field_count() / 2), opts)))
        .collect();
    let codecs = CompressorSpec::standard_sweep();
    let selections = [
        MetricSelection::none().with(Metric::Psnr).with(Metric::Mse),
        MetricSelection::none()
            .with(Metric::Psnr)
            .with(Metric::Ssim),
        MetricSelection::all(),
    ];
    let bins = seeded_bins(seed);
    (0..sh.requests)
        .map(|i| {
            // Cold-tail requests follow a fixed field and metric-set rotation
            // (fresh instances each time), so every seed offers the fleet
            // the same mix of cold work at the same instants.
            let tail = i % TAIL_EVERY == TAIL_EVERY - 1;
            let field = if tail {
                let fresh = GenOptions::scaled(sh.scale).with_seed(splitmix64(&mut st));
                FieldRef::new(AppDataset::Nyx, i / TAIL_EVERY % 2 * 3, fresh)
            } else {
                fields[skewed(&mut st, fields.len())].clone()
            };
            let compressor = codecs[skewed(&mut st, codecs.len())];
            let metrics = if tail {
                selections[i / TAIL_EVERY % selections.len()].clone()
            } else {
                selections[skewed(&mut st, selections.len())].clone()
            };
            let tenant = (splitmix64(&mut st) % TENANTS) as u32;
            ServeRequest {
                tenant,
                arrival_s: (i + 1) as f64,
                request: AssessRequest {
                    field,
                    compressor,
                    cfg: AssessConfig {
                        max_lag: 3,
                        bins,
                        metrics,
                        ..Default::default()
                    },
                },
            }
        })
        .collect()
}

/// The trace offered at `rate` requests per modeled second.
fn at_rate(base: &[ServeRequest], rate: f64) -> Vec<ServeRequest> {
    base.iter()
        .map(|r| ServeRequest {
            arrival_s: r.arrival_s / rate,
            ..r.clone()
        })
        .collect()
}

/// One answered request.
pub struct Answer {
    pub cache: CacheOutcome,
    pub latency_s: f64,
    pub psnr_bits: u64,
    pub e2e: Option<zc_gpusim::EndToEnd>,
    pub runs: Vec<zc_core::exec::PatternRun>,
    pub report: Option<zc_core::report::AnalysisReport>,
}

/// One drained batch: the trace slots it answered and its modeled span.
pub struct Batch {
    pub slots: Vec<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// A whole trace served.
pub struct Served {
    /// Per trace slot: the answer, or why there was none.
    pub answers: Vec<Result<Answer, String>>,
    pub batches: Vec<Batch>,
    pub refused_quota: usize,
    pub refused_saturated: usize,
    pub refused_other: usize,
    pub failed: usize,
    /// Modeled backlog the service reports after each offer (seconds):
    /// time owed on drained batches plus its estimate of the queue.
    pub backlog: Vec<f64>,
    /// Modeled fleet time still owed on drained batches at each offer.
    pub owed: Vec<f64>,
    pub cache: CacheStats,
}

impl Served {
    pub fn completed(&self) -> usize {
        self.answers.iter().filter(|a| a.is_ok()).count()
    }

    fn refused(&self) -> usize {
        self.refused_quota + self.refused_saturated + self.refused_other
    }

    /// Digest of every verdict: slot outcome, cache outcome, latency,
    /// metric bits and charged counters.
    pub fn digest(&self, d: &mut Digest) {
        for (i, a) in self.answers.iter().enumerate() {
            d.u64(i as u64);
            match a {
                Ok(a) => {
                    d.str(a.cache.label());
                    d.f64(a.latency_s);
                    d.u64(a.psnr_bits);
                    if let Some(r) = &a.report {
                        d.report(r);
                    }
                    for run in &a.runs {
                        d.counters(&run.counters);
                    }
                }
                Err(why) => d.str(why),
            }
        }
    }
}

/// Drain the server's queue at `now` and file the answers by trace slot.
fn drain(
    server: &mut Server,
    now: f64,
    s: &mut Served,
    ledger: &mut Option<&mut Ledger>,
    slot_of: &HashMap<zc_core::engine::JobTicket, usize>,
    free_at: &mut f64,
) {
    let (drained, secs) = match ledger.as_deref_mut() {
        Some(l) => l.time("serve", || server.drain(now)),
        None => timed(|| server.drain(now)),
    };
    if drained.is_empty() {
        return;
    }
    if let Some(l) = ledger.as_deref_mut() {
        l.add("serve.drain_s", secs);
        l.add("serve.batches", 1.0);
    }
    let start = free_at.max(now);
    let mut batch = Batch {
        slots: Vec::new(),
        start_s: start,
        end_s: start,
    };
    for (ticket, _tenant, arrival, completion, result) in drained {
        let slot = slot_of[&ticket];
        batch.slots.push(slot);
        batch.end_s = completion;
        s.answers[slot] = match result.outcome {
            JobOutcome::Done(m) => Ok(Answer {
                cache: result.cache,
                latency_s: completion - arrival,
                psnr_bits: m.psnr.to_bits(),
                e2e: m.e2e,
                runs: m.runs,
                report: result.report,
            }),
            JobOutcome::Failed(msg) => {
                s.failed += 1;
                Err(format!("failed: {msg}"))
            }
        };
    }
    *free_at = batch.end_s;
    s.batches.push(batch);
}

/// Offer every request at its arrival time, drain whenever the batch
/// fills, flush at the end. With a ledger, each offer and drain is a
/// `serve` span.
pub fn replay(
    cfg: &ServeConfig,
    trace: &[ServeRequest],
    mut ledger: Option<&mut Ledger>,
) -> Served {
    let mut server = Server::new(cfg.clone()).expect("the service fleet is valid");
    let mut s = Served {
        answers: (0..trace.len())
            .map(|_| Err("not answered".into()))
            .collect(),
        batches: Vec::new(),
        refused_quota: 0,
        refused_saturated: 0,
        refused_other: 0,
        failed: 0,
        backlog: Vec::with_capacity(trace.len()),
        owed: Vec::with_capacity(trace.len()),
        cache: CacheStats::default(),
    };
    let mut slot_of = HashMap::new();
    let mut free_at = 0.0f64;
    for (i, req) in trace.iter().enumerate() {
        s.owed.push((free_at - req.arrival_s).max(0.0));
        let offered = match ledger.as_deref_mut() {
            Some(l) => {
                let (r, secs) = l.time("serve", || server.offer(req));
                l.add("serve.offer_s", secs);
                l.add("serve.offers", 1.0);
                r
            }
            None => server.offer(req),
        };
        s.backlog.push(server.backlog_s(req.arrival_s));
        match offered {
            Ok(ticket) => {
                slot_of.insert(ticket, i);
            }
            Err(e) => {
                match e {
                    ServeError::QuotaExceeded { .. } => s.refused_quota += 1,
                    ServeError::Saturated { .. } => s.refused_saturated += 1,
                    _ => s.refused_other += 1,
                }
                s.answers[i] = Err(format!("refused: {e}"));
                continue;
            }
        }
        if server.batch_ready() {
            drain(
                &mut server,
                req.arrival_s,
                &mut s,
                &mut ledger,
                &slot_of,
                &mut free_at,
            );
        }
    }
    let end = trace.last().map(|r| r.arrival_s).unwrap_or(0.0);
    drain(
        &mut server,
        end,
        &mut s,
        &mut ledger,
        &slot_of,
        &mut free_at,
    );
    s.cache = server.cache_stats();
    if let Some(l) = ledger {
        l.add("serve.refused_quota", s.refused_quota as f64);
        l.add("serve.refused_saturated", s.refused_saturated as f64);
        let max_ms = s.backlog.iter().fold(0.0f64, |a, &b| a.max(b)) * 1e3;
        l.add("serve.backlog_max_ms", max_ms);
    }
    s
}

/// A rung's knee verdict.
struct Rung {
    rate: f64,
    /// p99 modeled latency over the measured requests (seconds); refused
    /// and failed requests count as infinitely late.
    p99: f64,
    growing: bool,
}

impl Rung {
    fn passes(&self) -> bool {
        self.p99 <= LATENCY_LIMIT_S && !self.growing
    }
}

fn rung(rate: f64, s: &Served) -> Rung {
    let measured = &s.answers[warmup(s.answers.len())..];
    let lat: Vec<f64> = measured
        .iter()
        .map(|a| a.as_ref().map(|a| a.latency_s).unwrap_or(f64::INFINITY))
        .collect();
    // The backlog has grown when the last quarter of offers already finds
    // the fleet owing more than the latency limit.
    let n = s.owed.len();
    let last = &s.owed[n - n / 4..];
    let growing = last.iter().sum::<f64>() / last.len().max(1) as f64 > LATENCY_LIMIT_S;
    Rung {
        rate,
        p99: nearest_rank(&lat, 0.99),
        growing,
    }
}

/// Nearest-rank quantile; infinite entries sort last.
fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::INFINITY;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The highest offered rate meeting the limit: the last passing rung,
/// moved toward the first failing one above it by where the p99 crosses
/// the limit (log-linear in both; an infinite p99 counts as 100× the
/// limit).
fn knee(rungs: &[Rung]) -> f64 {
    let Some(k) = rungs.iter().rposition(Rung::passes) else {
        return rungs[0].rate * 0.5;
    };
    let Some(next) = rungs.get(k + 1) else {
        return rungs[k].rate;
    };
    let lo = &rungs[k];
    let cap = |p: f64| p.clamp(1e-9, 100.0 * LATENCY_LIMIT_S).ln();
    let t = if cap(next.p99) > cap(lo.p99) {
        ((LATENCY_LIMIT_S.ln() - cap(lo.p99)) / (cap(next.p99) - cap(lo.p99))).clamp(0.0, 1.0)
    } else {
        0.0
    };
    lo.rate * (next.rate / lo.rate).powf(t)
}

/// Key of a request's cached answer: field, codec and value-affecting
/// config (the engine's cache key, by name instead of by digest).
fn answer_key(r: &AssessRequest) -> String {
    format!(
        "{}#{}|{}|{:?}",
        r.field.qualified_name(),
        r.field.opts.seed,
        r.compressor.label(),
        CfgKey::of(&r.cfg)
    )
}

/// Every hit or partial hit must carry the PSNR bits of the cold answer
/// to the same key.
fn check_hits(
    trace: &[ServeRequest],
    s: &Served,
    cold: &mut HashMap<String, u64>,
    problems: &mut Vec<String>,
) {
    for (req, a) in trace.iter().zip(&s.answers) {
        let Ok(a) = a else { continue };
        let key = answer_key(&req.request);
        match (a.cache, cold.get(&key)) {
            (_, Some(&bits)) if bits != a.psnr_bits => problems.push(format!(
                "{} answer for {key} has PSNR bits {:016x}, cold answer {bits:016x}",
                a.cache.label(),
                a.psnr_bits
            )),
            (CacheOutcome::Miss, None) => {
                cold.insert(key, a.psnr_bits);
            }
            (_, None) => problems.push(format!(
                "{} answer for {key} with no cold answer before it",
                a.cache.label()
            )),
            _ => {}
        }
    }
}

/// The plan a drained request actually executed, read back from the
/// pattern runs it charged: misses run the full lowering, partial hits the
/// residual of the passes whose pattern did not run.
fn executed_plan(req: &AssessRequest, a: &Answer) -> Option<AssessPlan> {
    use zc_core::Pattern;
    let ran = |p: Pattern| a.runs.iter().any(|r| r.pattern == p);
    match a.cache {
        CacheOutcome::Hit => None,
        CacheOutcome::Miss => Some(AssessPlan::lower(&req.cfg)),
        CacheOutcome::Partial => {
            let covered: Vec<PassKind> = PassKind::ALL
                .iter()
                .copied()
                .filter(|&k| match k {
                    PassKind::P1Scalars | PassKind::CompressionMeta => true,
                    k => !ran(k.pattern()),
                })
                .collect();
            Some(AssessPlan::residual(&req.cfg, &covered))
        }
    }
}

/// Predicted and charged modeled makespans summed over the batches: the
/// prediction prices each executed job as the engine does (calibrated
/// closed-form estimate, list-scheduled onto the fleet's groups).
fn prediction(trace: &[ServeRequest], s: &Served, cfg: &ServeConfig) -> (f64, f64) {
    let cal = CostCalibration::probe(&cfg.fleet, &AssessConfig::default());
    let link = cfg.fleet.link.model(cfg.fleet.gpus_per_job);
    let (mut predicted, mut charged) = (0.0, 0.0);
    for b in &s.batches {
        let mut costs = Vec::new();
        let mut split = Vec::new();
        for &slot in &b.slots {
            let (Ok(a), req) = (&s.answers[slot], &trace[slot].request) else {
                continue;
            };
            if let Some(plan) = executed_plan(req, a) {
                let shape = req.field.shape();
                let est = zc_core::plan::estimate_job_cost(
                    &plan,
                    shape,
                    &req.cfg,
                    cfg.fleet.gpus_per_job,
                    &link,
                );
                costs.push(cal.apply(est.seconds));
                split.push(replay::splittable(&req.cfg, shape));
            }
        }
        if !costs.is_empty() {
            predicted += cfg
                .scheduler
                .plan(&costs, &split, cfg.fleet.groups())
                .predicted_makespan();
        }
        charged += b.end_s - b.start_s;
    }
    (predicted, charged)
}

/// Bytes of field pairs answered (hits included).
fn answered_bytes(trace: &[ServeRequest], s: &Served) -> f64 {
    trace
        .iter()
        .zip(&s.answers)
        .filter(|(_, a)| a.is_ok())
        .map(|(r, _)| r.request.field.shape().len() as f64 * 8.0)
        .sum()
}

pub fn run(o: &Opts) -> Outcome {
    let sh = shape(o.profile);
    let cfg = service_config(4);
    // Set-up: make the trace and open the service once (its engine runs
    // the calibration probe); every rung then opens its own fresh server.
    let mut speed = HostSpeed::default();
    let (base, setup_s) = repeated_setup(|| {
        let base = base_trace(o.seed, &sh);
        Server::new(cfg.clone()).expect("the service fleet is valid");
        base
    });
    let mut problems = Vec::new();
    let mut cold = HashMap::new();
    let t0 = Instant::now();
    let mut rungs = Vec::new();
    let mut reference: Option<(Vec<ServeRequest>, Served, u64)> = None;
    // With no refusals every rung drains the same batches, so each run is
    // a sample of the same host work.
    let mut ref_secs = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut rss = 0.0;
    for (k, &rate) in sh.ladder.iter().enumerate() {
        let trace = at_rate(&base, rate);
        let (served, secs) = timed(|| replay(&cfg, &trace, None));
        if k == 0 {
            rss = peak_rss_mb();
        }
        speed.tick();
        attempted += trace.len() as u64;
        failed += served.failed as u64;
        check_hits(&trace, &served, &mut cold, &mut problems);
        let mut d = Digest::default();
        served.digest(&mut d);
        let rung_digest = d.finish();
        rungs.push(rung(rate, &served));
        if served.refused() == 0 {
            ref_secs.push(secs);
        }
        if k == sh.reference {
            reference = Some((trace, served, rung_digest));
        }
    }
    let (ref_trace, ref_served, ref_digest) =
        reference.expect("the ladder holds its reference rung");
    while ref_secs.len() < 3 || since(t0) < o.seconds {
        let (served, secs) = timed(|| replay(&cfg, &ref_trace, None));
        speed.tick();
        attempted += ref_trace.len() as u64;
        failed += served.failed as u64;
        check_hits(&ref_trace, &served, &mut cold, &mut problems);
        let mut d = Digest::default();
        served.digest(&mut d);
        if d.finish() != ref_digest {
            problems.push("a repeat of the reference rung answered differently".into());
        }
        ref_secs.push(secs);
    }
    println!("{}", speed.describe());
    let k = speed.scale();
    let host = median(&ref_secs) * k;
    let mut lat: Vec<f64> = ref_served.answers[warmup(ref_trace.len())..]
        .iter()
        .filter_map(|a| a.as_ref().ok().map(|a| a.latency_s * 1e3))
        .collect();
    lat.sort_by(f64::total_cmp);
    if lat.len() < 1000 && o.profile == Profile::Full {
        problems.push(format!(
            "reference rung completed only {} measured requests; p99 needs 1000",
            lat.len()
        ));
    }
    let (predicted, charged) = prediction(&ref_trace, &ref_served, &cfg);
    let offered = ref_trace.len() as f64;
    let accepted = offered - ref_served.refused() as f64;
    println!(
        "# serve: {} requests/rung, reference rung {} rps, raw host {:.3} s median of {} (spread {:.3}..{:.3}), cache {:?}",
        ref_trace.len(),
        sh.ladder[sh.reference],
        median(&ref_secs),
        ref_secs.len(),
        quantile(&ref_secs, 0.25),
        quantile(&ref_secs, 0.75),
        ref_served.cache
    );
    for r in &rungs {
        println!(
            "# rung {:>8.1} rps: p99 {:.3} ms growing {} {}",
            r.rate,
            r.p99 * 1e3,
            r.growing,
            if r.passes() { "pass" } else { "fail" }
        );
    }
    let mut rows = Rows::default();
    rows.push("setup_s", setup_s * k, "s");
    rows.push("peak_rss_mb", rss, "MB");
    rows.push(
        "ok_frac",
        ref_served.completed() as f64 / accepted.max(1.0),
        "ratio",
    );
    rows.push(
        "assess_gbs",
        answered_bytes(&ref_trace, &ref_served) / host / 1e9,
        "GB/s",
    );
    rows.push("modeled_ms", charged * 1e3, "ms");
    rows.push("jobs_per_s", ref_served.completed() as f64 / host, "1/s");
    rows.push(
        "predict_err",
        ((predicted - charged) / charged).abs(),
        "ratio",
    );
    rows.push("host_rps", offered / host, "1/s");
    rows.push("latency_p50_ms", quantile(&lat, 0.50), "ms");
    rows.push("latency_p99_ms", quantile(&lat, 0.99), "ms");
    rows.push("knee_rps", knee(&rungs), "1/s");
    rows.push("admitted_frac", accepted / offered, "ratio");
    Outcome {
        rows,
        attempted,
        failed,
        digest: ref_digest,
        problems,
    }
}

/// Layer replay of drained batches, as `Engine::drain` runs them: each
/// batch generates its distinct fields once and digests them, then every
/// request is looked up in a result cache, planned, round-tripped and
/// assessed pass by pass if the cache cannot answer it, and the executed
/// jobs are list-scheduled onto the fleet's groups.
fn replay_batches(
    l: &mut Ledger,
    trace: &[ServeRequest],
    batches: &[Vec<usize>],
    fleet: &FleetSpec,
    cache_entries: usize,
) -> Result<(Vec<u64>, CacheStats), String> {
    let cal = CostCalibration::probe(fleet, &AssessConfig::default());
    let link = fleet.link.model(fleet.gpus_per_job);
    let ex = fleet.executor();
    let mut cache = ResultCache::new(cache_entries);
    let mut psnr = Vec::new();
    for batch in batches {
        let mut fields: HashMap<String, (zc_tensor::Tensor<f32>, u64)> = HashMap::new();
        for &slot in batch {
            let f = &trace[slot].request.field;
            let id = format!("{}#{}#{}", f.qualified_name(), f.opts.seed, f.opts.scale);
            if let std::collections::hash_map::Entry::Vacant(e) = fields.entry(id) {
                let t = replay::generate(l, f);
                let d = replay::digest(l, &t);
                e.insert((t, d));
            }
        }
        let mut costs = Vec::new();
        let mut split = Vec::new();
        for &slot in batch {
            let req = &trace[slot].request;
            let f = &req.field;
            let (orig, digest) =
                &fields[&format!("{}#{}#{}", f.qualified_name(), f.opts.seed, f.opts.scale)];
            let key = CacheKey {
                digest: *digest,
                compressor: req.compressor.label(),
                cfg: CfgKey::of(&req.cfg),
            };
            let needed: Vec<PassKind> = AssessPlan::lower(&req.cfg)
                .passes()
                .iter()
                .map(|p| p.kind)
                .collect();
            let (found, _) = l.time("engine.cache", || cache.lookup(&key, &needed));
            let (covered, seed) = match found {
                Lookup::Full(hit) => {
                    psnr.push(hit.0.p1.psnr_db().to_bits());
                    continue;
                }
                Lookup::Partial { p1, covered } => (Some(covered), Some(p1)),
                Lookup::Miss => (None, None),
            };
            let (plan, _, est) = replay::plan(
                l,
                &req.cfg,
                covered.as_deref(),
                orig.shape(),
                fleet.gpus_per_job,
                &link,
                cal,
            );
            costs.push(est);
            split.push(replay::splittable(&req.cfg, orig.shape()));
            let (dec, stats) = replay::roundtrip(l, &req.compressor, orig)?;
            let (p1, reports) = replay::exec_by_pass(l, &ex, &plan, &req.cfg, orig, &dec, seed)?;
            psnr.push(p1.psnr_db().to_bits());
            for r in &reports {
                l.time("engine.cache", || cache.absorb(key.clone(), r, stats));
            }
        }
        if !costs.is_empty() {
            replay::shard(l, &costs, &split, fleet.groups());
        }
    }
    Ok((psnr, cache.stats()))
}

/// Shard-layer figures of a served trace from the jobs' charged stream
/// timelines: busy shares of the fleet's group-seconds over the batches.
fn shard_figures(l: &mut Ledger, s: &Served, groups: u32) {
    let span: f64 = s.batches.iter().map(|b| b.end_s - b.start_s).sum::<f64>() * groups as f64;
    let (mut busy, mut compute, mut h2d) = (0.0, 0.0, 0.0);
    for a in s.answers.iter().flatten() {
        if let Some(e) = a.e2e {
            busy += e.overlapped_s;
            compute += e.compute_s;
            h2d += e.h2d_s;
        }
    }
    if span > 0.0 {
        l.add("campaign.shard.utilization", busy / span);
        l.add("campaign.shard.compute_busy", compute / span);
        l.add("campaign.shard.h2d_busy", h2d / span);
    }
}

/// Serve a list of requests through a fresh server with `serve` spans,
/// then move out of the serve layer's drains the inner work the layer
/// replay already attributed to other layers. Returns the answers and the
/// seconds credited.
pub fn serve_layer(
    l: &mut Ledger,
    trace: &[ServeRequest],
    cfg: &ServeConfig,
    inner_s: f64,
) -> (Served, f64) {
    let before = l.count("serve.drain_s");
    let served = replay(cfg, trace, Some(l));
    let credited = inner_s.min(l.count("serve.drain_s") - before);
    l.credit("serve", credited);
    (served, credited)
}

pub fn trace(o: &Opts) -> Outcome {
    let sh = shape(o.profile);
    let cfg = service_config(4);
    let base = base_trace(o.seed, &sh);
    let trace = at_rate(&base, sh.ladder[sh.reference]);
    let mut problems = Vec::new();
    let (untraced, untraced_s) = timed(|| replay(&cfg, &trace, None));
    let mut l = Ledger::default();
    let t0 = Instant::now();
    let served = replay(&cfg, &trace, Some(&mut l));
    let batches: Vec<Vec<usize>> = served.batches.iter().map(|b| b.slots.clone()).collect();
    let before = l.total_self();
    let (psnr, stats) =
        match replay_batches(&mut l, &trace, &batches, &cfg.fleet, cfg.cache_entries) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("layer replay: {e}"));
                (Vec::new(), CacheStats::default())
            }
        };
    let inner = l.total_self() - before;
    let drain_s = l.count("serve.drain_s");
    // The drains repeated the replayed work inside the program; count it
    // once. The replay runs fields one at a time and passes one by one, so
    // it can take longer than the drains it stands for; then the drains
    // are credited in full and serve keeps only its offer time.
    let credited = inner.min(drain_s);
    l.credit("serve", credited);
    let traced_s = since(t0) - credited;
    println!("# serve layer: replayed inner work {inner:.4} s, service drains {drain_s:.4} s");
    let answered: Vec<u64> = batches
        .iter()
        .flatten()
        .filter_map(|&slot| served.answers[slot].as_ref().ok().map(|a| a.psnr_bits))
        .collect();
    if answered != psnr {
        problems.push("the layer replay's PSNR bits differ from the service's".into());
    }
    let key = |c: &CacheStats| (c.hits, c.partial_hits, c.misses, c.evictions);
    if key(&stats) != key(&served.cache) {
        problems.push(format!(
            "the layer replay's cache saw {stats:?}, the service's {:?}",
            served.cache
        ));
    }
    replay::cache_counts(&mut l, served.cache);
    // Estimate error of the executed jobs against their charged timelines.
    let fcal = CostCalibration::probe(&cfg.fleet, &AssessConfig::default());
    let link = cfg.fleet.link.model(1);
    for (req, a) in trace.iter().zip(&served.answers) {
        let Ok(a) = a else { continue };
        if let (Some(plan), Some(e)) = (executed_plan(&req.request, a), a.e2e) {
            let est = zc_core::plan::estimate_job_cost(
                &plan,
                req.request.field.shape(),
                &req.request.cfg,
                1,
                &link,
            );
            replay::estimate_error(&mut l, fcal.apply(est.seconds), e.overlapped_s);
        }
    }
    shard_figures(&mut l, &served, cfg.fleet.groups());
    let mut d = Digest::default();
    untraced.digest(&mut d);
    let mut d2 = Digest::default();
    served.digest(&mut d2);
    let digest = d.finish();
    if d2.finish() != digest {
        problems.push("the traced service answered differently from the untraced one".into());
    }
    let mut rows = Rows::default();
    replay::layer_rows(&l, &mut rows);
    l.layer_rows(&mut rows, traced_s, untraced_s);
    replay::print_pass_classes();
    Outcome {
        rows,
        attempted: trace.len() as u64,
        failed: served.failed as u64,
        digest,
        problems,
    }
}
