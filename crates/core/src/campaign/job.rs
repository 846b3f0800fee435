//! Campaign jobs: one (field, compressor-config) pair, its execution, and
//! its isolated outcome.

use crate::config::AssessConfig;
use crate::exec::{Assessment, Confidence, Executor, MultiCuZc, PatternRun, PatternTimes};
use crate::metrics::Metric;
use crate::plan::AssessPlan;
use crate::recommend::ProgressivePolicy;
use zc_compress::CompressorSpec;
use zc_data::{AppDataset, Field, GenOptions};
use zc_gpusim::EndToEnd;
use zc_tensor::{Shape, Tensor};

/// A catalog field by reference: dataset + roster index + generation
/// options (+ an optional time-series extent). Cheap to clone; the data is
/// synthesized on demand, as a pure function of these fields — so equal
/// references always generate bit-identical data.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Source dataset.
    pub dataset: AppDataset,
    /// Roster index within the dataset.
    pub index: usize,
    /// Generation options (scale, seed).
    pub opts: GenOptions,
    /// Time steps along the 4th axis (1 = a single 3D snapshot; >1
    /// synthesizes an evolving series — the campaign's genuinely
    /// heterogeneous "big" jobs).
    pub steps: usize,
}

impl FieldRef {
    /// A single-snapshot field reference.
    pub fn new(dataset: AppDataset, index: usize, opts: GenOptions) -> Self {
        FieldRef {
            dataset,
            index,
            opts,
            steps: 1,
        }
    }

    /// A time-series reference: `steps` evolving snapshots stacked along
    /// the 4th axis.
    pub fn timeseries(dataset: AppDataset, index: usize, opts: GenOptions, steps: usize) -> Self {
        FieldRef {
            dataset,
            index,
            opts,
            steps: steps.max(1),
        }
    }

    /// Field name within the dataset roster.
    pub fn name(&self) -> &'static str {
        self.dataset.field_name(self.index)
    }

    /// `dataset/field` display name (e.g. `NYX/temperature`), with an
    /// `[xN]` suffix for time series.
    pub fn qualified_name(&self) -> String {
        if self.steps > 1 {
            format!("{}/{}[x{}]", self.dataset.name(), self.name(), self.steps)
        } else {
            format!("{}/{}", self.dataset.name(), self.name())
        }
    }

    /// The shape this reference will generate — available without
    /// synthesizing the data (the cost estimator prices jobs from it).
    pub fn shape(&self) -> Shape {
        let s = self.dataset.shape(&self.opts);
        if self.steps > 1 {
            Shape::new(&[s.nx(), s.ny(), s.nz(), self.steps])
                .expect("3D roster shape extends to 4D")
        } else {
            s
        }
    }

    /// Synthesize the field data.
    pub fn generate(&self) -> Field {
        if self.steps > 1 {
            self.dataset
                .generate_timeseries(self.index, self.steps, &self.opts)
        } else {
            self.dataset.generate_field(self.index, &self.opts)
        }
    }
}

/// One schedulable unit of a campaign.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Position in the campaign job list (shard key).
    pub id: usize,
    /// Index into the campaign's field list (shared field data).
    pub field_index: usize,
    /// The field under assessment.
    pub field: FieldRef,
    /// The compressor configuration under assessment.
    pub compressor: CompressorSpec,
}

/// The metric snapshot a completed job contributes to the campaign table.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Peak signal-to-noise ratio (dB).
    pub psnr: f64,
    /// Mean structural similarity.
    pub ssim: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Pearson correlation original↔decompressed.
    pub pearson: f64,
    /// Lag-1 error autocorrelation (None if pattern 2 disabled).
    pub autocorr1: Option<f64>,
    /// Compression ratio achieved by the job's codec.
    pub compression_ratio: f64,
    /// Modeled single-job assessment seconds on the job's device group.
    pub modeled_seconds: f64,
    /// Modeled per-pattern split of `modeled_seconds`.
    pub pattern_times: PatternTimes,
    /// Per-pattern execution records (feed the campaign counter merge).
    pub runs: Vec<PatternRun>,
    /// Modeled end-to-end time (transfer legs + compute) as overlapped
    /// stream makespan vs serialized sum.
    pub e2e: Option<EndToEnd>,
    /// Whether the metrics come from a full-field assessment or a
    /// progressive subsample prepass that early-exited.
    pub confidence: Confidence,
    /// Bytes of field data the assessment actually read (per input field;
    /// a full job reads 8·len, a pruned one only its subsample).
    pub assessed_bytes: u64,
}

/// What happened to a job. Failures are data, not control flow: one failed
/// codec round-trip or assessment must never abort the campaign.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job completed and produced metrics.
    Done(Box<JobMetrics>),
    /// The job failed; the message records which stage and why.
    Failed(String),
}

/// A job plus its shard assignment and outcome.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job that ran.
    pub spec: JobSpec,
    /// Device-group index the job was assigned to.
    pub group: u32,
    /// Result.
    pub outcome: JobOutcome,
    /// Execution attempts across the job's shard parts (1 on a fault-free
    /// fleet; retries after injected device faults raise it).
    pub attempts: u32,
}

impl JobRecord {
    /// The metrics, if the job completed.
    pub fn metrics(&self) -> Option<&JobMetrics> {
        match &self.outcome {
            JobOutcome::Done(m) => Some(m),
            JobOutcome::Failed(_) => None,
        }
    }
}

/// Execute one job: codec round-trip, then lower the assessment plan and
/// run it on the group executor. Every error is captured into the outcome.
///
/// With a progressive policy, a strided-subsample prepass runs first; if
/// its estimates already decide the job's verdict far from every
/// threshold, the full assessment is skipped and the metrics are the
/// prepass estimates, marked [`Confidence::Subsampled`].
pub(crate) fn run_job(
    orig: &Tensor<f32>,
    spec: &JobSpec,
    executor: &MultiCuZc,
    cfg: &AssessConfig,
    progressive: Option<&ProgressivePolicy>,
) -> JobOutcome {
    let codec = spec.compressor.build();
    let (dec, stats) = match codec.roundtrip(orig) {
        Ok(r) => r,
        Err(e) => return JobOutcome::Failed(format!("codec: {e}")),
    };
    let pair_bytes = orig.shape().len() as u64 * 8;
    let mut prepass_run = None;
    if let Some(policy) = progressive {
        let run = match executor.prepass(orig, &dec, policy.stride) {
            Ok(r) => r,
            Err(e) => return JobOutcome::Failed(format!("prepass: {e}")),
        };
        if policy.decide(&run.estimate).is_decided() {
            let a = Assessment::from_prepass(orig.shape(), &run, cfg);
            return JobOutcome::Done(Box::new(metrics_from(
                a,
                stats,
                run.estimate.sampled_bytes(),
            )));
        }
        prepass_run = Some(run);
    }
    // Jobs submit plans, not ad-hoc metric lists: the lowered pass DAG is
    // what the device group schedules.
    let plan = AssessPlan::lower(cfg);
    let mut a = match executor.run_plan(&plan, orig, &dec, cfg) {
        Ok(a) => a,
        Err(e) => return JobOutcome::Failed(format!("assess: {e}")),
    };
    let mut assessed = pair_bytes;
    if let Some(run) = prepass_run {
        // The frontier case pays for both: the prepass charge rides on top
        // of the full assessment it failed to avoid.
        a.modeled_seconds += run.modeled_seconds;
        a.pattern_times.p1 += run.modeled_seconds;
        assessed += run.estimate.sampled_bytes();
    }
    JobOutcome::Done(Box::new(metrics_from(a, stats, assessed)))
}

/// Fold an assessment + codec stats into the campaign metric snapshot.
pub(crate) fn metrics_from(
    a: Assessment,
    stats: zc_compress::CompressionStats,
    assessed_bytes: u64,
) -> JobMetrics {
    let report = a.report.with_compression(stats);
    metrics_from_report(
        &report,
        a.modeled_seconds,
        a.pattern_times,
        a.runs,
        a.e2e,
        a.confidence,
        assessed_bytes,
    )
}

/// Fold an already-assembled report (compression stats attached) plus the
/// execution accounting into the metric snapshot. The engine calls this
/// directly when the report is a cache merge rather than one run's output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn metrics_from_report(
    report: &crate::report::AnalysisReport,
    modeled_seconds: f64,
    pattern_times: PatternTimes,
    runs: Vec<PatternRun>,
    e2e: Option<EndToEnd>,
    confidence: Confidence,
    assessed_bytes: u64,
) -> JobMetrics {
    JobMetrics {
        psnr: report.scalar(Metric::Psnr).unwrap_or(f64::NAN),
        ssim: report.scalar(Metric::Ssim).unwrap_or(f64::NAN),
        mse: report.scalar(Metric::Mse).unwrap_or(f64::NAN),
        pearson: report
            .scalar(Metric::PearsonCorrelation)
            .unwrap_or(f64::NAN),
        autocorr1: report.scalar(Metric::Autocorrelation),
        compression_ratio: report.scalar(Metric::CompressionRatio).unwrap_or(0.0),
        modeled_seconds,
        pattern_times,
        runs,
        e2e,
        confidence,
        assessed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_compress::ErrorBound;

    fn job(compressor: CompressorSpec) -> (Field, JobSpec) {
        let field = FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(32));
        let data = field.generate();
        (
            data,
            JobSpec {
                id: 0,
                field_index: 0,
                field,
                compressor,
            },
        )
    }

    #[test]
    fn successful_job_produces_metrics() {
        let (f, spec) = job(CompressorSpec::Sz(ErrorBound::Rel(1e-3)));
        let cfg = AssessConfig {
            max_lag: 3,
            bins: 32,
            ..Default::default()
        };
        let out = run_job(&f.data, &spec, &MultiCuZc::nvlink(1), &cfg, None);
        let JobOutcome::Done(m) = out else {
            panic!("job failed")
        };
        assert!(m.psnr > 30.0);
        assert!(m.compression_ratio > 1.0);
        assert!(m.modeled_seconds > 0.0);
        assert!(!m.runs.is_empty());
        assert_eq!(m.confidence, Confidence::Full);
        assert_eq!(m.assessed_bytes, f.data.shape().len() as u64 * 8);
    }

    #[test]
    fn codec_failure_is_captured_not_propagated() {
        let (f, spec) = job(CompressorSpec::FailDecode { every_nth: 1 });
        let cfg = AssessConfig::default();
        let out = run_job(&f.data, &spec, &MultiCuZc::nvlink(1), &cfg, None);
        let JobOutcome::Failed(msg) = out else {
            panic!("expected failure")
        };
        assert!(msg.contains("codec"), "{msg}");
    }

    #[test]
    fn qualified_names_are_stable() {
        let (_, spec) = job(CompressorSpec::Lossless);
        assert_eq!(spec.field.qualified_name(), "MIRANDA/density");
    }
}
