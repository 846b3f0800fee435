//! Shared plumbing: metric rows, order statistics, output digests, pins,
//! peak memory and build provenance.

use std::time::Instant;
use zc_core::report::AnalysisReport;
use zc_core::{Metric, MetricSelection};
use zc_gpusim::Counters;

/// One reported metric: name, value, unit.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of reported metrics.
#[derive(Clone, Debug, Default)]
pub struct Rows(pub Vec<Row>);

impl Rows {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Row {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one workload run hands back to `main` for checking and printing.
pub struct Outcome {
    pub rows: Rows,
    /// Operations attempted (assessments, jobs or offered requests).
    pub attempted: u64,
    /// Operations that failed during execution.
    pub failed: u64,
    /// Output digest of the run's deterministic results.
    pub digest: u64,
    /// Failed output checks, one line each (empty = all passed).
    pub problems: Vec<String>,
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, since(t))
}

/// Set up at least three times, and until two seconds have passed (cheap
/// set-ups are noisy), at most 200 times; keep the last result and return
/// it with the median set-up seconds.
pub fn repeated_setup<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < 3 || (since(t0) < 2.0 && secs.len() < 200) {
        let (r, s) = timed(&mut f);
        secs.push(s);
        last = Some(r);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// FNV-1a over the bits the benchmark pins.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every charged counter field.
    pub fn counters(&mut self, c: &Counters) {
        self.str(&format!("{c:?}"));
    }

    /// Every metric value of a report as exact bits — all registry scalars
    /// (wall-clock codec throughputs excluded), the autocorrelation series,
    /// the histograms and the compressed size.
    pub fn report(&mut self, r: &AnalysisReport) {
        for m in MetricSelection::all().iter() {
            if matches!(
                m,
                Metric::CompressionThroughput | Metric::DecompressionThroughput
            ) {
                continue;
            }
            match r.scalar(m) {
                Some(v) => self.f64(v),
                None => self.u64(u64::MAX),
            }
        }
        if let Some(s) = &r.stencil {
            for &v in &s.autocorr.values {
                self.f64(v);
            }
        }
        self.str(&format!("{:?}", r.histograms));
        if let Some(c) = &r.compression {
            self.u64(c.compressed_bytes as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Pins: `<workload> <profile> <seed> <digest hex>` lines, `#` comments.
pub const DEFAULT_PINS: &str = include_str!("../pins.txt");

/// Look up the pinned digest of (workload, profile, seed).
pub fn pinned(pins: &str, workload: &str, profile: &str, seed: u64) -> Option<u64> {
    pins.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1] == profile && f[2] == seed.to_string())
                .then(|| u64::from_str_radix(f[3], 16).ok())
                .flatten()
        })
}

/// Peak resident set size of this process so far, in MB (VmHWM). The
/// workloads read it after set-up and the first repeat: later repeats only
/// add allocator retention, which varies from run to run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// SplitMix64 step — input generation from the seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
pub fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Histogram bin count drawn from the seed (256 ± 32). Bins are part of
/// every request; they move the histogram pass's charged bytes slightly,
/// so modeled times differ between seeds without changing the workload's
/// character.
pub fn seeded_bins(seed: u64) -> usize {
    let mut s = seed ^ 0xb1b5;
    224 + (splitmix64(&mut s) % 65) as usize
}

/// Render a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a metric value as a JSON number (non-finite values become 0 and
/// are flagged by the caller's checks).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
