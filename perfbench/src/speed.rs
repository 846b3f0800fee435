//! Host-speed reference.
//!
//! The gated host is a few shared vCPUs whose speed drifts with its
//! neighbours' load, by up to 2x, in phases that outlast a run; a median of
//! host seconds then follows the neighbours rather than the program. So
//! every run also times a fixed set of reference kernels that only the
//! benchmark owns (std only: no change to the program moves them), between
//! the workload's repeats, once on the calling thread and once on one
//! thread per core, since the workloads mix serial and parallel phases.
//! Host seconds are reported scaled by the run's reference speed: the
//! geometric mean over the kernels and both widths of nominal seconds /
//! the run's median seconds. A slower phase of the host slows the kernels
//! too, and most of it cancels; a slower program slows only the workload.
//! `ZC_PAR_THREADS` does not change the kernels' thread count, so it still
//! shows.

use crate::util::{median, quantile, since, splitmix64, timed, Digest};
use std::time::Instant;

/// Least time between two reference samples.
const SAMPLE_EVERY_S: f64 = 0.5;

/// The kernels, each with its median seconds per sample on one thread and
/// on every core of the host the benchmark is gated on (2 vCPUs of a
/// 2.1 GHz Xeon), so scaled figures read as host figures there:
/// - `fma`: multiply-add sweeps over two L1-resident arrays (throughput);
/// - `chase`: two dependent random walks through a shared 16 MiB table
///   (memory latency);
/// - `chain`: an FNV-1a digest beside a square-root chain (core latency).
///
/// Streaming kernels over 24 and 96 MiB were tried as well and dropped:
/// over runs on that host they tracked the workloads' drift worse than
/// these three. So did the all-core widths alone, which swing more than
/// the workloads in some phases.
const KERNELS: [(&str, [f64; 2]); 3] = [
    ("fma", [0.010, 0.011]),
    ("chase", [0.012, 0.011]),
    ("chain", [0.013, 0.013]),
];

/// One thread's buffers.
struct Lane {
    x: Vec<f32>,
    y: Vec<f32>,
}

struct Buffers {
    lanes: Vec<Lane>,
    table: Vec<u32>,
}

impl Buffers {
    fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        let lanes = (0..threads)
            .map(|t| Lane {
                x: (0..2048).map(|i| (i % 7 + 1) as f32 * 0.25).collect(),
                y: vec![t as f32; 2048],
            })
            .collect();
        // A single cycle through every slot (Sattolo's shuffle).
        let mut table: Vec<u32> = (0..1u32 << 22).collect();
        let mut st = 0x5eed;
        for i in (1..table.len()).rev() {
            let j = (splitmix64(&mut st) % i as u64) as usize;
            table.swap(i, j);
        }
        Buffers { lanes, table }
    }
}

/// Run kernel `k` on the first lane in the calling thread (`wide` false),
/// or on every lane at once.
fn run(k: usize, wide: bool, buf: &mut Buffers) {
    let table = &buf.table;
    let one = move |t: usize, lane: &mut Lane| {
        std::hint::black_box(match k {
            0 => fma(lane),
            1 => chase(table, t),
            _ => chain(t),
        });
    };
    if !wide {
        return one(0, &mut buf.lanes[0]);
    }
    std::thread::scope(|sc| {
        for (t, lane) in buf.lanes.iter_mut().enumerate() {
            sc.spawn(move || one(t, lane));
        }
    });
}

fn fma(l: &mut Lane) -> f64 {
    // y converges to x / 0.001 and never nears the subnormal range.
    for _ in 0..24_576 {
        for (y, &x) in l.y.iter_mut().zip(&l.x) {
            *y = *y * 0.999 + x;
        }
    }
    l.y.iter().map(|&v| v as f64).sum()
}

fn chase(table: &[u32], t: usize) -> f64 {
    let (mut p, mut q) = (t as u32, (t + table.len() / 2) as u32);
    let mut s = 0u64;
    for _ in 0..100_000 {
        p = table[p as usize];
        q = table[q as usize];
        s += (p ^ q) as u64;
    }
    s as f64
}

fn chain(t: usize) -> f64 {
    let mut d = Digest::default();
    let mut x = t as f64;
    for i in 0..1_000_000u64 {
        x = (x * 1.000_001 + 0.5).sqrt() + 1.0;
        d.u64(i ^ x.to_bits());
    }
    d.finish() as f64
}

/// Reference samples of one run.
#[derive(Default)]
pub struct HostSpeed {
    buffers: Option<Buffers>,
    /// Per kernel: seconds on one thread, seconds on every core.
    samples: [[Vec<f64>; 2]; KERNELS.len()],
    last: Option<Instant>,
}

impl HostSpeed {
    /// Sample every kernel at both widths once when `SAMPLE_EVERY_S` has passed since the
    /// last sample. The first call allocates the buffers (about 16 MiB);
    /// call it only after the run has read its peak memory.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| since(t) < SAMPLE_EVERY_S) {
            return;
        }
        let buf = self.buffers.get_or_insert_with(Buffers::new);
        for (k, widths) in self.samples.iter_mut().enumerate() {
            for (w, s) in widths.iter_mut().enumerate() {
                s.push(timed(|| run(k, w == 1, buf)).1);
            }
        }
        self.last = Some(Instant::now());
    }

    /// Factor that turns this run's host seconds into reference-host
    /// seconds: the geometric mean over the kernels and widths of nominal
    /// / median seconds. Samples once if the run took no sample.
    pub fn scale(&mut self) -> f64 {
        if self.last.is_none() {
            self.tick();
        }
        let logs: f64 = KERNELS
            .iter()
            .zip(&self.samples)
            .flat_map(|((_, nominal), widths)| nominal.iter().zip(widths))
            .map(|(nominal, s)| (nominal / median(s)).ln())
            .sum();
        (logs / (2 * KERNELS.len()) as f64).exp()
    }

    /// One commentary line: each kernel's median at each width against its
    /// nominal seconds, and the factor.
    pub fn describe(&mut self) -> String {
        let k = self.scale();
        let per: Vec<String> = KERNELS
            .iter()
            .zip(&self.samples)
            .flat_map(|((name, nominal), widths)| {
                ["one thread", "all cores"]
                    .iter()
                    .zip(nominal.iter().zip(widths))
                    .map(move |(width, (nominal, s))| {
                        format!(
                            "{name} on {width} {:.4} s ({:.4}..{:.4}, nominal {nominal})",
                            median(s),
                            quantile(s, 0.25),
                            quantile(s, 0.75)
                        )
                    })
            })
            .collect();
        format!(
            "# host speed: {} samples; {}; host seconds scaled by {k:.4}",
            self.samples[0][0].len(),
            per.join(", ")
        )
    }
}
