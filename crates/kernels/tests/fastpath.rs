//! Differential properties of the SoA fast path.
//!
//! Every kernel that carries a scalar reference implementation
//! ([`zc_kernels::HasReferencePath`]) must produce **identical** outputs and
//! **identical** counter totals when launched through [`Reference`] (pattern
//! 2 shares host work across its stride launches, so its outputs agree per
//! pass and its counters per launch) — across
//! random shapes, including ragged extents not divisible by the warp width,
//! 1D/2D/3D fields, and fields containing exact zeros (the rel-error guard).

use zc_gpusim::{GpuSim, TileCharge};
use zc_kernels::mo::{MoAutocorrKernel, MoHistKernel, MoHistKind, MoP1Kernel, MoP1Metric};
use zc_kernels::p3::SsimParams;
use zc_kernels::{
    FieldPair, HasReferencePath, P1FusedKernel, P1HistKernel, P2FusedKernel, P2Stats, Reference,
    SsimFusedKernel,
};
use zc_tensor::{Shape, Tensor};

/// SplitMix64 — deterministic, no external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

/// Random field pair; roughly 1 in 12 original values is exactly zero so the
/// pointwise-relative-error guard takes both branches.
fn fields(shape: Shape, rng: &mut Rng) -> (Tensor<f32>, Tensor<f32>) {
    let n = shape.len();
    let mut orig = Vec::with_capacity(n);
    let mut dec = Vec::with_capacity(n);
    for _ in 0..n {
        let x = if rng.next().is_multiple_of(12) {
            0.0
        } else {
            rng.f32() * 2.0 - 1.0
        };
        orig.push(x);
        dec.push(x + (rng.f32() - 0.5) * 0.01);
    }
    (
        Tensor::from_vec(shape, orig).unwrap(),
        Tensor::from_vec(shape, dec).unwrap(),
    )
}

/// Random shapes exercising ragged x extents (not multiples of 32) and all
/// dimensionalities.
fn shapes(rng: &mut Rng) -> Vec<Shape> {
    vec![
        Shape::d1(rng.range(33, 150)),
        Shape::d2(rng.range(3, 70), rng.range(2, 20)),
        Shape::d3(rng.range(3, 70), rng.range(2, 20), rng.range(1, 8)),
        Shape::d3(32, rng.range(2, 20), rng.range(1, 6)), // exact warp width
        Shape::d3(rng.range(33, 100), rng.range(17, 25), rng.range(2, 6)),
    ]
}

/// Launch `k` through both lane paths and require identical outputs and
/// identical counters (the counter-equivalence invariant: batched charges
/// must sum to exactly the per-access totals).
fn assert_paths_agree<K>(k: &K, grid: usize, what: &str)
where
    K: HasReferencePath,
    K::Output: PartialEq + std::fmt::Debug,
{
    let sim = GpuSim::v100();
    let fast = sim.launch(k, grid);
    let refr = sim.launch(&Reference(k), grid);
    assert_eq!(fast.output, refr.output, "{what}: outputs diverge");
    assert_eq!(fast.counters, refr.counters, "{what}: counters diverge");
    assert_eq!(
        fast.modeled.total_s, refr.modeled.total_s,
        "{what}: modeled times diverge"
    );
}

#[test]
fn p1_fused_fast_path_matches_reference() {
    let mut rng = Rng(1);
    for round in 0..3 {
        for shape in shapes(&mut rng) {
            let (orig, dec) = fields(shape, &mut rng);
            let k = P1FusedKernel {
                fields: FieldPair::new(&orig, &dec),
            };
            assert_paths_agree(&k, k.grid(), &format!("p1 {shape:?} round {round}"));
        }
    }
}

#[test]
fn p1_fused_values_are_bit_identical() {
    let mut rng = Rng(2);
    let shape = Shape::d3(61, 19, 5);
    let (orig, dec) = fields(shape, &mut rng);
    let sim = GpuSim::v100();
    let k = P1FusedKernel {
        fields: FieldPair::new(&orig, &dec),
    };
    let fast = sim.launch(&k, k.grid()).output;
    let refr = sim.launch(&Reference(&k), k.grid()).output;
    // Spot-check bit patterns of accumulated sums (stronger than ==).
    assert_eq!(fast.sum_e2.to_bits(), refr.sum_e2.to_bits());
    assert_eq!(fast.sum_rel.to_bits(), refr.sum_rel.to_bits());
    assert_eq!(fast.sum_xy.to_bits(), refr.sum_xy.to_bits());
    assert_eq!(fast.max_abs_e.to_bits(), refr.max_abs_e.to_bits());
}

#[test]
fn p1_hist_fast_path_matches_reference() {
    let mut rng = Rng(3);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let kf = P1FusedKernel { fields: f };
        let scalars = sim.launch(&kf, kf.grid()).output;
        let k = P1HistKernel {
            fields: f,
            scalars,
            bins: 48,
        };
        let grid = k.grid();
        let fast = sim.launch(&k, grid);
        let refr = sim.launch(&Reference(&k), grid);
        assert_eq!(fast.output.err_pdf, refr.output.err_pdf, "{shape:?}");
        assert_eq!(fast.output.rel_pdf, refr.output.rel_pdf, "{shape:?}");
        assert_eq!(fast.output.value_hist, refr.output.value_hist, "{shape:?}");
        assert_eq!(fast.counters, refr.counters, "{shape:?}");
    }
}

/// Every accumulator of a [`P2Stats`] as raw bits (`==` on f64 would let
/// a signed zero or a NaN through).
fn p2_bits(s: &P2Stats) -> Vec<u64> {
    let mut bits = vec![
        s.n_interior,
        s.sum_grad_x.to_bits(),
        s.max_grad_x.to_bits(),
        s.sum_grad_y.to_bits(),
        s.max_grad_y.to_bits(),
        s.sum_grad_err2.to_bits(),
        s.sum_div_x.to_bits(),
        s.sum_div_y.to_bits(),
        s.sum_lap_x.to_bits(),
        s.sum_lap_y.to_bits(),
    ];
    bits.extend(s.ac_num.iter().map(|v| v.to_bits()));
    bits.extend(&s.ac_n);
    bits
}

fn assert_tiles_equal(a: &[TileCharge], b: &[TileCharge], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: slab counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.block_start, y.block_start, "{what}: slab {i}");
        assert_eq!(x.blocks, y.blocks, "{what}: slab {i}");
        assert_eq!(x.counters, y.counters, "{what}: slab {i} counters");
        assert_eq!(
            x.seconds.to_bits(),
            y.seconds.to_bits(),
            "{what}: slab {i} seconds"
        );
    }
}

/// Pattern 2 shares host work across a pass: the fast stride-1 launch
/// computes every lag and the other strides only charge, while the
/// reference computes each stride in its own launch. Each fast launch must
/// charge exactly what the reference launch of its stride charges, slab by
/// slab, and the pass must fold to bit-identical statistics.
#[test]
fn p2_fused_fast_path_matches_reference() {
    let mut rng = Rng(4);
    let mut cases = shapes(&mut rng);
    cases.extend([
        Shape::d4(rng.range(17, 40), rng.range(3, 14), rng.range(2, 5), 3),
        Shape::d3(rng.range(33, 70), 4, 3), // ny, nz ≤ max_lag
        Shape::d2(rng.range(20, 50), 2),
        Shape::d3(9, 9, 12), // nx, ny below the widest lag
    ]);
    let sim = GpuSim::v100();
    for shape in cases {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        // The pair's own error mean: a round constant would leave every
        // centred error with the same low bits and hide reassociation.
        let p1 = P1FusedKernel { fields: f };
        let mean_e = sim.launch(&p1, p1.grid()).output.mean_e();
        for max_lag in [1usize, 3, 10] {
            let (mut got, mut want) = (P2Stats::identity(max_lag), P2Stats::identity(max_lag));
            for k in P2FusedKernel::pass(f, mean_e, max_lag) {
                let what = format!("p2 {shape:?} max_lag {max_lag} stride {}", k.stride);
                let grid = k.grid();
                let fast = sim.launch(&k, grid);
                let refr = sim.launch(&Reference(&k), grid);
                assert_eq!(fast.counters, refr.counters, "{what}: counters diverge");
                assert_eq!(
                    fast.modeled.total_s.to_bits(),
                    refr.modeled.total_s.to_bits(),
                    "{what}: modeled times diverge"
                );
                for slabs in [1usize, 3, shape.nz()] {
                    let (_, ft) = sim.launch_tiled(&k, grid, slabs);
                    let (_, rt) = sim.launch_tiled(&Reference(&k), grid, slabs);
                    assert_tiles_equal(&ft, &rt, &format!("{what} slabs {slabs}"));
                }
                got.combine(&fast.output);
                want.combine(&refr.output);
            }
            assert_eq!(
                p2_bits(&got),
                p2_bits(&want),
                "p2 {shape:?} max_lag {max_lag}: pass statistics drifted"
            );
        }
    }
}

#[test]
fn p3_ssim_fast_path_matches_reference() {
    let mut rng = Rng(5);
    let cases = [
        (8usize, 1usize, true),
        (6, 3, true),
        (4, 2, true),
        (8, 1, false),
    ];
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for &(wsize, step, fifo) in &cases {
            let params = SsimParams {
                wsize,
                step,
                k1: 0.01,
                k2: 0.03,
                range: 2.0,
            };
            let k = SsimFusedKernel {
                fields: FieldPair::new(&orig, &dec),
                params,
                fifo_in_shared: fifo,
            };
            assert_paths_agree(
                &k,
                k.grid(),
                &format!("p3 {shape:?} w{wsize} s{step} fifo={fifo}"),
            );
        }
    }
}

#[test]
fn mo_p1_fast_path_matches_reference() {
    let mut rng = Rng(6);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for metric in MoP1Metric::SCALARS {
            let k = MoP1Kernel {
                fields: FieldPair::new(&orig, &dec),
                metric,
            };
            assert_paths_agree(&k, k.grid(), &format!("moP1 {shape:?} {metric:?}"));
        }
    }
}

#[test]
fn mo_hist_fast_path_matches_reference() {
    let mut rng = Rng(7);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let kf = P1FusedKernel { fields: f };
        let scalars = sim.launch(&kf, kf.grid()).output;
        for kind in [
            MoHistKind::ErrPdf,
            MoHistKind::PwrPdf,
            MoHistKind::ValueHist,
        ] {
            let k = MoHistKernel {
                fields: f,
                scalars,
                kind,
                bins: 32,
            };
            assert_paths_agree(&k, k.grid(), &format!("moHist {shape:?} {kind:?}"));
        }
    }
}

#[test]
fn mo_autocorr_fast_path_matches_reference() {
    let mut rng = Rng(8);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for lag in 1..=3usize {
            let k = MoAutocorrKernel {
                fields: FieldPair::new(&orig, &dec),
                lag,
                mean_e: -2.0e-4,
                max_lag: 3,
            };
            assert_paths_agree(&k, k.grid(), &format!("moAC {shape:?} lag {lag}"));
        }
    }
}
