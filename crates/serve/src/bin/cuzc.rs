//! `cuzc` — the cuZ-Checker command-line tool.
//!
//! Assess a raw binary scientific field against its decompressed version
//! (or compress it on the fly with the configured codec):
//!
//! ```text
//! cuzc --input data.f32 --shape 100x500x500 --decompressed data.dec.f32
//! cuzc --input data.f32 --shape 512x512x512 --config run.cfg
//! cuzc --demo                        # self-contained demo on synthetic data
//! cuzc --demo --fleet 8 --scheduler list --progressive
//!                                    # demo campaign on a simulated fleet
//! cuzc --demo --fleet 8 --chaos 42:0.05
//!                                    # same fleet under seeded device faults
//! cuzc --serve-demo --fleet 4 --requests 42:64
//!                                    # resident service on a seeded trace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use zc_compress::{
    BitGroomCompressor, Compressor, LosslessCompressor, SzCompressor, ZfpLikeCompressor,
};
use zc_core::campaign::{CampaignSpec, FieldRef, FleetSpec, RecoveryPolicy, Scheduler};
use zc_core::config::{parse, CompressorChoice, RunConfig, TilingPolicy};
use zc_core::exec::make_executor_with_device_mem;
use zc_core::io::{read_raw, write_pgm_slice, Endianness};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::output::{autocorr_csv, histogram_csv, scalars_csv};
use zc_core::plan::AssessPlan;
use zc_core::recommend::{ProgressivePolicy, QualityCriteria};
use zc_tensor::{Shape, Tensor};

struct Args {
    input: Option<PathBuf>,
    decompressed: Option<PathBuf>,
    shape: Option<Shape>,
    config: Option<PathBuf>,
    metrics: Option<String>,
    big_endian: bool,
    csv_dir: Option<PathBuf>,
    pgm: Option<PathBuf>,
    html: Option<PathBuf>,
    trace: bool,
    sanitize: bool,
    verify: bool,
    explain_plan: bool,
    device_mem: Option<u64>,
    slabs: Option<TilingPolicy>,
    demo: bool,
    fleet: Option<u32>,
    scheduler: Option<Scheduler>,
    progressive: bool,
    chaos: Option<(u64, u32)>,
    serve_demo: bool,
    requests: Option<(u64, usize)>,
}

const USAGE: &str = "usage: cuzc [options]
  --input <file>          raw binary f32 field (original)
  --shape NXxNYxNZ[xNW]   field dimensions (x fastest-varying)
  --decompressed <file>   raw binary f32 field to assess against
  --config <file>         run configuration (Z-checker ini dialect)
  --metrics <key,key,...> assess only these metrics (overrides the config
                          selection; keys as in the report, e.g. psnr,ssim)
  --big-endian            input files are big-endian
  --csv-dir <dir>         also write scalars/pdf/autocorr CSVs there
  --pgm <file>            also write a mid-depth PGM slice of the input
  --html <file>           also write an HTML dashboard report
  --trace                 print profiler-style per-pattern launch summaries
  --sanitize              run simulated kernels under the zc-sancheck
                          sanitizer (also: ZC_SANITIZE=1); exit 3 on hazards
  --verify                statically verify the lowered plan (DAG shape,
                          launch footprints, capacity, estimator honesty)
                          and lint the kernel sources, then exit without
                          assessing; exit 4 on error-severity diagnostics
  --explain-plan          print the pass DAG, per-pass footprint/traffic
                          table and resolved slab window, then exit
  --device-mem <size>     simulated device memory (bytes, or KiB/MiB/GiB
                          suffix); larger field pairs stream out-of-core
  --slabs <n|auto|mono>   slab-tiling policy (overrides the config)
  --demo                  run on built-in synthetic data (no files needed)
  --fleet <gpus>          with --demo: run a mixed-size demo campaign on a
                          simulated fleet of this many GPUs
  --scheduler <policy>    campaign job placement: round-robin (default) or
                          list (cost-model LPT with oversized-job splitting)
  --progressive           campaign prepass: early-exit jobs whose strided
                          subsample is decidable far from the thresholds
  --chaos <seed>:<rate>   with --demo --fleet: inject seeded transient
                          device faults at <rate> (a fraction, e.g. 0.05)
                          and recover with retry/backoff rescheduling;
                          exit 5 if any job is lost or the fleet dies
  --serve-demo            run the resident assessment service (engine
                          session + content-addressed cache + quotas +
                          backpressure) on a seeded synthetic trace and
                          print the serve report; --fleet sizes the
                          simulated fleet (default 4); exit 6 if the
                          saturated service completed no requests
  --requests <seed>:<count> with --serve-demo: trace seed and length
                          (default 42:32)";

fn parse_shape(s: &str) -> Result<Shape, String> {
    let dims: Result<Vec<usize>, _> = s.split('x').map(|p| p.parse::<usize>()).collect();
    let dims = dims.map_err(|_| format!("bad shape '{s}'"))?;
    Shape::new(&dims).map_err(|e| format!("bad shape '{s}': {e}"))
}

/// Parse a byte size: a plain integer, or one with a KiB/MiB/GiB suffix.
fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (num, mult) = if let Some(p) = t.strip_suffix("GiB") {
        (p, 1u64 << 30)
    } else if let Some(p) = t.strip_suffix("MiB") {
        (p, 1 << 20)
    } else if let Some(p) = t.strip_suffix("KiB") {
        (p, 1 << 10)
    } else {
        (t, 1)
    };
    num.trim()
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("bad size '{s}' (bytes, or KiB/MiB/GiB suffix)"))
}

/// Parse a `--chaos` spec: `<seed>:<rate>` where the rate is a fault
/// probability per attempt as a fraction in `[0, 1]` (`0.05` = 5%).
fn parse_chaos(s: &str) -> Result<(u64, u32), String> {
    let bad = || format!("bad chaos spec '{s}' (expected <seed>:<rate>, e.g. 42:0.05)");
    let (seed, rate) = s.split_once(':').ok_or_else(bad)?;
    let seed = seed.trim().parse::<u64>().map_err(|_| bad())?;
    let rate = rate.trim().parse::<f64>().map_err(|_| bad())?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "chaos rate {rate} out of range (fraction in [0, 1])"
        ));
    }
    Ok((seed, (rate * 1000.0).round() as u32))
}

/// Parse a `--requests` spec: `<seed>:<count>` for the serve-demo trace.
fn parse_requests(s: &str) -> Result<(u64, usize), String> {
    let bad = || format!("bad requests spec '{s}' (expected <seed>:<count>, e.g. 42:64)");
    let (seed, count) = s.split_once(':').ok_or_else(bad)?;
    let seed = seed.trim().parse::<u64>().map_err(|_| bad())?;
    let count = count
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&c| c > 0)
        .ok_or_else(bad)?;
    Ok((seed, count))
}

/// Parse a `--slabs` policy: `auto`, `mono[lithic]`, or a slab count.
fn parse_slabs(s: &str) -> Result<TilingPolicy, String> {
    match s {
        "auto" => Ok(TilingPolicy::Auto),
        "mono" | "monolithic" => Ok(TilingPolicy::Monolithic),
        n => match n.parse::<usize>() {
            Ok(v) if v > 0 => Ok(TilingPolicy::Slabs(v)),
            _ => Err(format!("bad slab policy '{s}' (n, auto, or mono)")),
        },
    }
}

/// Parse a `--metrics` list of comma-separated [`Metric::key`] names into a
/// selection. An unknown key lists every valid key in the error.
fn parse_metrics(spec: &str) -> Result<MetricSelection, String> {
    let mut sel = MetricSelection::none();
    for key in spec.split(',').map(str::trim).filter(|k| !k.is_empty()) {
        match Metric::from_key(key) {
            Some(m) => sel = sel.with(m),
            None => {
                let known: Vec<&str> = Metric::ALL.iter().map(|m| m.key()).collect();
                return Err(format!(
                    "unknown metric '{key}' (known: {})",
                    known.join(", ")
                ));
            }
        }
    }
    if sel.is_empty() {
        return Err("--metrics needs at least one metric key".to_string());
    }
    Ok(sel)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        decompressed: None,
        shape: None,
        config: None,
        metrics: None,
        big_endian: false,
        csv_dir: None,
        pgm: None,
        html: None,
        trace: false,
        sanitize: false,
        verify: false,
        explain_plan: false,
        device_mem: None,
        slabs: None,
        demo: false,
        fleet: None,
        scheduler: None,
        progressive: false,
        chaos: None,
        serve_demo: false,
        requests: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--input" => args.input = Some(PathBuf::from(val()?)),
            "--decompressed" => args.decompressed = Some(PathBuf::from(val()?)),
            "--shape" => args.shape = Some(parse_shape(&val()?)?),
            "--config" => args.config = Some(PathBuf::from(val()?)),
            "--metrics" => args.metrics = Some(val()?),
            "--big-endian" => args.big_endian = true,
            "--csv-dir" => args.csv_dir = Some(PathBuf::from(val()?)),
            "--pgm" => args.pgm = Some(PathBuf::from(val()?)),
            "--html" => args.html = Some(PathBuf::from(val()?)),
            "--trace" => args.trace = true,
            "--sanitize" => args.sanitize = true,
            "--verify" => args.verify = true,
            "--explain-plan" => args.explain_plan = true,
            "--device-mem" => args.device_mem = Some(parse_size(&val()?)?),
            "--slabs" => args.slabs = Some(parse_slabs(&val()?)?),
            "--demo" => args.demo = true,
            "--fleet" => {
                let v = val()?;
                args.fleet = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&g| g > 0)
                        .ok_or_else(|| format!("bad fleet size '{v}' (positive GPU count)"))?,
                );
            }
            "--scheduler" => args.scheduler = Some(Scheduler::parse(&val()?)?),
            "--progressive" => args.progressive = true,
            "--chaos" => args.chaos = Some(parse_chaos(&val()?)?),
            "--serve-demo" => args.serve_demo = true,
            "--requests" => args.requests = Some(parse_requests(&val()?)?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn load_config(args: &Args) -> Result<RunConfig, String> {
    match &args.config {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        }
        None => Ok(RunConfig {
            assess: zc_core::AssessConfig::default(),
            executor: zc_core::ExecutorKind::CuZc,
            compressor: Some(CompressorChoice::Sz(zc_compress::ErrorBound::Rel(1e-3))),
        }),
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let mut run = load_config(&args)?;
    if let Some(spec) = &args.metrics {
        run.assess.metrics = parse_metrics(spec)?;
    }
    if let Some(policy) = args.slabs {
        run.assess.tiling = policy;
    }
    let endian = if args.big_endian {
        Endianness::Big
    } else {
        Endianness::Little
    };
    if args.sanitize {
        // ZC_SANITIZE=1 enables the same mode without the flag.
        zc_gpusim::sanitizer::set_enabled(true);
    }
    if args.serve_demo {
        return run_serve_demo(&args);
    }
    if args.requests.is_some() {
        return Err(format!(
            "--requests drives the serve demo; add --serve-demo\n{USAGE}"
        ));
    }
    if let Some(gpus) = args.fleet {
        if !args.demo {
            return Err(format!(
                "--fleet runs the built-in demo campaign; add --demo\n{USAGE}"
            ));
        }
        return run_demo_campaign(gpus, &args, &run);
    }
    if args.chaos.is_some() {
        return Err(format!(
            "--chaos injects faults into the demo fleet; add --demo --fleet <gpus>\n{USAGE}"
        ));
    }

    // Acquire the original field.
    let orig: Tensor<f32> = if args.demo {
        use zc_data::{AppDataset, GenOptions};
        let f = AppDataset::Miranda.generate_field(0, &GenOptions::scaled(8));
        eprintln!(
            "demo: synthetic MIRANDA {} field {}",
            f.name,
            f.data.shape()
        );
        f.data
    } else {
        let input = args
            .input
            .as_ref()
            .ok_or_else(|| format!("--input required\n{USAGE}"))?;
        let shape = args
            .shape
            .ok_or_else(|| format!("--shape required\n{USAGE}"))?;
        read_raw(input, shape, endian).map_err(|e| format!("{}: {e}", input.display()))?
    };

    // Static-analysis modes: --verify / --explain-plan work from the
    // lowered plan and the original field's shape alone — no decompressed
    // field is acquired and nothing executes.
    if args.verify || args.explain_plan {
        return run_static_analysis(&args, &run, orig.shape());
    }

    // Acquire the decompressed field (from disk, or via the configured
    // compressor).
    let (dec, comp_stats) = match &args.decompressed {
        Some(path) => {
            let t = read_raw(path, orig.shape(), endian)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            (t, None)
        }
        None => {
            let choice = run.compressor.ok_or_else(|| {
                "no --decompressed file and no [compressor] in config".to_string()
            })?;
            let (t, stats) = match choice {
                CompressorChoice::Sz(bound) => SzCompressor::new(bound)
                    .roundtrip(&orig)
                    .map_err(|e| format!("sz: {e}"))?,
                CompressorChoice::Zfp(rate) => ZfpLikeCompressor::new(rate)
                    .roundtrip(&orig)
                    .map_err(|e| format!("zfp: {e}"))?,
                CompressorChoice::BitGroom(keep) => BitGroomCompressor::new(keep)
                    .roundtrip(&orig)
                    .map_err(|e| format!("bitgroom: {e}"))?,
                CompressorChoice::Lossless => LosslessCompressor::new()
                    .roundtrip(&orig)
                    .map_err(|e| format!("lossless: {e}"))?,
            };
            eprintln!(
                "compressed with {:?}: ratio {:.2}x ({:.3} bits/value)",
                choice,
                stats.ratio(),
                stats.bit_rate(4)
            );
            (t, Some(stats))
        }
    };

    // Assess: lower the metric selection to a pass plan, run it.
    let executor = make_executor_with_device_mem(run.executor, args.device_mem);
    // Echo the slab schedule a device run will use (out-of-core fields
    // stream; a Capacity error surfaces below with the same numbers).
    let capacity = match run.executor {
        zc_core::ExecutorKind::CuZc | zc_core::ExecutorKind::MoZc => Some(
            args.device_mem
                .unwrap_or_else(|| zc_gpusim::GpuSim::v100().dev.mem_bytes),
        ),
        _ => None,
    };
    if let Some(cap) = capacity {
        let pair = orig.shape().len() as u64 * 4 * 2;
        let planes = (orig.shape().nz() * orig.shape().nw()).max(1);
        if let Ok(slabs) = zc_core::plan::resolve_slabs(run.assess.tiling, pair, planes, Some(cap))
        {
            eprintln!(
                "tiling: {slabs} slab(s) for a {pair}-byte pair on a {cap}-byte device{}",
                if pair > cap { " (out-of-core)" } else { "" }
            );
        }
    }
    let plan = AssessPlan::lower(&run.assess);
    let mut a = executor
        .run_plan(&plan, &orig, &dec, &run.assess)
        .map_err(|e| format!("assessment failed: {e}"))?;
    if let Some(stats) = comp_stats {
        a.report = a.report.with_compression(stats);
    }

    // Report.
    println!("cuZ-Checker ({} executor)", executor.name());
    print!("{}", a.report.render(&run.assess.metrics));
    if a.modeled_seconds > 0.0 {
        println!(
            "modeled platform time: {:.4} ms (p1 {:.3e}s, p2 {:.3e}s, p3 {:.3e}s)",
            a.modeled_seconds * 1e3,
            a.pattern_times.p1,
            a.pattern_times.p2,
            a.pattern_times.p3
        );
    }
    if let Some(e2e) = &a.e2e {
        println!(
            "modeled end-to-end: {:.4} ms overlapped / {:.4} ms serialized (h2d {:.3e}s, d2h {:.3e}s)",
            e2e.overlapped_s * 1e3,
            e2e.serialized_s * 1e3,
            e2e.h2d_s,
            e2e.d2h_s
        );
    }
    for p in &a.profiles {
        println!(
            "profile {:?}: Regs/TB={} SMem/TB={}B Iters/thread={} concTB/SM={}",
            p.pattern, p.regs_per_tb, p.smem_per_tb, p.iters_per_thread, p.blocks_per_sm
        );
    }
    if args.trace {
        use zc_gpusim::cost::gpu_time;
        use zc_gpusim::{launch_summary, occupancy, GpuSim};
        let sim = GpuSim::v100();
        println!();
        for run in &a.runs {
            if let Some(res) = run.resources {
                let occ = occupancy(&sim.dev, &res);
                let t = gpu_time(
                    &sim.dev,
                    &sim.calib,
                    &run.counters,
                    &occ,
                    run.grid_blocks.max(1),
                    run.class,
                );
                print!(
                    "{}",
                    launch_summary(
                        &format!("{:?}", run.pattern),
                        run.grid_blocks,
                        &run.counters,
                        &occ,
                        &t
                    )
                );
            }
        }
    }

    // Optional artifacts.
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let w = |name: &str, text: String| -> Result<(), String> {
            let p = dir.join(name);
            std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
            eprintln!("wrote {}", p.display());
            Ok(())
        };
        w("scalars.csv", scalars_csv(&a, &run.assess.metrics))?;
        if let Some(h) = &a.report.histograms {
            w("err_pdf.csv", histogram_csv(&h.err_pdf))?;
            w("pwr_err_pdf.csv", histogram_csv(&h.rel_pdf))?;
            w("value_hist.csv", histogram_csv(&h.value_hist))?;
        }
        if let Some(st) = &a.report.stencil {
            w("autocorr.csv", autocorr_csv(&st.autocorr.values))?;
        }
    }
    if let Some(html) = &args.html {
        let doc = zc_core::viz::html_report("cuZ-Checker report", &a, &run.assess.metrics);
        std::fs::write(html, doc).map_err(|e| format!("{}: {e}", html.display()))?;
        eprintln!("wrote {}", html.display());
    }
    if let Some(pgm) = &args.pgm {
        let z = orig.shape().nz() / 2;
        write_pgm_slice(pgm, &orig, z).map_err(|e| format!("{}: {e}", pgm.display()))?;
        eprintln!("wrote {} (slice z={z})", pgm.display());
    }

    sanitizer_verdict()
}

/// The `--verify` / `--explain-plan` modes: lower the plan, print its
/// static footprint (explain), run the plan verifier plus the kernel
/// lints (verify), and exit without assessing. Error-severity diagnostics
/// exit 4 — distinct from usage errors (2) and sanitizer hazards (3).
fn run_static_analysis(args: &Args, run: &RunConfig, shape: Shape) -> Result<ExitCode, String> {
    use zc_core::plan::{footprint, verify, BackendCaps};
    let plan = AssessPlan::lower(&run.assess);
    let caps = BackendCaps::for_kind(run.executor, args.device_mem);

    if args.explain_plan {
        let fp = footprint(&plan, shape, &run.assess, &caps);
        println!("assessment plan for {shape} ({:?} executor)", run.executor);
        for p in &fp.passes {
            let deps = if p.deps.is_empty() {
                "-".to_string()
            } else {
                p.deps
                    .iter()
                    .map(|d| format!("{d:?}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let (smem, regs, threads) = match &p.resources {
                Some(r) => (
                    format!("{}", r.smem_per_block),
                    format!("{}", r.regs_per_block()),
                    format!("{}", r.threads_per_block),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            println!(
                "  {:15} deps={:10} {}smem/TB={smem}B regs/TB={regs} threads/TB={threads} \
                 est {:.2e} B / {:.2e} flops / {} launch(es)",
                format!("{:?}", p.kind),
                deps,
                if p.auxiliary { "auxiliary " } else { "" },
                p.est_bytes,
                p.est_flops,
                p.est_launches
            );
        }
        match &fp.slabs {
            Ok(slabs) => {
                print!(
                    "  slab window: {} slab(s) over {} plane(s), pair {} B",
                    slabs, fp.planes, fp.pair_bytes
                );
                match fp.resident_bytes {
                    Some(r) => println!(", resident window {r} B"),
                    None => println!(" (host-resident)"),
                }
            }
            Err(e) => println!("  slab window: unresolvable — {e}"),
        }
        if !args.verify {
            return Ok(ExitCode::SUCCESS);
        }
    }

    let mut diags = verify(&plan, shape, &run.assess, &caps);
    match zc_lint::find_kernels_src() {
        Some(src) => {
            eprintln!("verify: linting kernel sources in {}", src.display());
            diags.extend(zc_lint::lint_dir(&src).map_err(|e| format!("{}: {e}", src.display()))?);
        }
        None => eprintln!("verify: kernel sources not found — plan checks only"),
    }
    print!("{}", zc_lint::render_table(&diags));
    Ok(if zc_lint::error_count(&diags) > 0 {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    })
}

/// Drain the sanitizer sink and fail loudly on hazards (exit 3); a no-op
/// success when the sanitizer is off.
fn sanitizer_verdict() -> Result<ExitCode, String> {
    if zc_gpusim::sanitizer::enabled() {
        let s = zc_gpusim::sanitizer::drain();
        for r in &s.reports {
            eprint!("{}", r.render());
        }
        if s.dropped_reports > 0 {
            eprintln!(
                "========= {} hazardous report(s) beyond the sink cap",
                s.dropped_reports
            );
        }
        eprintln!(
            "========= ZC SANITIZER: {} launch(es) checked, {} hazard(s)",
            s.launches_checked, s.hazards
        );
        if !s.is_clean() {
            return Ok(ExitCode::from(3));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--demo --fleet N` mode: a mixed-size campaign over the built-in
/// catalog — a multi-step time series next to snapshots a fraction of its
/// size — sharded by the selected scheduler over a simulated NVLink fleet.
fn run_demo_campaign(gpus: u32, args: &Args, run: &RunConfig) -> Result<ExitCode, String> {
    use zc_compress::{CompressorSpec, ErrorBound};
    use zc_data::{AppDataset, GenOptions};
    let scheduler = args.scheduler.unwrap_or_default();
    let mut fleet = FleetSpec::nvlink(gpus);
    if let Some((seed, rate_permille)) = args.chaos {
        fleet = fleet.with_faults(zc_gpusim::FaultPlan::chaos(seed, rate_permille));
    }
    let spec = CampaignSpec {
        fields: vec![
            FieldRef::timeseries(AppDataset::Hurricane, 9, GenOptions::scaled(16), 4),
            FieldRef::new(AppDataset::Nyx, 2, GenOptions::scaled(16)),
            FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(16)),
            FieldRef::new(AppDataset::Hurricane, 5, GenOptions::scaled(16)),
        ],
        compressors: vec![
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::Zfp(12.0),
        ],
        cfg: zc_core::AssessConfig {
            max_lag: 3,
            bins: 32,
            tiling: run.assess.tiling,
            ..Default::default()
        },
        fleet,
        scheduler,
        // The demo bar sits far below SZ-1e-3 / ZFP-12 quality, so every
        // job's prepass is decidable and the campaign shows the prune.
        progressive: args.progressive.then(|| {
            ProgressivePolicy::new(QualityCriteria {
                min_psnr_db: Some(40.0),
                ..Default::default()
            })
        }),
        recovery: RecoveryPolicy::default(),
    };
    eprintln!(
        "demo campaign: {} jobs on {gpus} simulated GPUs ({} scheduler{}{})",
        spec.fields.len() * spec.compressors.len(),
        scheduler.label(),
        if args.progressive {
            ", progressive prepass"
        } else {
            ""
        },
        match args.chaos {
            Some((seed, rate)) => format!(", chaos seed {seed} @ {rate}\u{2030}"),
            None => String::new(),
        }
    );
    let report = match spec.run() {
        Ok(r) => r,
        // A fully dead fleet is a chaos verdict (exit 5), not a usage or
        // internal error: the campaign engine did its job and reported
        // that no recovery was possible.
        Err(e @ zc_core::campaign::CampaignError::AllDevicesDead { .. }) => {
            eprintln!("campaign failed: {e}");
            return Ok(ExitCode::from(5));
        }
        Err(e) => return Err(format!("campaign failed: {e}")),
    };
    print!("{}", report.render_table());
    let verdict = sanitizer_verdict()?;
    if verdict != ExitCode::SUCCESS {
        return Ok(verdict);
    }
    // Chaos verdict: a campaign that lost jobs to fault-retry exhaustion
    // completed degraded — surface it as exit 5 so CI can gate on it.
    if let Some(rec) = &report.recovery {
        if rec.completion < 1.0 {
            eprintln!(
                "chaos: {} job(s) lost after retry exhaustion (completion {:.1}%)",
                rec.lost_jobs,
                rec.completion * 100.0
            );
            return Ok(ExitCode::from(5));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The `--serve-demo` mode: open a resident service session on a
/// simulated fleet, replay a seeded synthetic request trace through the
/// offer/batch/drain loop, and print the serve report. Exit 6 when a
/// saturated service completed nothing — distinct from usage (2),
/// sanitizer (3), verify (4) and chaos (5) verdicts.
fn run_serve_demo(args: &Args) -> Result<ExitCode, String> {
    use zc_serve::{RequestTrace, ServeConfig, Server};
    let gpus = args.fleet.unwrap_or(4);
    let (seed, count) = args.requests.unwrap_or((42, 32));
    let mut cfg = ServeConfig::new(FleetSpec::nvlink(gpus));
    // The service batches through the cost-model list scheduler by
    // default; --scheduler overrides it.
    if let Some(s) = args.scheduler {
        cfg.scheduler = s;
    }
    eprintln!(
        "serve demo: {count} requests (seed {seed}) on {gpus} simulated GPUs \
         ({} scheduler, batch {}, quota {}/tenant, watermark {:.2}s)",
        cfg.scheduler.label(),
        cfg.batch,
        cfg.tenant_quota,
        cfg.watermark_s
    );
    let mut server = Server::new(cfg).map_err(|e| format!("serve: {e}"))?;
    let trace = RequestTrace::synthetic(seed, count);
    let report = server.run_trace(&trace);
    print!("{}", report.render_table());
    println!(
        "fields generated {} for {} requests",
        report.fields_generated,
        report.completed + report.failed
    );
    let verdict = sanitizer_verdict()?;
    if verdict != ExitCode::SUCCESS {
        return Ok(verdict);
    }
    if report.completed == 0 {
        eprintln!("serve: saturated — no requests completed");
        return Ok(ExitCode::from(6));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
