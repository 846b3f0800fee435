//! `perfbench` — the repository benchmark.
//!
//! Runs one named workload from a seed in a single process, checks its
//! outputs, and prints every metric by name with its unit. The last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! perfbench --workload assess_pair|campaign|serve --seed N --seconds S --trace 0|1
//!           [--profile full|small|tiny] [--reference-path] [--pins FILE]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! replays the workload's jobs layer by layer and reports the per-layer
//! ledger instead. See `README.md` and `LAYERS.md` beside this crate.

mod assess_pair;
mod campaign;
mod ledger;
mod replay;
mod serve;
mod spec;
mod speed;
mod util;

use std::process::ExitCode;
use util::{json_num, json_str, Outcome, Rows};

/// Input size of a workload. `full` is what the benchmark measures; the
/// smaller profiles exist for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Full,
    Small,
    Tiny,
}

impl Profile {
    pub fn label(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Small => "small",
            Profile::Tiny => "tiny",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub profile: Profile,
    /// Run the cuZC kernels through their scalar reference path (same
    /// outputs, slower) — the sensitivity check's known regression.
    pub reference_path: bool,
    /// Pin table text (`pins.txt` unless `--pins` names another file).
    pub pins: String,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        profile: Profile::Full,
        reference_path: false,
        pins: util::DEFAULT_PINS.to_string(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--profile" => {
                o.profile = match val()?.as_str() {
                    "full" => Profile::Full,
                    "small" => Profile::Small,
                    "tiny" => Profile::Tiny,
                    v => return Err(format!("unknown profile {v}")),
                }
            }
            "--reference-path" => o.reference_path = true,
            "--pins" => {
                let path = val()?;
                o.pins =
                    std::fs::read_to_string(&path).map_err(|e| format!("--pins {path}: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !spec::WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            spec::WORKLOADS.join(", ")
        ));
    }
    Ok(o)
}

fn provenance(o: &Opts) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"profile\": {}, \"trace\": {}, \"cores\": {cores}, \
         \"zc_par_threads\": {}, \"zc_par_env\": {}, \"git_rev\": {}, \"rustc\": {}, \
         \"reference_path\": {}}}",
        json_str(&o.workload),
        o.seed,
        json_str(o.profile.label()),
        o.trace as u8,
        zc_par::max_threads(),
        json_str(&std::env::var("ZC_PAR_THREADS").unwrap_or_default()),
        json_str(env!("PERFBENCH_GIT_REV")),
        json_str(env!("PERFBENCH_RUSTC")),
        o.reference_path,
    )
}

/// The metric rows a run must report, in spec order; anything missing is
/// a bug in the benchmark, not a measurement.
fn ordered(rows: &Rows, trace: bool) -> Result<Vec<(String, f64, &'static str)>, String> {
    let wanted = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    wanted
        .into_iter()
        .map(|m| {
            let r = rows
                .0
                .iter()
                .find(|r| r.name == m.name)
                .ok_or(format!("metric {} was not measured", m.name))?;
            if r.unit != m.unit {
                return Err(format!(
                    "metric {} has unit {} not {}",
                    m.name, r.unit, m.unit
                ));
            }
            Ok((m.name, r.value, m.unit))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
                 [--profile full|small|tiny] [--reference-path] [--pins FILE]",
                spec::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out: Outcome = match (o.workload.as_str(), o.trace) {
        ("assess_pair", false) => assess_pair::run(&o),
        ("assess_pair", true) => assess_pair::trace(&o),
        ("campaign", false) => campaign::run(&o),
        ("campaign", true) => campaign::trace(&o),
        ("serve", false) => serve::run(&o),
        ("serve", true) => serve::trace(&o),
        _ => unreachable!("workload validated at parse time"),
    };
    let mut problems = out.problems;
    let profile = o.profile.label();
    match util::pinned(&o.pins, &o.workload, profile, o.seed) {
        Some(pin) if pin != out.digest => problems.push(format!(
            "output digest {:016x} does not match the pin {pin:016x}",
            out.digest
        )),
        Some(_) => println!("# output digest {:016x} matches its pin", out.digest),
        None => println!(
            "# output digest {:016x} (no pin for {} {profile} seed {}; in-run checks only)",
            out.digest, o.workload, o.seed
        ),
    }
    let rows = match ordered(&out.rows, o.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    for (name, v, _) in &rows {
        if !v.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    println!("# provenance {}", provenance(&o));
    for (name, v, unit) in &rows {
        println!("{name:<34} {v:>18.6} {unit}");
    }
    for p in &problems {
        println!("# CHECK FAILED: {p}");
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
