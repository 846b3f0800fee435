//! Benchmark self-tests at small scale: metric names, the `BENCHMARK.json`
//! catalogue, every workload's checks, the output pins, and the
//! sensitivity checks (a known host regression must register; the thread
//! count must not move modeled metrics).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

/// The tests spawn CPU-bound benchmark runs; one at a time keeps their
/// timings meaningful.
static SERIAL: Mutex<()> = Mutex::new(());

// ---- a minimal JSON reader (the benchmark has no dependencies) ----------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, k: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(k).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing input after JSON value");
    v
}

fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Json {
    ws(b, i);
    match b[*i] {
        b'{' => {
            *i += 1;
            let mut m = BTreeMap::new();
            loop {
                ws(b, i);
                if b[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, i) else {
                    panic!("object key must be a string")
                };
                ws(b, i);
                assert_eq!(b[*i], b':');
                *i += 1;
                let v = value(b, i);
                assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut a = Vec::new();
            loop {
                ws(b, i);
                if b[*i] == b']' {
                    *i += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, i));
                ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'"' => {
            *i += 1;
            let mut s = String::new();
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                    s.push(match b[*i] {
                        b'n' => '\n',
                        b't' => '\t',
                        c => c as char,
                    });
                } else {
                    s.push(b[*i] as char);
                }
                *i += 1;
            }
            *i += 1;
            Json::Str(s)
        }
        b't' => {
            *i += 4;
            Json::Bool(true)
        }
        b'f' => {
            *i += 5;
            Json::Bool(false)
        }
        b'n' => {
            *i += 4;
            Json::Null
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            let t = std::str::from_utf8(&b[start..*i]).unwrap();
            Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
        }
    }
}

// ---- helpers -------------------------------------------------------------

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

struct Run {
    code: i32,
    stdout: String,
    result: Json,
}

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or("").to_string();
    Run {
        code: out.status.code().unwrap_or(-1),
        result: if last.starts_with('{') {
            parse_json(&last)
        } else {
            Json::Null
        },
        stdout,
    }
}

fn workload(name: &str, profile: &str, trace: &str, seconds: &str, extra: &[&str]) -> Run {
    let mut args = vec![
        "--workload",
        name,
        "--seed",
        "7",
        "--seconds",
        seconds,
        "--trace",
        trace,
        "--profile",
        profile,
    ];
    args.extend_from_slice(extra);
    perfbench(&args, &[])
}

fn metric(r: &Run, name: &str) -> f64 {
    r.result.get("metrics").get(name).get("value").num()
}

fn digest_line(r: &Run) -> String {
    r.stdout
        .lines()
        .find_map(|l| l.strip_prefix("# output digest "))
        .and_then(|l| l.split_whitespace().next())
        .expect("every run prints its output digest")
        .to_string()
}

// ---- tests ---------------------------------------------------------------

#[test]
fn benchmark_json_lists_every_metric_with_unit_and_direction() {
    let b = benchmark_json();
    let keys: Vec<&String> = b.obj().keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["assess_pair", "campaign", "serve"]);
    let mut seen = std::collections::BTreeSet::new();
    for group in ["end_to_end", "per_layer"] {
        for m in b.get(group).arr() {
            let name = m.get("name").str();
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?} is not [A-Za-z0-9_.-]+"
            );
            assert!(seen.insert(name.to_string()), "metric {name} listed twice");
            assert!(!m.get("unit").str().is_empty());
            assert!(["higher", "lower"].contains(&m.get("better").str()));
            if group == "end_to_end" {
                let bound = m.get("bound").num();
                assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            }
        }
    }
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
}

#[test]
fn every_workload_completes_with_its_checks_passing() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let b = benchmark_json();
    for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want: Vec<(&str, &str)> = b
            .get(group)
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("unit").str()))
            .collect();
        for w in ["assess_pair", "campaign", "serve"] {
            let r = workload(w, "tiny", trace, "0.5", &[]);
            assert_eq!(r.code, 0, "{w} trace {trace} failed:\n{}", r.stdout);
            assert_eq!(r.result.get("correct"), &Json::Bool(true));
            assert!(r.result.get("attempted").num() >= 1.0);
            assert_eq!(r.result.get("failed").num(), 0.0);
            let got: Vec<(&str, &str)> = r
                .result
                .get("metrics")
                .obj()
                .iter()
                .map(|(k, v)| (k.as_str(), v.get("unit").str()))
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(got, want_sorted, "{w} trace {trace} metric set");
            for (k, v) in r.result.get("metrics").obj() {
                assert!(v.get("value").num().is_finite(), "{w} {k}");
            }
        }
    }
}

#[test]
fn a_corrupted_pin_fails_the_run() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in ["assess_pair", "campaign", "serve"] {
        let r = workload(w, "tiny", "0", "0.2", &[]);
        assert_eq!(r.code, 0);
        let digest = digest_line(&r);
        let dir = env!("CARGO_TARGET_TMPDIR");
        let good = format!("{dir}/pins-good-{w}.txt");
        let bad = format!("{dir}/pins-bad-{w}.txt");
        std::fs::write(&good, format!("{w} tiny 7 {digest}\n")).unwrap();
        let flipped = format!("{:016x}", u64::from_str_radix(&digest, 16).unwrap() ^ 1);
        std::fs::write(&bad, format!("{w} tiny 7 {flipped}\n")).unwrap();

        let ok = workload(w, "tiny", "0", "0.2", &["--pins", &good]);
        assert_eq!(ok.code, 0, "{}", ok.stdout);
        assert!(ok.stdout.contains("matches its pin"));
        let traced = workload(w, "tiny", "1", "0.2", &["--pins", &good]);
        assert_eq!(
            traced.code, 0,
            "traced run pins the same digest:\n{}",
            traced.stdout
        );

        let broken = workload(w, "tiny", "0", "0.2", &["--pins", &bad]);
        assert_ne!(broken.code, 0, "{w}: a wrong pin must fail the run");
        assert_eq!(broken.result.get("correct"), &Json::Bool(false));
    }
}

#[test]
fn the_reference_path_registers_as_an_assess_gbs_regression() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fast = workload("assess_pair", "small", "0", "2", &[]);
    let slow = workload("assess_pair", "small", "0", "2", &["--reference-path"]);
    assert_eq!(fast.code, 0, "{}", fast.stdout);
    assert_eq!(
        slow.code, 0,
        "the output check passes on the reference path"
    );
    assert_eq!(
        digest_line(&fast),
        digest_line(&slow),
        "bit-identical outputs"
    );
    let (f, s) = (metric(&fast, "assess_gbs"), metric(&slow, "assess_gbs"));
    // The reference path is about 2.9x slower; the benchmark's bound on
    // assess_gbs is far tighter than that.
    assert!(s < f / 1.5, "reference path {s} GB/s vs fast {f} GB/s");
    assert_eq!(
        metric(&fast, "modeled_ms").to_bits(),
        metric(&slow, "modeled_ms").to_bits()
    );
}

#[test]
fn one_host_thread_slows_the_campaign_and_moves_no_modeled_metric() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: needs two cores");
        return;
    }
    let args = [
        "--workload",
        "campaign",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "0",
        "--profile",
        "small",
    ];
    // Alternate the two settings and keep each one's best run: host noise
    // only ever slows a run down.
    let runs: Vec<Run> = ["1", "2", "1", "2"]
        .iter()
        .map(|t| perfbench(&args, &[("ZC_PAR_THREADS", t)]))
        .collect();
    for r in &runs {
        assert_eq!(r.code, 0, "{}", r.stdout);
        assert_eq!(digest_line(r), digest_line(&runs[0]));
    }
    let best = |k: usize| metric(&runs[k], "jobs_per_s").max(metric(&runs[k + 2], "jobs_per_s"));
    assert!(
        best(0) < best(1),
        "1 thread {} jobs/s vs 2 threads {}",
        best(0),
        best(1)
    );
    let (one, two) = (&runs[0], &runs[1]);
    for m in [
        "modeled_ms",
        "predict_err",
        "latency_p50_ms",
        "latency_p99_ms",
        "knee_rps",
        "ok_frac",
        "admitted_frac",
    ] {
        assert_eq!(metric(one, m).to_bits(), metric(two, m).to_bits(), "{m}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let r = perfbench(&["--workload", "nope", "--seed", "1"], &[]);
    assert_eq!(r.code, 2);
    assert!(r.stdout.is_empty());
}
