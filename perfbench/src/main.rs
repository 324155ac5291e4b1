//! End-to-end benchmark of BClean's one-shot, out-of-core and serving
//! paths. See `perfbench/README.md` for the workloads, metrics and checks.
//!
//! ```text
//! bclean-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a per-step operation table and the metrics, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `inputs <workload> <seed> <dir>` writes a run's generated inputs and the
//! clean tables the checks compare against into `<dir>`. `child` and
//! `daemon` are internal modes: the measured process of the batch
//! workloads, and the serving daemon.

mod check;
mod inputs;
mod measure;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use bclean_core::{repairs_to_csv, ConstraintSet};
use bclean_data::read_csv_file;

use check::{apply_repairs, check_repairs, observed_values, parse_repairs, Quality};
use inputs::{file, Workload};
use stats::{median, quantile, quieter_half};
use trace::Ops;

/// Where runs keep their generated inputs and outputs, inside the checkout.
const WORK_ROOT: &str = ".perfbench_run";

/// The end-to-end metrics and their units: the result line's metrics.
const END_TO_END: &[(&str, &str)] = &[
    ("scaling_exp", "exponent"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("f1", "ratio"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
];

/// End-to-end figures printed above the result line but kept out of it:
/// between sets of runs of the same code on the shared 2-CPU host they
/// spread past the largest regression bound (see the README, "Spread and
/// bounds").
const INFORMATIONAL: &[(&str, &str)] =
    &[("rows_per_s", "rows/s"), ("req_per_s", "req/s"), ("clean_p50_ms", "ms"), ("clean_p99_ms", "ms")];

/// Repair-quality floors (F1 at the 4n size, or over the serving
/// verification round) below which a run is not correct.
fn f1_floor(workload: Workload) -> f64 {
    match workload {
        Workload::HospitalOneshot | Workload::ServeMixed => 0.5,
        Workload::WideStream => 0.5,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value after {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => run_child(&args[1..]),
        Some("daemon") => run_daemon(&args[1..]),
        Some("inputs") => write_inputs(&args[1..]),
        _ => parse_args(&args).and_then(|a| orchestrate(&a)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `child <workload> <dir> <round> <0|1>` runs one round;
/// `child <workload> <dir> <run id> probe` runs the traced layer probe.
fn run_child(args: &[String]) -> Result<(), String> {
    let [workload, dir, round, mode] = args else {
        return Err("usage: child <workload> <dir> <round> <0|1|probe>".into());
    };
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let round: usize = round.parse().map_err(|_| "bad round")?;
    match mode.as_str() {
        "probe" => measure::run_probe(workload, Path::new(dir), round),
        trace => measure::run_round(workload, Path::new(dir), round, trace == "1"),
    }
}

/// `inputs <workload> <seed> <dir>`.
fn write_inputs(args: &[String]) -> Result<(), String> {
    let [workload, seed, dir] = args else { return Err("usage: inputs <workload> <seed> <dir>".into()) };
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let seed = seed.parse().map_err(|_| "bad seed")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    inputs::generate(workload, seed, Path::new(dir))
}

/// `daemon <model> <workers> <threads>`.
fn run_daemon(args: &[String]) -> Result<(), String> {
    let [model, workers, threads] = args else {
        return Err("usage: daemon <model> <workers> <threads>".into());
    };
    let workers = workers.parse().map_err(|_| "bad workers")?;
    let threads = threads.parse().map_err(|_| "bad threads")?;
    serve::run_daemon(Path::new(model), workers, threads)
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(args, &dir);
    // Keep only the spans of a traced run; the inputs are regenerated from
    // the seed on demand.
    if args.trace {
        let _ = std::fs::rename(
            dir.join("spans.csv"),
            Path::new(WORK_ROOT).join(format!("spans-{}-{}.csv", args.workload.name(), args.seed)),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<(), String> {
    let mut ops = Ops::default();
    ops.check("inputs.generate", inputs::generate(args.workload, args.seed, dir))
        .ok_or("input generation failed")?;
    let values = match args.workload {
        Workload::ServeMixed => serve::run_mixed(dir, args.seconds, args.trace, &mut ops)?,
        _ => run_batch_parent(args, dir, &mut ops)?,
    };
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    ops.record("check.f1_floor", get("f1").is_some_and(|f1| f1 >= f1_floor(args.workload)));
    let names = if args.trace { measure::LAYERS } else { END_TO_END };
    let metrics: Vec<(&str, f64, &str)> =
        names.iter().filter_map(|(name, unit)| get(name).map(|v| (*name, v, *unit))).collect();
    let reported = metrics.len() == names.len() && metrics.iter().all(|(_, v, _)| v.is_finite());
    ops.record("check.all_metrics_reported", reported);

    print_report(args, &ops, &values, &metrics);
    Ok(())
}

/// Run one measured process; returns its standard output.
fn spawn_child(args: &Args, dir: &Path, round: usize, mode: &str, ops: &mut Ops) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["child", args.workload.name()])
        .arg(dir)
        .args([round.to_string().as_str(), mode])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the measured process: {e}"))?;
    if !ops.record("child.exit", output.status.success()) {
        return Err(format!("the measured process failed: {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Parse a child's output: its samples, per key, and its operation ledger.
fn absorb_child(stdout: &str, ops: &mut Ops) -> BTreeMap<String, Vec<f64>> {
    let mut this: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in stdout.lines() {
        if line.starts_with("op ") {
            ops.parse_line(line);
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let (key, value) = match parts.as_slice() {
            ["layer", name, value] => (name.to_string(), value),
            [key, value] => (key.to_string(), value),
            _ => continue,
        };
        if let Ok(value) = value.parse::<f64>() {
            this.entry(key).or_default().push(value);
        }
    }
    this
}

/// Rounds of the batch workload, each in a fresh measured process, until
/// the run's time is up; then the checks on what round 0 wrote.
fn run_batch_parent(args: &Args, dir: &Path, ops: &mut Ops) -> Result<Vec<(&'static str, f64)>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
    while rounds.len() < measure::MIN_ROUNDS || Instant::now() < deadline {
        let stdout = spawn_child(args, dir, rounds.len(), if args.trace { "1" } else { "0" }, ops)?;
        rounds.push(absorb_child(&stdout, ops));
    }
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    if args.trace {
        let stdout = spawn_child(args, dir, rounds.len(), "probe", ops)?;
        for round in rounds.iter().chain([&absorb_child(&stdout, ops)]) {
            for (key, values) in round {
                layers.entry(key.clone()).or_default().extend(values);
            }
        }
        let mut spans = String::new();
        for name in
            (0..rounds.len()).map(|r| format!("spans-r{r}.csv")).chain(["spans-probe.csv".to_string()])
        {
            let text = std::fs::read_to_string(dir.join(&name)).unwrap_or_default();
            let body =
                if spans.is_empty() { text.as_str() } else { text.split_once('\n').map_or("", |(_, b)| b) };
            spans.push_str(body);
        }
        ops.check("write_spans", std::fs::write(dir.join("spans.csv"), spans));
    }
    let one = |round: &BTreeMap<String, Vec<f64>>, key: &str| {
        round.get(key).and_then(|v| v.first().copied()).unwrap_or(f64::NAN)
    };
    let all = |rounds: &[&BTreeMap<String, Vec<f64>>], key: &str| -> Vec<f64> {
        rounds.iter().flat_map(|r| r.get(key).cloned().unwrap_or_default()).collect()
    };
    // Each phase's metrics come from the rounds in which it ran fastest.
    let started = quieter_half(&rounds, |r| one(r, "setup_s"));
    let table = quieter_half(&rounds, |r| one(r, "total_s"));
    let requests = quieter_half(&rounds, |r| one(r, "req_wall_s"));
    let exponents: Vec<f64> =
        table.iter().map(|r| (one(r, "clean_4n_s") / one(r, "clean_n_s")).ln() / 4f64.ln()).collect();
    let clean_ms = all(&requests, "clean_ms");
    let ingest_ms = all(&requests, "ingest_ms");
    let answered: f64 = all(&requests, "req_answered").iter().sum();
    let wall: f64 = all(&requests, "req_wall_s").iter().sum();
    let rounds_ref: Vec<&BTreeMap<String, Vec<f64>>> = rounds.iter().collect();
    let mut values: Vec<(&'static str, f64)> = vec![
        ("rounds", rounds.len() as f64),
        ("rows_per_s", args.workload.large_rows() as f64 / median(&all(&table, "total_s"))),
        ("scaling_exp", median(&exponents)),
        ("setup_s", median(&all(&started, "setup_s"))),
        ("peak_rss_mb", median(&all(&rounds_ref, "rss_mb"))),
        ("req_per_s", answered / wall),
        ("clean_p50_ms", median(&clean_ms)),
        ("clean_p99_ms", quantile(&clean_ms, 0.99)),
        ("ingest_p50_ms", median(&ingest_ms)),
        ("ingest_p90_ms", quantile(&ingest_ms, 0.90)),
        ("clean_requests", clean_ms.len() as f64),
        ("ingest_requests", ingest_ms.len() as f64),
    ];
    for (name, _) in measure::LAYERS {
        if let Some(v) = layers.get(*name) {
            values.push((name, median(v)));
        }
    }
    let quality = check_batch_outputs(args.workload, dir, ops)?;
    values.extend([("precision", quality.precision()), ("recall", quality.recall()), ("f1", quality.f1())]);
    Ok(values)
}

/// Check the batch outputs of round 1 (later rounds were compared with it
/// byte for byte by the measured process).
fn check_batch_outputs(workload: Workload, dir: &Path, ops: &mut Ops) -> Result<Quality, String> {
    let read = |name: &str| read_csv_file(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"));
    let text =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"));
    let spec = ConstraintSet::from_spec_text(&text(file::SPEC)?)?;
    let mut quality = Quality::default();
    for (input, repairs_file, cleaned_file) in [
        (file::SMALL, "round0_repairs_0.csv", "cleaned_small.csv"),
        (file::LARGE, "round0_repairs_1.csv", "cleaned_large.csv"),
    ] {
        let checked = (|| -> Result<(), String> {
            let dirty = read(input)?;
            let repairs_text = text(repairs_file)?;
            let repairs = parse_repairs(&repairs_text, &dirty)?;
            let dictionary = observed_values(&[&dirty]);
            ops.check("check.repairs", check_repairs(&repairs, &dirty, &dictionary, &spec));
            if workload == Workload::WideStream {
                let expected = apply_repairs(&dirty, &repairs)?;
                ops.record("check.cleaned_csv_equals_repaired_input", text(cleaned_file)? == expected);
            }
            if input == file::LARGE {
                quality = Quality::of(&dirty, &read(file::TRUTH_LARGE)?, &repairs);
            } else if workload == Workload::WideStream {
                // The out-of-core invariant: streaming equals in-RAM fit + clean.
                let in_ram = workload.cleaner(spec.clone()).fit(&dirty).clean(&dirty);
                ops.record("check.stream_equals_in_ram", repairs_to_csv(&in_ram.repairs) == repairs_text);
            }
            Ok(())
        })();
        ops.check("check.outputs_readable", checked);
    }
    Ok(quality)
}

fn print_report(args: &Args, ops: &Ops, values: &[(&str, f64)], metrics: &[(&str, f64, &str)]) {
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("operations (attempted failed), by step and HTTP endpoint:");
    for line in ops.lines().lines() {
        println!("  {}", line.trim_start_matches("op "));
    }
    for (name, value) in values {
        if ["rounds", "clean_requests", "ingest_requests"].contains(name) {
            println!("  samples: {name} = {value}");
        }
    }
    for (name, value, unit) in metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    if !args.trace {
        for (name, unit) in INFORMATIONAL {
            if let Some((_, value)) = values.iter().find(|(n, _)| n == name) {
                println!("  {name:<26} {value:>16.6} {unit} (informational, not in the result)");
            }
        }
    }
    let (attempted, failed) = ops.totals();
    let correct = !ops.any_failed("check.");
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; a value that is not finite prints as null
/// (and has already failed `check.all_metrics_reported`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
