//! The measured process of the two batch workloads, and the layer probe
//! every traced run ends with.
//!
//! A round runs the workload's path at n rows, then at 4n rows (so slow
//! stretches of a shared host hit both sides of the scaling exponent
//! alike), then replays the request batches in process against the 4n
//! model. The orchestrator repeats rounds until the run's time is up;
//! every round does the same operations.

use std::path::Path;
use std::time::Instant;

use bclean_bayesnet::{learn_structure_encoded, NodeCounts};
use bclean_core::{
    clean_stream, repairs_to_csv, BClean, CleaningStats, CompensatoryModel, ConstraintSet, ModelArtifact,
    ParallelExecutor, StreamOptions,
};
use bclean_data::{
    read_csv_file, AttrType, ChunkLimits, ChunkSource, CsvFileChunks, DataResult, Dataset, EncodedDataset,
    Schema,
};
use bclean_serve::ModelRegistry;

use crate::check::{check_repairs, observed_values, parse_repairs};
use crate::inputs::{constraints, file, Requests, Workload, CHUNK_ROWS};
use crate::serve::http_probe;
use crate::trace::{Ops, Tracer};

/// Rounds a run makes even when its time is up sooner.
pub const MIN_ROUNDS: usize = 3;
/// Repeats of each call in the traced layer probe.
const PROBE_REPEATS: usize = 3;

/// Process CPU seconds (user + system) from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A [`ChunkSource`] wrapper timing every `next_chunk` call.
struct TimedChunks {
    inner: CsvFileChunks,
    read_s: f64,
    chunks: usize,
}

impl ChunkSource for TimedChunks {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self) -> DataResult<Option<Dataset>> {
        let start = Instant::now();
        let chunk = self.inner.next_chunk();
        self.read_s += start.elapsed().as_secs_f64();
        if matches!(chunk, Ok(Some(_))) {
            self.chunks += 1;
        }
        chunk
    }

    fn restart(&mut self) -> DataResult<()> {
        self.inner.restart()
    }
}

/// One pass of the workload's path over one input file.
struct PassOutcome {
    setup_s: f64,
    clean_s: f64,
    total_s: f64,
    repairs_csv: String,
    artifact: ModelArtifact,
    stats: CleaningStats,
}

/// `bclean clean data.csv -c spec.bc --repairs out.csv`: read, parse the
/// spec, fit, compile, clean, write the repairs.
fn oneshot_pass(
    workload: Workload,
    dir: &Path,
    input: &str,
    out: &str,
    tr: &mut Tracer,
) -> Result<PassOutcome, String> {
    // Layer spans are named for the 4n pass; the n pass's carry a suffix.
    let large = input == file::LARGE;
    let name = |layer: &'static str, small: &'static str| if large { layer } else { small };
    let start = Instant::now();
    let data = tr
        .span(name("data.read_csv", "data.read_csv.n"), |_| read_csv_file(dir.join(input)))
        .map_err(|e| e.to_string())?;
    let cleaner = tr.span(name("core.spec", "core.spec.n"), |_| -> Result<BClean, String> {
        let text = std::fs::read_to_string(dir.join(file::SPEC)).map_err(|e| e.to_string())?;
        Ok(workload.cleaner(ConstraintSet::from_spec_text(&text)?))
    })?;
    let artifact = tr.span(name("core.fit", "core.fit.n"), |_| cleaner.fit_artifact(&data));
    let model = tr.span(name("core.compile", "core.compile.n"), |_| artifact.compile());
    let setup_s = start.elapsed().as_secs_f64();
    let cpu = process_cpu_s();
    let result = tr.span(name("core.clean", "core.clean_small"), |_| model.clean(&data));
    let clean_s = start.elapsed().as_secs_f64() - setup_s;
    if large {
        tr.value("exec.cpu_per_wall", (process_cpu_s() - cpu) / clean_s);
    }
    let repairs_csv = repairs_to_csv(&result.repairs);
    tr.span(name("store.write_repairs", "store.write_repairs.n"), |_| {
        std::fs::write(dir.join(out), &repairs_csv)
    })
    .map_err(|e| e.to_string())?;
    let total_s = start.elapsed().as_secs_f64();
    Ok(PassOutcome { setup_s, clean_s, total_s, repairs_csv, artifact, stats: result.stats })
}

/// `bclean clean data.csv -c spec.bc --stream -o cleaned.csv`: both passes
/// of `clean_stream` over the chunked file. `clean_stream` never restarts
/// its source (pass 2 decodes the in-memory encoding), so the set-up split
/// is the pass-1 time the outcome reports.
fn stream_pass(
    workload: Workload,
    dir: &Path,
    input: &str,
    out: &str,
    tr: &mut Tracer,
) -> Result<PassOutcome, String> {
    let start = Instant::now();
    let text = std::fs::read_to_string(dir.join(file::SPEC)).map_err(|e| e.to_string())?;
    let cleaner = workload.cleaner(ConstraintSet::from_spec_text(&text)?);
    let limits = ChunkLimits::rows(CHUNK_ROWS);
    let inner = CsvFileChunks::open(dir.join(input), limits).map_err(|e| e.to_string())?;
    let mut source = TimedChunks { inner, read_s: 0.0, chunks: 0 };
    let options = StreamOptions { limits, cleaned_path: Some(dir.join(out)), ..StreamOptions::default() };
    let pre_s = start.elapsed().as_secs_f64();
    let cpu = process_cpu_s();
    let outcome = tr
        .span("core.stream", |_| clean_stream(&cleaner, &mut source, &options))
        .map_err(|e| e.to_string())?;
    let total_s = start.elapsed().as_secs_f64();
    let pass1_s = outcome.stats.fit_duration.as_secs_f64();
    let setup_s = pre_s + pass1_s;
    let clean_s = total_s - setup_s;
    if input == file::LARGE {
        tr.value("exec.cpu_per_wall", (process_cpu_s() - cpu) / total_s);
        tr.value("core.stream_pass1_s", pass1_s);
        tr.value("core.stream_pass2_s", clean_s);
        tr.value("core.stream_peak_bytes", outcome.peak_bytes as f64);
        tr.value("data.chunk_read_s", source.read_s);
        tr.value("data.chunks", source.chunks as f64);
    }
    let artifact = outcome.artifact.ok_or("clean_stream returned no artifact")?;
    Ok(PassOutcome {
        setup_s,
        clean_s,
        total_s,
        repairs_csv: repairs_to_csv(&outcome.repairs),
        artifact,
        stats: outcome.stats,
    })
}

/// Latencies of one replay of the request batches.
#[derive(Debug, Default)]
pub struct RequestSamples {
    /// Clean latencies (ms), by batch size (4 rows, 16 rows).
    pub clean_ms: [Vec<f64>; 2],
    pub ingest_ms: Vec<f64>,
    /// Wall time of the replay, seconds.
    pub wall_s: f64,
    /// Requests answered.
    pub answered: usize,
}

/// Replay the request batches in process through a [`ModelRegistry`] — the
/// daemon's code path without HTTP: a clean is a snapshot plus a clean
/// rendered to the repairs CSV; an ingest clones the artifact, absorbs the
/// batch, compiles and swaps. Returns the samples and each clean's body.
pub fn replay_in_process(
    artifact: &ModelArtifact,
    requests: &Requests,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> (RequestSamples, Vec<String>) {
    let registry = ModelRegistry::new();
    let hash = registry.register(artifact.clone());
    let mut samples = RequestSamples::default();
    let mut bodies = Vec::with_capacity(requests.clean.len());
    let mut next_ingest = 0;
    let start = Instant::now();
    for (i, batch) in requests.clean.iter().enumerate() {
        let name = if i % 2 == 0 { "serve.clean_inproc" } else { "serve.clean_inproc_16" };
        let t = Instant::now();
        let body = tr.span(name, |_| {
            registry.snapshot(hash).map(|snapshot| repairs_to_csv(&snapshot.model().clean(batch).repairs))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(body) = ops.check("request.clean", body) {
            samples.clean_ms[i % 2].push(ms);
            samples.answered += 1;
            bodies.push(body);
        }
        if next_ingest < requests.ingest.len() && requests.ingest_after(next_ingest) == i {
            let t = Instant::now();
            let receipt =
                tr.span("serve.ingest_inproc", |_| registry.ingest(hash, &requests.ingest[next_ingest]));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if ops.check("request.ingest", receipt).is_some() {
                samples.ingest_ms.push(ms);
                samples.answered += 1;
            }
            next_ingest += 1;
        }
    }
    samples.wall_s = start.elapsed().as_secs_f64();
    (samples, bodies)
}

/// Check every clean body of a replay against the batch it answered.
pub fn check_request_bodies(
    bodies: &[String],
    requests: &Requests,
    dictionary: &[std::collections::HashSet<bclean_data::Value>],
    constraints: &ConstraintSet,
) -> Result<(), String> {
    if bodies.len() != requests.clean.len() {
        return Err(format!("{} clean responses for {} requests", bodies.len(), requests.clean.len()));
    }
    for (i, (body, batch)) in bodies.iter().zip(&requests.clean).enumerate() {
        let repairs = parse_repairs(body, batch).map_err(|e| format!("request {i}: {e}"))?;
        check_repairs(&repairs, batch, dictionary, constraints).map_err(|e| format!("request {i}: {e}"))?;
    }
    Ok(())
}

/// What the measured process of one round (or of the probe) hands back:
/// `<key> <value>` lines, one per sample, plus the operation ledger.
fn emit(samples: &[(&str, f64)], tr: &Tracer, ops: &Ops) {
    let mut out = String::new();
    for (name, value) in samples {
        out.push_str(&format!("{name} {value}\n"));
    }
    for (name, values) in layer_samples(tr) {
        for value in values {
            out.push_str(&format!("layer {name} {value}\n"));
        }
    }
    out.push_str(&ops.lines());
    print!("{out}");
}

/// One round of `hospital-oneshot` or `wide-stream`, in a process of its
/// own (the host's slow stretches and per-process effects then spread over
/// a run's rounds instead of deciding a whole run). Round 0 writes the
/// outputs the orchestrator checks; every later round must reproduce them
/// byte for byte.
pub fn run_round(workload: Workload, dir: &Path, round: usize, trace: bool) -> Result<(), String> {
    let mut tr = Tracer::new(trace);
    tr.set_run(round);
    let mut ops = Ops::default();
    let requests = Requests::load(workload, dir)?;
    let pass = if workload == Workload::WideStream { stream_pass } else { oneshot_pass };
    let inputs = [file::SMALL, file::LARGE];
    let outs = if workload == Workload::WideStream {
        ["cleaned_small.csv", "cleaned_large.csv"]
    } else {
        ["repairs_small.csv", "repairs_large.csv"]
    };
    let mut samples: Vec<(&str, f64)> = Vec::new();
    let mut large_artifact = None;
    for size in 0..2 {
        let outcome = tr.span("round", |tr| pass(workload, dir, inputs[size], outs[size], tr));
        let step = format!("{}.{}", workload.name(), ["clean_n", "clean_4n"][size]);
        let Some(outcome) = ops.check(&step, outcome) else { continue };
        samples.push((["clean_n_s", "clean_4n_s"][size], outcome.clean_s));
        if size == 1 {
            samples.push(("setup_s", outcome.setup_s));
            samples.push(("total_s", outcome.total_s));
            tr.value("trace.rows_per_s", workload.large_rows() as f64 / outcome.total_s);
            for (name, value) in stats_values(&outcome.stats) {
                tr.value(name, value);
            }
            large_artifact = Some(outcome.artifact);
        }
        let first = dir.join(format!("round0_repairs_{size}.csv"));
        if round == 0 {
            ops.check("write_repairs", std::fs::write(&first, &outcome.repairs_csv));
        } else {
            let same = std::fs::read_to_string(&first).is_ok_and(|f| f == outcome.repairs_csv);
            ops.record("check.repairs_repeat_identical", same);
        }
    }
    if let Some(artifact) = large_artifact {
        let (replay, bodies) = replay_in_process(&artifact, &requests, &mut tr, &mut ops);
        samples.push(("req_wall_s", replay.wall_s));
        samples.push(("req_answered", replay.answered as f64));
        samples.extend(replay.clean_ms[0].iter().map(|v| ("clean_ms", *v)));
        samples.extend(replay.ingest_ms.iter().map(|v| ("ingest_ms", *v)));
        let joined = bodies.join("\u{1e}");
        let first = dir.join("round0_request_bodies.txt");
        if round == 0 {
            let spec = ConstraintSet::from_spec_text(
                &std::fs::read_to_string(dir.join(file::SPEC)).map_err(|e| e.to_string())?,
            )?;
            let large = read_csv_file(dir.join(file::LARGE)).map_err(|e| e.to_string())?;
            let mut tables: Vec<&Dataset> = vec![&large];
            tables.extend(requests.ingest.iter());
            let verdict = check_request_bodies(&bodies, &requests, &observed_values(&tables), &spec);
            ops.check("check.request_repairs", verdict);
            ops.check("write_request_bodies", std::fs::write(&first, &joined));
        } else {
            let same = std::fs::read_to_string(&first).is_ok_and(|f| f == joined);
            ops.record("check.request_repeat_identical", same);
        }
    }
    samples.push(("rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN)));
    if trace {
        ops.check("write_spans", std::fs::write(dir.join(format!("spans-r{round}.csv")), tr.spans_csv()));
    }
    emit(&samples, &tr, &ops);
    Ok(())
}

/// The traced layer probe of a batch workload, in a process of its own.
pub fn run_probe(workload: Workload, dir: &Path, run: usize) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    tr.set_run(run);
    let mut ops = Ops::default();
    let requests = Requests::load(workload, dir)?;
    probe(workload, dir, &requests, true, &mut tr, &mut ops)?;
    ops.check("write_spans", std::fs::write(dir.join("spans-probe.csv"), tr.spans_csv()));
    emit(&[], &tr, &ops);
    Ok(())
}

fn stats_values(stats: &CleaningStats) -> [(&'static str, f64); 5] {
    [
        ("core.cells_examined", stats.cells_examined as f64),
        ("core.cells_skipped", stats.cells_skipped as f64),
        ("core.candidates_scored", stats.candidates_evaluated as f64),
        ("core.candidates_per_cell", stats.candidates_evaluated as f64 / stats.cells_examined.max(1) as f64),
        ("core.repairs", stats.repairs as f64),
    ]
}

/// Time every layer call of the per-layer table on this workload's inputs
/// (the 4n table, or the serving model's fit table): the layers inside
/// `fit_artifact` one by one, persistence, the stream passes, the split
/// ingest, and — with `with_server` — an in-process HTTP server replaying
/// the request batches.
pub fn probe(
    workload: Workload,
    dir: &Path,
    requests: &Requests,
    with_server: bool,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<(), String> {
    let cleaner = workload.cleaner(constraints(workload));
    let config = cleaner.config().clone();
    let mut artifact = None;
    for _ in 0..PROBE_REPEATS {
        let data =
            tr.span("data.read_csv", |_| read_csv_file(dir.join(file::LARGE))).map_err(|e| e.to_string())?;
        let small = read_csv_file(dir.join(file::SMALL)).map_err(|e| e.to_string())?;
        let encoded = tr.span("data.encode", |_| EncodedDataset::from_dataset(&data));
        let types: Vec<AttrType> = data.schema().attributes().iter().map(|a| a.ty).collect();
        let structure =
            tr.span("bayesnet.structure", |_| learn_structure_encoded(&encoded, &types, config.structure));
        tr.value("bayesnet.edges", structure.dag.num_edges() as f64);
        tr.span("bayesnet.counts", |_| {
            (0..encoded.num_columns())
                .map(|node| NodeCounts::accumulate(&encoded, node, &structure.dag.parents(node)))
                .collect::<Vec<_>>()
        });
        let executor = ParallelExecutor::for_config(&config, data.num_columns());
        tr.span("core.compensatory", |_| {
            CompensatoryModel::build_parallel(
                &data,
                &encoded,
                cleaner.constraints(),
                config.params,
                &executor,
            )
        });
        let fitted = tr.span("core.fit", |_| cleaner.fit_artifact(&data));
        let model = tr.span("core.compile", |_| fitted.compile());
        tr.span("core.clean_small", |_| model.clean(&small));
        let cpu = process_cpu_s();
        let start = Instant::now();
        let result = tr.span("core.clean", |_| model.clean(&data));
        tr.value("exec.cpu_per_wall", (process_cpu_s() - cpu) / start.elapsed().as_secs_f64());
        for (name, value) in stats_values(&result.stats) {
            tr.value(name, value);
        }
        let bytes = tr.span("store.save", |_| fitted.to_bytes()).map_err(|e| e.to_string())?;
        tr.value("store.artifact_bytes", bytes.len() as f64);
        let loaded =
            tr.span("store.load", |_| ModelArtifact::from_bytes(&bytes)).map_err(|e| e.to_string())?;
        ops.record("check.store_round_trip", loaded.to_bytes().map_err(|e| e.to_string())? == bytes);
        if workload != Workload::WideStream {
            // The stream layers on this workload's data (wide-stream's own
            // passes already recorded them).
            let outcome = tr
                .span("probe.stream", |tr| stream_pass(workload, dir, file::LARGE, "probe_cleaned.csv", tr));
            ops.check("probe.stream", outcome);
        }
        let mut grown = fitted.clone();
        for batch in &requests.ingest {
            let mut next = tr.span("core.ingest_clone", |_| grown.clone());
            let absorbed = tr.span("core.ingest_absorb", |_| next.ingest_batch(batch));
            ops.check("probe.ingest", absorbed);
            tr.span("core.ingest_compile", |_| next.compile());
            grown = next;
        }
        artifact = Some(fitted);
    }
    let artifact = artifact.ok_or("probe made no artifact")?;
    if with_server {
        http_probe(artifact, workload.threads(), requests, tr, ops)?;
    } else {
        replay_in_process(&artifact, requests, tr, ops);
    }
    Ok(())
}

/// Per-layer metric names, units and how each is derived from the trace.
pub const LAYERS: &[(&str, &str)] = &[
    ("data.read_csv_s", "s"),
    ("data.chunk_read_s", "s"),
    ("data.chunks", "count"),
    ("data.encode_s", "s"),
    ("bayesnet.structure_s", "s"),
    ("bayesnet.edges", "count"),
    ("bayesnet.counts_s", "s"),
    ("core.compensatory_s", "s"),
    ("core.fit_s", "s"),
    ("core.compile_s", "s"),
    ("core.clean_small_s", "s"),
    ("core.clean_s", "s"),
    ("core.cells_examined", "count"),
    ("core.cells_skipped", "count"),
    ("core.candidates_scored", "count"),
    ("core.candidates_per_cell", "count"),
    ("core.repairs", "count"),
    ("exec.cpu_per_wall", "ratio"),
    ("core.stream_pass1_s", "s"),
    ("core.stream_pass2_s", "s"),
    ("core.stream_peak_bytes", "bytes"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.artifact_bytes", "bytes"),
    ("core.ingest_clone_ms", "ms"),
    ("core.ingest_absorb_ms", "ms"),
    ("core.ingest_compile_ms", "ms"),
    ("serve.clean_inproc_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.clean_requests", "count"),
    ("serve.ingest_requests", "count"),
    ("serve.repairs_emitted", "count"),
    ("serve.errors", "count"),
    ("trace.rows_per_s", "rows/s"),
];

/// The samples of each per-layer metric: the self times of its span (a
/// metric named `x_s` or `x_ms` reads span `x`), else its recorded values.
/// The metric is the median of its samples.
pub fn layer_samples(tr: &Tracer) -> Vec<(&'static str, Vec<f64>)> {
    let spans = tr.self_times();
    LAYERS
        .iter()
        .filter_map(|(name, unit)| {
            let span_name = name.strip_suffix("_ms").or_else(|| name.strip_suffix("_s"));
            let scale = if *unit == "ms" { 1e3 } else { 1.0 };
            let from_span =
                span_name.and_then(|s| spans.get(s)).map(|v| v.iter().map(|x| x * scale).collect());
            from_span.or_else(|| tr.values().get(name).cloned()).map(|v| (*name, v))
        })
        .collect()
}
