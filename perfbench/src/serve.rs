//! The `serve-mixed` workload: a daemon process serving a Hospital model,
//! driven by a closed loop of one `/clean` client and one `/ingest` client
//! (two connections, two daemon workers), each sending a fixed number of
//! requests per round. Every round starts a fresh daemon from the same
//! artifact, so a faster ingest can never grow the model and slow `/clean`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bclean_core::{repairs_to_csv, ConstraintSet, ModelArtifact};
use bclean_data::{read_csv_file, to_csv, Dataset};
use bclean_serve::http::client::{ClientResponse, Connection};
use bclean_serve::{ModelRegistry, Server, ServerConfig};

use crate::check::{check_repairs, observed_values, parse_repairs, Quality, RepairRow};
use crate::inputs::{constraints, file, Requests, Workload, CLEAN_BATCH_ROWS, VERIFY_BATCHES};
use crate::measure::{layer_samples, peak_rss_mb, probe, replay_in_process, MIN_ROUNDS};
use crate::stats::{median, quantile, quieter_half};
use crate::trace::{Ops, Tracer};

const TIMEOUT: Duration = Duration::from_secs(60);

/// `daemon <model> <workers> <threads>`: what `bclean serve -m <model>
/// --workers <workers> --threads <threads>` does, on a free local port,
/// announced as `listening <addr>` on stdout.
pub fn run_daemon(model: &Path, workers: usize, threads: usize) -> Result<(), String> {
    let mut artifact = ModelArtifact::load(model).map_err(|e| e.to_string())?;
    artifact.set_threads(threads);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(artifact);
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers };
    let server = Server::bind(&config, registry).map_err(|e| e.to_string())?;
    println!("listening {}", server.local_addr().map_err(|e| e.to_string())?);
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// A spawned daemon, killed and reaped if the round ends early.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(model: &Path, workers: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(model)
            .arg(workers.to_string())
            .arg("1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon stdout missing")?;
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.strip_prefix("listening ").and_then(|a| a.trim().parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce its address (got {line:?})"))
            }
        }
    }

    /// Ask the daemon to stop over the wire and wait for it to exit.
    fn shutdown(mut self, ops: &mut Ops) {
        let reply =
            Connection::connect(self.addr, TIMEOUT).and_then(|mut c| c.request("POST", "/shutdown", b""));
        http_op(ops, "POST /shutdown", &reply);
        let exited = self.child.wait().map(|s| s.success()).unwrap_or(false);
        ops.record("daemon.exit", exited);
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Count one HTTP exchange: a transport error or non-200 status fails.
fn http_op(ops: &mut Ops, endpoint: &str, reply: &std::io::Result<ClientResponse>) -> bool {
    let ok = matches!(reply, Ok(r) if r.status == 200);
    ops.record(&format!("http.{endpoint}"), ok)
}

/// One client's closed loop over `batches`: (latency ms, response) each.
fn post_all(
    addr: SocketAddr,
    path: &str,
    batches: &[Dataset],
) -> Vec<(f64, std::io::Result<ClientResponse>)> {
    let bodies: Vec<String> = batches.iter().map(to_csv).collect();
    let mut conn = match Connection::connect(addr, TIMEOUT) {
        Ok(conn) => conn,
        Err(e) => return vec![(f64::NAN, Err(e))],
    };
    bodies
        .iter()
        .map(|body| {
            let start = Instant::now();
            let reply = conn.request("POST", path, body.as_bytes());
            (start.elapsed().as_secs_f64() * 1e3, reply)
        })
        .collect()
}

/// The `/metrics` counters reported as per-layer metrics.
const COUNTERS: [(&str, &str); 4] = [
    ("clean_requests", "serve.clean_requests"),
    ("ingest_requests", "serve.ingest_requests"),
    ("repairs_emitted", "serve.repairs_emitted"),
    ("errors", "serve.errors"),
];

/// A counter of the daemon's `/metrics` JSON.
fn metric(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    json[at..].trim_start().split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// What one round leaves for the checks and the metrics.
struct Round {
    setup_s: f64,
    load_wall_s: f64,
    clean_ms: [Vec<f64>; 2],
    ingest_ms: Vec<f64>,
    rows_cleaned: usize,
    verify_bodies: Vec<String>,
    artifact: Vec<u8>,
    rss_mb: f64,
    /// The daemon's `/metrics` counters at the end of the round.
    counters: Vec<(&'static str, f64)>,
}

fn round(
    dir: &Path,
    requests: &Requests,
    verify: &[Dataset],
    check: &Checks,
    ops: &mut Ops,
) -> Result<Round, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(&dir.join(file::MODEL), Workload::ServeMixed.threads())?;
    let health = Connection::connect(daemon.addr, TIMEOUT).and_then(|mut c| c.request("GET", "/health", b""));
    if !http_op(ops, "GET /health", &health) {
        return Err("daemon is not healthy".into());
    }
    let setup_s = start.elapsed().as_secs_f64();

    let load = Instant::now();
    let (cleans, ingests) = std::thread::scope(|s| {
        let ingest = s.spawn(|| post_all(daemon.addr, "/ingest", &requests.ingest));
        let cleans = post_all(daemon.addr, "/clean", &requests.clean);
        (cleans, ingest.join().expect("ingest client panicked"))
    });
    let load_wall_s = load.elapsed().as_secs_f64();

    let mut out = Round {
        setup_s,
        load_wall_s,
        clean_ms: [Vec::new(), Vec::new()],
        ingest_ms: Vec::new(),
        rows_cleaned: 0,
        verify_bodies: Vec::new(),
        artifact: Vec::new(),
        rss_mb: f64::NAN,
        counters: Vec::new(),
    };
    let mut repairs_seen = 0u64;
    for (i, (ms, reply)) in cleans.iter().enumerate() {
        if http_op(ops, "POST /clean", reply) {
            let body = reply.as_ref().map(|r| r.text()).unwrap_or_default();
            let batch = &requests.clean[i % requests.clean.len()];
            let verdict = parse_repairs(&body, batch).and_then(|repairs| {
                repairs_seen += repairs.len() as u64;
                check_repairs(&repairs, batch, &check.dictionary, &check.constraints)
            });
            if ops.check("check.clean_response", verdict).is_some() {
                out.clean_ms[i % 2].push(*ms);
                out.rows_cleaned += batch.num_rows();
            }
        }
    }
    for (ms, reply) in &ingests {
        if http_op(ops, "POST /ingest", reply) {
            out.ingest_ms.push(*ms);
        }
    }

    let mut conn = Connection::connect(daemon.addr, TIMEOUT).map_err(|e| e.to_string())?;
    for batch in verify {
        let reply = conn.request("POST", "/clean", to_csv(batch).as_bytes());
        if http_op(ops, "POST /clean", &reply) {
            let body = reply.map(|r| r.text()).unwrap_or_default();
            repairs_seen += parse_repairs(&body, batch).map_or(0, |r| r.len() as u64);
            out.verify_bodies.push(body);
        }
    }
    let artifact = conn.request("GET", "/artifact", b"");
    if http_op(ops, "GET /artifact", &artifact) {
        out.artifact = artifact.map(|r| r.body).unwrap_or_default();
    }
    let metrics = conn.request("GET", "/metrics", b"");
    if http_op(ops, "GET /metrics", &metrics) {
        // The daemon's counters must match the client's accounting.
        let json = metrics.map(|r| r.text()).unwrap_or_default();
        out.counters = COUNTERS
            .iter()
            .map(|(key, name)| (*name, metric(&json, key).map_or(f64::NAN, |v| v as f64)))
            .collect();
        let answered = (out.clean_ms[0].len() + out.clean_ms[1].len() + out.verify_bodies.len()) as u64;
        let expected = [
            ("clean_requests", answered),
            ("ingest_requests", out.ingest_ms.len() as u64),
            ("repairs_emitted", repairs_seen),
            ("errors", 0),
        ];
        let verdict = expected.iter().try_for_each(|(key, want)| match metric(&json, key) {
            Some(got) if got == *want => Ok(()),
            got => Err(format!("/metrics {key} = {got:?}, client counted {want}")),
        });
        ops.check("check.metrics_match_client", verdict);
    }
    drop(conn);
    out.rss_mb = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(f64::NAN);
    daemon.shutdown(ops);
    Ok(out)
}

/// The inputs the checks compare against, computed in this process.
struct Checks {
    dictionary: Vec<std::collections::HashSet<bclean_data::Value>>,
    constraints: ConstraintSet,
}

/// The serving workload, end to end; returns the end-to-end metrics, the
/// quality of the verification round and, traced, the per-layer metrics.
pub fn run_mixed(
    dir: &Path,
    seconds: f64,
    trace: bool,
    ops: &mut Ops,
) -> Result<Vec<(&'static str, f64)>, String> {
    let workload = Workload::ServeMixed;
    let mut tr = Tracer::new(trace);
    let requests = Requests::load(workload, dir)?;
    let read = |name: &str| read_csv_file(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"));
    let fit = read(file::LARGE)?;
    let verify_all = read(file::VERIFY)?;
    let truth_all = read(file::VERIFY_TRUTH)?;
    let rows = CLEAN_BATCH_ROWS[1];
    let slice = |t: &Dataset, i: usize| t.select_rows(&(i * rows..(i + 1) * rows).collect::<Vec<_>>());
    let verify: Vec<Dataset> = (0..VERIFY_BATCHES)
        .map(|i| slice(&verify_all, i))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut tables: Vec<&Dataset> = vec![&fit];
    tables.extend(requests.ingest.iter());
    let checks = Checks { dictionary: observed_values(&tables), constraints: constraints(workload) };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut quality = None;
    let mut attempts = 0;
    while attempts < MIN_ROUNDS || Instant::now() < deadline {
        attempts += 1;
        tr.set_run(attempts);
        let outcome = tr.span("serve.round", |_| round(dir, &requests, &verify, &checks, ops));
        let Some(r) = ops.check("serve.round", outcome) else {
            continue;
        };
        match rounds.first() {
            None => {
                quality = Some(first_round_checks(dir, &r, &requests, &verify, &truth_all, &checks, ops)?);
            }
            Some(first) => {
                ops.record("check.artifact_repeat_identical", first.artifact == r.artifact);
                ops.record("check.verify_repeat_identical", first.verify_bodies == r.verify_bodies);
            }
        }
        rounds.push(r);
    }
    let quality = quality.ok_or("no serving round completed")?;

    // Each phase's metrics come from the rounds in which it ran fastest.
    let started = quieter_half(&rounds, |r| r.setup_s);
    let loaded = quieter_half(&rounds, |r| r.load_wall_s);
    let mut clean_ms = [Vec::new(), Vec::new()];
    let mut ingest_ms = Vec::new();
    for r in &loaded {
        clean_ms[0].extend(&r.clean_ms[0]);
        clean_ms[1].extend(&r.clean_ms[1]);
        ingest_ms.extend(&r.ingest_ms);
    }
    let wall: f64 = loaded.iter().map(|r| r.load_wall_s).sum();
    let answered: usize =
        loaded.iter().map(|r| r.clean_ms[0].len() + r.clean_ms[1].len() + r.ingest_ms.len()).sum();
    let rows_cleaned: usize = loaded.iter().map(|r| r.rows_cleaned).sum();
    let exponents: Vec<f64> =
        loaded.iter().map(|r| (median(&r.clean_ms[1]) / median(&r.clean_ms[0])).ln() / 4f64.ln()).collect();
    let setup: Vec<f64> = started.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = rounds.iter().map(|r| r.rss_mb).collect();
    if trace {
        probe(workload, dir, &requests, false, &mut tr, ops)?;
        let client_p50 = median(&clean_ms[0]);
        let inproc = tr.self_times().get("serve.clean_inproc").map(|v| median(v) * 1e3).unwrap_or(f64::NAN);
        tr.value("serve.http_overhead_ms", client_p50 - inproc);
        tr.value("trace.rows_per_s", rows_cleaned as f64 / wall);
        for (name, value) in rounds.iter().flat_map(|r| &r.counters) {
            tr.value(name, *value);
        }
        ops.check("write_spans", std::fs::write(dir.join("spans.csv"), tr.spans_csv()));
    }
    let mut out = vec![
        ("rounds", rounds.len() as f64),
        ("rows_per_s", rows_cleaned as f64 / wall),
        ("scaling_exp", median(&exponents)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", median(&rss)),
        ("req_per_s", answered as f64 / wall),
        ("clean_p50_ms", median(&clean_ms[0])),
        ("clean_p99_ms", quantile(&clean_ms[0], 0.99)),
        ("ingest_p50_ms", median(&ingest_ms)),
        ("ingest_p90_ms", quantile(&ingest_ms, 0.90)),
        ("clean_requests", clean_ms[0].len() as f64),
        ("ingest_requests", ingest_ms.len() as f64),
    ];
    out.extend([("precision", quality.precision()), ("recall", quality.recall()), ("f1", quality.f1())]);
    out.extend(layer_samples(&tr).into_iter().map(|(name, samples)| (name, median(&samples))));
    Ok(out)
}

/// Round 1 is checked against in-process computations: the final artifact
/// is the starting one with the same ingest batches absorbed in order, and
/// the verification responses equal a clean against that artifact.
fn first_round_checks(
    dir: &Path,
    r: &Round,
    requests: &Requests,
    verify: &[Dataset],
    truth: &Dataset,
    checks: &Checks,
    ops: &mut Ops,
) -> Result<Quality, String> {
    let mut expected = ModelArtifact::load(dir.join(file::MODEL)).map_err(|e| e.to_string())?;
    for batch in &requests.ingest {
        expected.ingest_batch(batch).map_err(|e| e.to_string())?;
    }
    ops.record(
        "check.artifact_equals_replayed_ingests",
        expected.to_bytes().map_err(|e| e.to_string())? == r.artifact,
    );
    let model = expected.compile();
    let inproc: Vec<String> = verify.iter().map(|b| repairs_to_csv(&model.clean(b).repairs)).collect();
    ops.record("check.verify_equals_inprocess", inproc == r.verify_bodies);

    let mut quality = Quality::default();
    let rows = CLEAN_BATCH_ROWS[1];
    for (i, (body, batch)) in r.verify_bodies.iter().zip(verify).enumerate() {
        let repairs: Vec<RepairRow> = parse_repairs(body, batch)?;
        ops.check(
            "check.verify_repairs",
            check_repairs(&repairs, batch, &checks.dictionary, &checks.constraints),
        );
        let truth_batch =
            truth.select_rows(&(i * rows..(i + 1) * rows).collect::<Vec<_>>()).map_err(|e| e.to_string())?;
        quality.add(Quality::of(batch, &truth_batch, &repairs));
    }
    Ok(quality)
}

/// Traced runs of the batch workloads: the same request batches over HTTP
/// against an in-process server holding the workload's model, for the
/// serving layer's counters and the HTTP share of a clean's latency.
pub fn http_probe(
    mut artifact: ModelArtifact,
    threads: usize,
    requests: &Requests,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<(), String> {
    artifact.set_threads(threads);
    let registry = Arc::new(ModelRegistry::new());
    registry.register(artifact.clone());
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 2 };
    let server = Server::bind(&config, registry).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
    // One connection, sending the ingests after the same clean requests as
    // the in-process replay below, so both see the same model growth.
    let (exchanges, metrics) = std::thread::scope(|s| {
        let running = s.spawn(move || server.run());
        let mut exchanges = Vec::new();
        match Connection::connect(addr, TIMEOUT) {
            Ok(mut conn) => {
                let mut next_ingest = 0;
                for (i, batch) in requests.clean.iter().enumerate() {
                    let start = Instant::now();
                    let reply = conn.request("POST", "/clean", to_csv(batch).as_bytes());
                    exchanges.push(("POST /clean", i, start.elapsed().as_secs_f64() * 1e3, reply));
                    if next_ingest < requests.ingest.len() && requests.ingest_after(next_ingest) == i {
                        let reply =
                            conn.request("POST", "/ingest", to_csv(&requests.ingest[next_ingest]).as_bytes());
                        exchanges.push(("POST /ingest", next_ingest, f64::NAN, reply));
                        next_ingest += 1;
                    }
                }
            }
            Err(e) => exchanges.push(("connect", 0, f64::NAN, Err(e))),
        }
        let metrics = Connection::connect(addr, TIMEOUT).and_then(|mut c| c.request("GET", "/metrics", b""));
        handle.shutdown();
        let stopped = running.join().map(|r| r.is_ok()).unwrap_or(false);
        ops.record("probe.server_stop", stopped);
        (exchanges, metrics)
    });
    let mut client_ms = Vec::new();
    for (endpoint, i, ms, reply) in &exchanges {
        if http_op(ops, endpoint, reply) && *endpoint == "POST /clean" && i % 2 == 0 {
            client_ms.push(*ms);
        }
    }
    if http_op(ops, "GET /metrics", &metrics) {
        let json = metrics.map(|r| r.text()).unwrap_or_default();
        for (key, name) in COUNTERS {
            tr.value(name, metric(&json, key).map_or(f64::NAN, |v| v as f64));
        }
    }
    let (inproc, _) = replay_in_process(&artifact, requests, tr, ops);
    tr.value("serve.http_overhead_ms", median(&client_ms) - median(&inproc.clean_ms[0]));
    Ok(())
}
