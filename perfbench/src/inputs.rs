//! Workloads and their inputs, written to files before the measured process
//! (or the daemon) starts, so the program under test only ever sees files
//! on disk.
//!
//! The tables the models are fit on are fixed per workload, as a benchmark
//! dataset is: a clean table from the datagen generator and 5% injected
//! errors, both from fixed seeds. `--seed` draws which held-out rows make up
//! the request batches (and the serving verification round), and in which
//! order. Seeding the tables themselves changes the learned structure, and
//! with it the model's size: across seeds 1–4 the serving daemon's peak
//! memory ranged over 59–156 MB and its ingest compile over 9–23 ms, which
//! no regression bound could hold.

use std::path::Path;

use bclean_core::{BClean, ConstraintSet, Variant};
use bclean_data::{read_csv_file, write_csv_file, Dataset};
use bclean_datagen::scale::generate_wide_clean;
use bclean_datagen::{inject_errors, BenchmarkDataset, DirtyDataset, ErrorSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rows per clean request: requests alternate between these two sizes, so
/// a request-level scaling exponent comes from the same stream.
pub const CLEAN_BATCH_ROWS: [usize; 2] = [4, 16];
/// Rows per ingest request.
pub const INGEST_BATCH_ROWS: usize = 20;
/// Rows per chunk of the streamed CSV.
pub const CHUNK_ROWS: usize = 500;
/// Rows the serving model is fit on before the daemon starts.
pub const SERVE_FIT_ROWS: usize = 2000;
/// Verification batches after each serving load phase (16 rows each).
pub const VERIFY_BATCHES: usize = 25;
/// Rows of the pool the clean requests cycle through.
const CLEAN_POOL_ROWS: usize = 400;
/// Held-out rows the request batches are drawn from.
const HELD_OUT_ROWS: usize = 2000;
/// Seed of the clean tables and of their error injection.
const TABLE_SEED: u64 = 42;
/// Cell noise of both tables: Hospital's Table-2 rate, and wide-32's.
const NOISE_RATE: f64 = 0.05;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hospital through the one-shot path, serially, at n and 4n rows.
    HospitalOneshot,
    /// wide-32 through `clean_stream` at 2 threads, at n and 4n rows.
    WideStream,
    /// A Hospital model behind the daemon, under a closed clean + ingest loop.
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        [Workload::HospitalOneshot, Workload::WideStream, Workload::ServeMixed]
            .into_iter()
            .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HospitalOneshot => "hospital-oneshot",
            Workload::WideStream => "wide-stream",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Rows of the small table (the large one has four times as many).
    /// The serving workload's fit table plays the large role in traced
    /// layer probes.
    pub fn small_rows(self) -> usize {
        match self {
            Workload::HospitalOneshot | Workload::WideStream => 1000,
            Workload::ServeMixed => SERVE_FIT_ROWS / 4,
        }
    }

    pub fn large_rows(self) -> usize {
        4 * self.small_rows()
    }

    /// Worker threads of the cleaner (and daemon workers for serving).
    pub fn threads(self) -> usize {
        match self {
            Workload::HospitalOneshot => 1,
            Workload::WideStream | Workload::ServeMixed => 2,
        }
    }

    /// Clean-request pairs (one request of each size) and ingest requests
    /// per round.
    pub fn requests_per_round(self) -> (usize, usize) {
        match self {
            Workload::HospitalOneshot | Workload::WideStream => (150, 10),
            Workload::ServeMixed => (150, 20),
        }
    }

    fn is_hospital(self) -> bool {
        self != Workload::WideStream
    }

    /// The cleaner every path of this workload fits with.
    pub fn cleaner(self, constraints: ConstraintSet) -> BClean {
        let threads = if self == Workload::ServeMixed { 1 } else { self.threads() };
        BClean::new(Variant::PartitionedInference.config().with_threads(threads))
            .with_constraints(constraints)
    }
}

/// File names inside a run's work directory.
pub mod file {
    pub const SMALL: &str = "data_small.csv";
    pub const LARGE: &str = "data_large.csv";
    pub const TRUTH_LARGE: &str = "truth_large.csv";
    pub const SPEC: &str = "spec.bc";
    pub const CLEAN_POOL: &str = "clean_pool.csv";
    pub const INGEST_POOL: &str = "ingest_pool.csv";
    pub const MODEL: &str = "model.bclean";
    pub const VERIFY: &str = "verify.csv";
    pub const VERIFY_TRUTH: &str = "verify_truth.csv";
}

fn write(table: &Dataset, dir: &Path, name: &str) -> Result<(), String> {
    write_csv_file(table, dir.join(name)).map_err(|e| format!("cannot write {name}: {e}"))
}

fn rows(table: &Dataset, start: usize, len: usize) -> Result<Dataset, String> {
    let idx: Vec<usize> = (start..start + len).collect();
    table.select_rows(&idx).map_err(|e| e.to_string())
}

/// Hospital gets the Table-3 user constraints; wide-32 has none.
pub fn constraints(workload: Workload) -> ConstraintSet {
    if workload.is_hospital() {
        bclean_eval::inputs::bclean_constraints(BenchmarkDataset::Hospital)
    } else {
        ConstraintSet::new()
    }
}

/// Generate every input of `workload` for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let (_, ingests) = workload.requests_per_round();
    let ingest_rows = ingests * INGEST_BATCH_ROWS;
    let verify_rows = if workload == Workload::ServeMixed { VERIFY_BATCHES * CLEAN_BATCH_ROWS[1] } else { 0 };
    let head = workload.large_rows();
    let total = head + HELD_OUT_ROWS;
    // Typos, missing values and inconsistencies: both datasets' default mix.
    let clean = if workload.is_hospital() {
        BenchmarkDataset::Hospital.generate_clean(total, TABLE_SEED)
    } else {
        generate_wide_clean(total, TABLE_SEED)
    };
    let bench: DirtyDataset = inject_errors(&clean, &ErrorSpec::default_mix(NOISE_RATE), TABLE_SEED);
    let mut held_out: Vec<usize> = (head..total).collect();
    held_out.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut draw = held_out.into_iter();
    let mut take = |len: usize| -> Vec<usize> { draw.by_ref().take(len).collect() };
    let (clean_pool, ingest_pool, verify) = (take(CLEAN_POOL_ROWS), take(ingest_rows), take(verify_rows));
    let pick = |table: &Dataset, rows: &[usize]| table.select_rows(rows).map_err(|e| e.to_string());

    let spec = constraints(workload).to_spec_text()?;
    std::fs::write(dir.join(file::SPEC), spec).map_err(|e| format!("cannot write spec: {e}"))?;
    write(&pick(&bench.dirty, &clean_pool)?, dir, file::CLEAN_POOL)?;
    write(&pick(&bench.dirty, &ingest_pool)?, dir, file::INGEST_POOL)?;
    write(&rows(&bench.dirty, 0, workload.small_rows())?, dir, file::SMALL)?;
    write(&rows(&bench.dirty, 0, head)?, dir, file::LARGE)?;
    if workload == Workload::ServeMixed {
        write(&pick(&bench.dirty, &verify)?, dir, file::VERIFY)?;
        write(&pick(&bench.clean, &verify)?, dir, file::VERIFY_TRUTH)?;
        // The model the daemon serves: what `bclean fit` makes of the file.
        let fit = read_csv_file(dir.join(file::LARGE)).map_err(|e| e.to_string())?;
        let artifact = workload.cleaner(constraints(workload)).fit_artifact(&fit);
        artifact.save(dir.join(file::MODEL)).map_err(|e| format!("cannot save the model: {e}"))?;
    } else {
        write(&rows(&bench.clean, 0, head)?, dir, file::TRUTH_LARGE)?;
    }
    Ok(())
}

/// The request batches every workload replays, cut from the pools in a
/// fixed order: clean requests alternate 4 and 16 rows, cycling through
/// the clean pool; ingest batches are consecutive 20-row slices.
pub struct Requests {
    pub clean: Vec<Dataset>,
    pub ingest: Vec<Dataset>,
}

impl Requests {
    pub fn load(workload: Workload, dir: &Path) -> Result<Requests, String> {
        let (pairs, ingests) = workload.requests_per_round();
        let read = |name: &str| read_csv_file(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"));
        let pool = read(file::CLEAN_POOL)?;
        let ingest_pool = read(file::INGEST_POOL)?;
        let mut clean = Vec::with_capacity(2 * pairs);
        let mut at = 0;
        for i in 0..2 * pairs {
            let len = CLEAN_BATCH_ROWS[i % 2];
            if at + len > pool.num_rows() {
                at = 0;
            }
            clean.push(rows(&pool, at, len)?);
            at += len;
        }
        let ingest = (0..ingests)
            .map(|j| rows(&ingest_pool, j * INGEST_BATCH_ROWS, INGEST_BATCH_ROWS))
            .collect::<Result<_, _>>()?;
        Ok(Requests { clean, ingest })
    }

    /// After which clean request (index) the `j`-th ingest is sent, when
    /// the two streams are interleaved on one thread.
    pub fn ingest_after(&self, j: usize) -> usize {
        (j + 1) * self.clean.len() / self.ingest.len() - 1
    }
}
