//! Shared machinery for the perf-trajectory benchmarks: the serialized
//! row formats of `exp_throughput` (batch protection, users/sec) and
//! `exp_eval_throughput` (attack evaluation, records/sec), the combined
//! baseline document committed under `crates/bench/baseline/`, and the
//! delta report `bench_delta` prints in CI.
//!
//! The baseline exists so every PR's CI log shows *where the hot paths
//! moved*: the comparison is informational (hardware varies, the CI
//! runner is single-core), but the trajectory — users/sec and
//! records/sec per executor — is recorded run over run.

use serde::{Deserialize, Serialize};

/// Where the committed baseline lives, relative to the workspace root.
pub const BASELINE_PATH: &str = "crates/bench/baseline/BENCH_throughput.json";
/// Where `exp_throughput` writes its fresh results.
pub const THROUGHPUT_PATH: &str = "results/throughput.json";
/// Where `exp_eval_throughput` writes its fresh results.
pub const EVAL_THROUGHPUT_PATH: &str = "results/eval_throughput.json";
/// Where `exp_serve_latency` writes its fresh results.
pub const SERVE_LATENCY_PATH: &str = "results/serve_latency.json";
/// Where `exp_candidate_scoring` writes its fresh results.
pub const CANDIDATE_SCORING_PATH: &str = "results/candidate_scoring.json";
/// Where `exp_ingest` writes its fresh results.
pub const INGEST_PATH: &str = "results/ingest.json";

/// One measured batch-protection configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Backend label (`sequential`, `pool`, `steal`, `persistent`).
    pub executor: String,
    /// Thread budget given to the backend.
    pub threads: usize,
    /// Users protected per run.
    pub users: usize,
    /// Records protected per run.
    pub records: usize,
    /// Wall-clock seconds of the measured run.
    pub wall_s: f64,
    /// Users per second.
    pub users_per_s: f64,
    /// Records per second.
    pub records_per_s: f64,
    /// Speedup relative to the sequential row of the same document.
    pub speedup_vs_sequential: f64,
}

/// The document `exp_throughput` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Dataset name.
    pub dataset: String,
    /// Human note about the scale factor.
    pub scale_note: String,
    /// One row per measured configuration.
    pub rows: Vec<ThroughputRow>,
}

/// One measured attack-evaluation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalThroughputRow {
    /// Backend label (`sequential`, `pool`, `steal`, `persistent`).
    pub executor: String,
    /// Thread budget given to the backend.
    pub threads: usize,
    /// Traces evaluated per run.
    pub traces: usize,
    /// Records covered per run.
    pub records: usize,
    /// Wall-clock seconds of the measured run.
    pub wall_s: f64,
    /// Traces per second.
    pub traces_per_s: f64,
    /// Records per second — the headline metric of `exp_eval_throughput`.
    pub records_per_s: f64,
    /// Speedup relative to the sequential row of the same document.
    pub speedup_vs_sequential: f64,
}

/// The document `exp_eval_throughput` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalThroughputReport {
    /// Dataset name.
    pub dataset: String,
    /// Human note about the scale factor.
    pub scale_note: String,
    /// One row per measured configuration.
    pub rows: Vec<EvalThroughputRow>,
}

/// One measured serve-latency configuration (loopback, in-process
/// server driven by `exp_serve_latency`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLatencyRow {
    /// Endpoint label (`protect`, `protect_batch`).
    pub endpoint: String,
    /// Concurrent keep-alive clients driving the endpoint.
    pub concurrency: usize,
    /// Requests measured (after warmup).
    pub requests: usize,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// Aggregate requests per second across all clients — the headline
    /// rate `bench_delta` compares.
    pub requests_per_s: f64,
}

/// The document `exp_serve_latency` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLatencyReport {
    /// Dataset name.
    pub dataset: String,
    /// Human note about the scale factor.
    pub scale_note: String,
    /// One row per measured configuration.
    pub rows: Vec<ServeLatencyRow>,
}

/// One measured candidate-scoring mode (`exp_candidate_scoring`):
/// attack-suite verdicts per second through `first_reidentifying`
/// (allocating `predict` path) vs. `first_reidentifying_with`
/// (scratch-arena path with pruned profile matching).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateScoringRow {
    /// Scoring mode (`predict` = the pre-scratch reference path,
    /// `scratch` = per-worker arenas + best-bound pruning).
    pub mode: String,
    /// Candidate traces scored per pass.
    pub candidates: usize,
    /// Records covered per pass.
    pub records: usize,
    /// Wall-clock seconds per pass (averaged over iterations).
    pub wall_s: f64,
    /// Candidates per second — the headline rate `bench_delta` compares.
    pub candidates_per_s: f64,
    /// Speedup relative to the `predict` row of the same document.
    pub speedup_vs_predict: f64,
}

/// One measured model kernel (`exp_candidate_scoring`'s micro section):
/// nanoseconds per verdict-sized call through the SoA hot loops —
/// Topsoe over sorted heatmap cells, the POI weighted nearest-distance,
/// and the PIT stationary half. Each timed pass first asserts the
/// kernel's result is bit-identical to the scalar reference walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelMicroRow {
    /// Kernel label (`kernel_topsoe`, `kernel_poi`, `kernel_pit`).
    pub kernel: String,
    /// Kernel calls per timed pass.
    pub calls: usize,
    /// Nanoseconds per call — the rate `bench_delta` compares.
    pub ns_per_call: f64,
}

/// The document `exp_candidate_scoring` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateScoringReport {
    /// Dataset name.
    pub dataset: String,
    /// Human note about the scale factor.
    pub scale_note: String,
    /// One row per measured mode.
    pub rows: Vec<CandidateScoringRow>,
    /// One row per measured model kernel.
    pub kernels: Vec<KernelMicroRow>,
}

/// One measured CSV-ingestion mode (`exp_ingest`): `read_csv` parses
/// into a fully materialized [`mood_trace::Dataset`]-shaped map;
/// `stream_csv` parses the same bytes straight into the compressed
/// chunked `TraceStore`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestRow {
    /// Ingestion mode (`read_csv` or `stream_csv`).
    pub mode: String,
    /// Records parsed per pass.
    pub records: usize,
    /// CSV payload size in bytes.
    pub csv_bytes: usize,
    /// Wall-clock seconds per pass (averaged over iterations).
    pub wall_s: f64,
    /// CSV megabytes parsed per second — the headline rate
    /// `bench_delta` compares.
    pub mb_per_s: f64,
    /// Records parsed per second.
    pub records_per_s: f64,
    /// Peak resident bytes of the destination during the pass: the full
    /// decoded dataset for `read_csv`, ingest buffers + encoded chunks
    /// for `stream_csv`.
    pub peak_resident_bytes: usize,
}

/// The document `exp_ingest` emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Dataset name.
    pub dataset: String,
    /// Human note about the scale factor.
    pub scale_note: String,
    /// One row per measured mode.
    pub rows: Vec<IngestRow>,
    /// Encoded chunk bytes per record in the streamed store.
    pub encoded_bytes_per_record: f64,
    /// Encoded size over in-memory `Vec<Record>` size (must stay
    /// ≤ 0.5 — asserted by `exp_ingest` itself).
    pub compression_ratio: f64,
}

/// The combined baseline document (`BENCH_throughput.json`): every
/// benchmark report, any of which may be absent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Batch-protection throughput at recording time.
    pub throughput: Option<ThroughputReport>,
    /// Attack-evaluation throughput at recording time.
    pub eval_throughput: Option<EvalThroughputReport>,
    /// HTTP serve latency at recording time.
    pub serve_latency: Option<ServeLatencyReport>,
    /// Candidate-scoring throughput at recording time.
    pub candidate_scoring: Option<CandidateScoringReport>,
    /// CSV-ingestion throughput at recording time.
    pub ingest: Option<IngestReport>,
}

/// Reads and parses a JSON document, `None` when the file is missing or
/// unparsable (the delta report is informational and must never fail a
/// build over a stale artifact).
pub fn read_json<T: Deserialize>(path: &str) -> Option<T> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Serializes `value` to `path` (pretty-printed), creating parent
/// directories as needed.
pub fn write_json<T: Serialize>(path: &str, value: &T) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)
}

/// Formats one delta line: `label: baseline -> current (+x.x%)`.
fn delta_line(label: &str, unit: &str, baseline: f64, current: f64) -> String {
    let delta = if baseline > 0.0 {
        (current / baseline - 1.0) * 100.0
    } else {
        0.0
    };
    format!("  {label:<18} {baseline:>10.1} -> {current:>10.1} {unit}  ({delta:+.1}%)")
}

/// Renders one benchmark section of the delta report: rows matched by
/// `(executor, threads)`, with the compared rate picked by `key`.
fn section_report<R>(
    out: &mut Vec<String>,
    title: &str,
    unit: &str,
    baseline: Option<(&[R], &str)>,
    current: Option<&[R]>,
    key: impl Fn(&R) -> (&str, usize, f64),
) {
    let (Some((base_rows, scale_note)), Some(cur_rows)) = (baseline, current) else {
        out.push(format!("{title}: no baseline or no fresh run"));
        return;
    };
    out.push(format!("{title} (baseline: {scale_note}):"));
    for row in cur_rows {
        let (executor, threads, current_rate) = key(row);
        let label = format!("{executor} x{threads}");
        match base_rows
            .iter()
            .map(&key)
            .find(|&(e, t, _)| e == executor && t == threads)
        {
            Some((_, _, baseline_rate)) => {
                out.push(delta_line(&label, unit, baseline_rate, current_rate))
            }
            None => out.push(format!("  {label:<18} (no baseline row)")),
        }
    }
}

/// Renders the informational delta report between the committed
/// baseline and freshly measured documents. Rows are matched by
/// `(executor, threads)`; rows present on only one side are noted, not
/// errors.
pub fn delta_report(baseline: &BenchBaseline, current: &BenchBaseline) -> Vec<String> {
    let mut out = Vec::new();
    section_report(
        &mut out,
        "protect_dataset throughput",
        "users/s",
        baseline
            .throughput
            .as_ref()
            .map(|r| (r.rows.as_slice(), r.scale_note.as_str())),
        current.throughput.as_ref().map(|r| r.rows.as_slice()),
        |r| (r.executor.as_str(), r.threads, r.users_per_s),
    );
    section_report(
        &mut out,
        "attack evaluation throughput",
        "records/s",
        baseline
            .eval_throughput
            .as_ref()
            .map(|r| (r.rows.as_slice(), r.scale_note.as_str())),
        current.eval_throughput.as_ref().map(|r| r.rows.as_slice()),
        |r| (r.executor.as_str(), r.threads, r.records_per_s),
    );
    section_report(
        &mut out,
        "serve latency (loopback)",
        "req/s",
        baseline
            .serve_latency
            .as_ref()
            .map(|r| (r.rows.as_slice(), r.scale_note.as_str())),
        current.serve_latency.as_ref().map(|r| r.rows.as_slice()),
        |r| (r.endpoint.as_str(), r.concurrency, r.requests_per_s),
    );
    section_report(
        &mut out,
        "candidate scoring",
        "cand/s",
        baseline
            .candidate_scoring
            .as_ref()
            .map(|r| (r.rows.as_slice(), r.scale_note.as_str())),
        current
            .candidate_scoring
            .as_ref()
            .map(|r| r.rows.as_slice()),
        |r| (r.mode.as_str(), 1, r.candidates_per_s),
    );
    section_report(
        &mut out,
        "csv ingestion",
        "MB/s",
        baseline
            .ingest
            .as_ref()
            .map(|r| (r.rows.as_slice(), r.scale_note.as_str())),
        current.ingest.as_ref().map(|r| r.rows.as_slice()),
        |r| (r.mode.as_str(), 1, r.mb_per_s),
    );
    section_report(
        &mut out,
        "model kernels (lower is better)",
        "ns/call",
        baseline
            .candidate_scoring
            .as_ref()
            .map(|r| (r.kernels.as_slice(), r.scale_note.as_str())),
        current
            .candidate_scoring
            .as_ref()
            .map(|r| r.kernels.as_slice()),
        |r| (r.kernel.as_str(), 1, r.ns_per_call),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(executor: &str, threads: usize, users_per_s: f64) -> ThroughputRow {
        ThroughputRow {
            executor: executor.into(),
            threads,
            users: 100,
            records: 1000,
            wall_s: 1.0,
            users_per_s,
            records_per_s: users_per_s * 10.0,
            speedup_vs_sequential: 1.0,
        }
    }

    fn baseline_with(rows: Vec<ThroughputRow>) -> BenchBaseline {
        BenchBaseline {
            throughput: Some(ThroughputReport {
                dataset: "privamov-like".into(),
                scale_note: "scale 0.3".into(),
                rows,
            }),
            eval_throughput: None,
            serve_latency: None,
            candidate_scoring: None,
            ingest: None,
        }
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let doc = baseline_with(vec![row("persistent", 4, 12.5)]);
        let json = serde_json::to_string_pretty(&doc).unwrap();
        let back: BenchBaseline = serde_json::from_str(&json).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn committed_baseline_parses_and_rewrites_byte_identically() {
        let text = include_str!("../baseline/BENCH_throughput.json");
        let doc: BenchBaseline = serde_json::from_str(text).expect("committed baseline parses");
        assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), text);
    }

    #[test]
    fn delta_report_matches_rows_by_executor_and_threads() {
        let base = baseline_with(vec![row("persistent", 4, 10.0), row("steal", 4, 8.0)]);
        let cur = baseline_with(vec![row("persistent", 4, 12.0), row("pool", 4, 9.0)]);
        let lines = delta_report(&base, &cur);
        let text = lines.join("\n");
        assert!(text.contains("persistent x4"), "{text}");
        assert!(text.contains("+20.0%"), "{text}");
        assert!(text.contains("pool x4"), "{text}");
        assert!(text.contains("no baseline row"), "{text}");
        assert!(
            text.contains("no baseline or no fresh run"),
            "eval section absent: {text}"
        );
    }

    #[test]
    fn read_json_tolerates_missing_files() {
        assert!(read_json::<BenchBaseline>("/nonexistent/path.json").is_none());
    }
}
