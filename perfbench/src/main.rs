//! End-to-end and per-layer benchmark of MooD.
//!
//! ```text
//! mood-perfbench --workload <batch-publish|serve-daily|ingest-audit>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks every output against a reference, and prints one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics of an undecorated run; `--trace 1` runs the
//! same workload with the LPPM and attack layers wrapped in timing
//! decorators and reports the per-layer metrics. Progress and input
//! properties go to standard error.

mod audit;
mod batch;
mod layers;
mod serve;
mod util;

use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`) with their units; every workload
/// reports all of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("users_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload never enters
/// reports 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("lppm.geo-i.self_ms", "ms"),
    ("lppm.geo-i.calls", "count"),
    ("lppm.trl.self_ms", "ms"),
    ("lppm.trl.calls", "count"),
    ("lppm.hmc.self_ms", "ms"),
    ("lppm.hmc.calls", "count"),
    ("attacks.poi.self_ms", "ms"),
    ("attacks.poi.calls", "count"),
    ("attacks.pit.self_ms", "ms"),
    ("attacks.pit.calls", "count"),
    ("attacks.ap.self_ms", "ms"),
    ("attacks.ap.calls", "count"),
    ("attacks.train_ms", "ms"),
    ("core.candidates", "count"),
    ("core.resilient_ratio", "ratio"),
    ("core.candidate_other_ms", "ms"),
    ("core.raw_check_ms", "ms"),
    ("core.user_ms.max", "ms"),
    ("exec.idle_share", "ratio"),
    ("exec.queue_wait_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.bytes_in", "B"),
    ("serve.bytes_out", "B"),
    ("serve.engine_ms", "ms"),
    ("driver.p50_ms.low", "ms"),
    ("driver.p95_ms.low", "ms"),
    ("driver.p50_ms.high", "ms"),
    ("driver.p95_ms.high", "ms"),
    ("driver.lag_ms.p99", "ms"),
    ("driver.wait_ms", "ms"),
    ("trace.ingest_ms", "ms"),
    ("trace.split_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.decodes", "count"),
    ("trace.evictions", "count"),
    ("trace.cache_hits", "count"),
    ("trace.peak_resident_bytes", "B"),
    ("trace.encoded_bytes_per_record", "B"),
    ("core.unattributed_share", "ratio"),
    ("tracing_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mood-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload.as_str() {
        "batch-publish" => batch::run(args.seed, args.seconds, args.trace),
        "serve-daily" => serve::run(args.seed, args.seconds, args.trace),
        "ingest-audit" => audit::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("mood-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let (table, default): (&[(&str, &str)], Option<f64>) = if args.trace {
        (&PER_LAYER, Some(0.0))
    } else {
        (&END_TO_END, None)
    };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = measured
            .metrics
            .get(name)
            .copied()
            .or(default)
            .unwrap_or_else(|| panic!("{} did not report {name}", args.workload));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let extra: Vec<_> = measured
        .metrics
        .keys()
        .filter(|k| !table.iter().any(|(name, _)| name == *k))
        .collect();
    assert!(extra.is_empty(), "unlisted metrics reported: {extra:?}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.failed == 0 && measured.attempted > 0,
        measured.attempted,
        measured.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
