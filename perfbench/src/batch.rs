//! `batch-publish`: the paper's offline publication path, `mood protect`
//! in memory. Users fan out over a persistent pool of `nproc` workers;
//! each user's candidates run sequentially on its worker.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_core::obs::StageAgg;
use mood_core::{
    protect_dataset_with, publish, Executor, ExecutorKind, MoodEngine, ProtectionReport,
    SequentialExecutor, ENGINE_STAGES,
};
use mood_exec::map_indexed;
use mood_trace::{io as trace_io, Dataset, Trace};

use crate::layers::{with_raw_trace, Layers};
use crate::util::{self, median, ms, DigestWriter, Fnv, Measured};

/// Independently seeded privamov-like corpora a pass publishes, one
/// after another. One corpus has 41 users, so the share of them that
/// need composition search (0.44–0.61 over seeds 1–10) moves users/s
/// by a third from seed to seed; several corpora per pass average that
/// out while every corpus keeps the paper's shape.
const CORPORA: u64 = 4;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest timed passes a run reports on, however long each takes.
const MIN_PASSES: usize = 3;

/// One corpus: background knowledge and the test half to publish.
struct Corpus {
    background: Dataset,
    test: Dataset,
}

fn corpora(seed: u64) -> Vec<Corpus> {
    (0..CORPORA)
        .map(|k| {
            let (background, test) = util::privamov_split(seed.wrapping_mul(CORPORA) + k);
            Corpus { background, test }
        })
        .collect()
}

/// Digests of what `mood protect` writes: the report JSON and the
/// published (pseudonymized) CSV.
fn output_digest(report: &ProtectionReport) -> (u64, u64) {
    let (published, _) = publish(report.outcomes());
    let mut csv = DigestWriter(Fnv::new());
    trace_io::write_csv(&published, &mut csv).expect("digest sink never fails");
    (util::json_digest(&report.summary()), csv.0.finish())
}

fn csv_bytes(dataset: &Dataset) -> usize {
    let mut buf = Vec::new();
    trace_io::write_csv(dataset, &mut buf).expect("in-memory CSV");
    buf.len()
}

/// The sequential-executor report of every corpus, corpora spread over
/// `pool` (each report itself is computed on one thread).
fn references(
    engines: &[MoodEngine],
    corpora: &[Corpus],
    pool: &dyn Executor,
) -> Vec<ProtectionReport> {
    map_indexed(pool, corpora.len(), |k| {
        protect_dataset_with(&engines[k], &corpora[k].test, &SequentialExecutor)
    })
}

/// One publication pass: every corpus in turn, users on `executor`.
fn publish_pass(
    engines: &[MoodEngine],
    corpora: &[Corpus],
    executor: &dyn Executor,
) -> Vec<ProtectionReport> {
    engines
        .iter()
        .zip(corpora)
        .map(|(engine, corpus)| protect_dataset_with(engine, &corpus.test, executor))
        .collect()
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Measured {
    let corpora = corpora(seed);
    let threads = util::nproc();
    if traced {
        return run_traced(&corpora, threads, seconds);
    }

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut reference = None;
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let engines: Vec<MoodEngine> = corpora
            .iter()
            .map(|c| util::plain_engine(&c.background))
            .collect();
        let executor = ExecutorKind::Persistent.build(threads);
        setups.push(t0.elapsed().as_secs_f64());
        if reference.is_none() {
            // Computed once, on engines the timed passes never touch.
            let reports = references(&engines, &corpora, executor.as_ref());
            eprintln!(
                "batch-publish: {} corpora, {} users, {} records, {:.1} MB of CSV per pass; {}",
                corpora.len(),
                corpora.iter().map(|c| c.test.user_count()).sum::<usize>(),
                corpora.iter().map(|c| c.test.record_count()).sum::<usize>(),
                corpora.iter().map(|c| csv_bytes(&c.test)).sum::<usize>() as f64 / 1e6,
                util::describe_kinds(
                    reports
                        .iter()
                        .flat_map(|r| r.outcomes().iter().map(util::outcome_kind))
                )
            );
            reference = Some(reports.iter().map(output_digest).collect::<Vec<_>>());
        }
        built = Some((engines, executor));
    }
    let reference = reference.expect("at least one set-up");
    let (engines, executor) = built.expect("at least one set-up");

    let mut out = Measured::default();
    let check = |reports: Vec<ProtectionReport>, out: &mut Measured| {
        let digests: Vec<_> = reports.iter().map(output_digest).collect();
        out.attempted += 1;
        out.failed += u64::from(digests != reference);
    };
    // Warm-up pass: fills the engines' scratch pools and HMC plan caches.
    check(
        publish_pass(&engines, &corpora, executor.as_ref()),
        &mut out,
    );

    let mut passes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let t0 = Instant::now();
        let reports = publish_pass(&engines, &corpora, executor.as_ref());
        passes.push(t0.elapsed().as_secs_f64());
        check(reports, &mut out);
    }

    let pass_s = median(&passes);
    let users: usize = corpora.iter().map(|c| c.test.user_count()).sum();
    let bytes: usize = corpora.iter().map(|c| csv_bytes(&c.test)).sum();
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", util::peak_rss_mb());
    out.set("users_per_s", users as f64 / pass_s);
    out.set("mb_per_s", bytes as f64 / 1e6 / pass_s);
    eprintln!(
        "batch-publish: {} timed passes on {threads} threads",
        passes.len()
    );
    out
}

/// The traced run: the same passes on engines whose LPPMs and attacks
/// are wrapped in timing decorators, fanned out user by user so each
/// user's time is visible. Plain passes alternate with traced ones, and
/// every traced report must equal the plain reference exactly.
fn run_traced(corpora: &[Corpus], threads: usize, seconds: u64) -> Measured {
    let plain: Vec<MoodEngine> = corpora
        .iter()
        .map(|c| util::plain_engine(&c.background))
        .collect();
    let executor = ExecutorKind::Persistent.build(threads);
    let reference = references(&plain, corpora, executor.as_ref());

    let mut layers = Layers::default();
    let agg = Arc::new(StageAgg::new(&ENGINE_STAGES));
    let traced: Vec<MoodEngine> = corpora
        .iter()
        .map(|c| {
            layers
                .engine(&c.background)
                .stage_observer(Arc::clone(&agg))
                .build()
                .expect("paper defaults are valid")
        })
        .collect();
    let train_ms = layers.train_ms;

    // The reports, the pass's wall time and every user's time.
    let traced_pass = || {
        let t0 = Instant::now();
        let mut user_ms = Vec::new();
        let reports: Vec<ProtectionReport> = traced
            .iter()
            .zip(corpora)
            .map(|(engine, corpus)| {
                let traces: Vec<&Trace> = corpus.test.iter().collect();
                let timed = map_indexed(executor.as_ref(), traces.len(), |i| {
                    let u0 = Instant::now();
                    let outcome = with_raw_trace(traces[i], || engine.protect_user(traces[i]));
                    (outcome, ms(u0.elapsed()))
                });
                user_ms.extend(timed.iter().map(|(_, t)| *t));
                let mut outcomes: Vec<_> = timed.into_iter().map(|(o, _)| o).collect();
                outcomes.sort_by_key(|o| o.user);
                ProtectionReport::from_outcomes(outcomes)
            })
            .collect();
        (reports, ms(t0.elapsed()), user_ms)
    };

    let mut out = Measured::default();
    // Warm both engine sets, then start the counters from zero.
    let _ = publish_pass(&plain, corpora, executor.as_ref());
    let (warm, _, _) = traced_pass();
    out.attempted += 1;
    out.failed += u64::from(warm != reference);
    layers.reset();
    agg.drain();

    let (mut plain_ms, mut traced_ms, mut max_user_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut worker_ms = 0.0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while traced_ms.len() < MIN_PASSES || Instant::now() < deadline {
        let t0 = Instant::now();
        let reports = publish_pass(&plain, corpora, executor.as_ref());
        plain_ms.push(ms(t0.elapsed()));
        let (traced_reports, wall, user_ms) = traced_pass();
        traced_ms.push(wall);
        max_user_ms.push(user_ms.iter().copied().fold(0.0, f64::max));
        worker_ms += user_ms.iter().sum::<f64>();
        out.attempted += 2;
        out.failed += u64::from(reports != reference) + u64::from(traced_reports != reference);
    }

    let passes = traced_ms.len() as f64;
    let stage = |name: &str| {
        agg.snapshot()
            .into_iter()
            .find(|t| t.stage == name)
            .map_or((0.0, 0), |t| (t.ns as f64 / 1e6, t.count))
    };
    let (candidate_ms, candidates) = stage("candidate_eval");
    let (raw_check_ms, _) = stage("raw_check");
    assert_eq!(
        candidates,
        layers.candidates_scored(),
        "every scored candidate passes the first attack exactly once"
    );
    let candidate_attack_ms = layers.attack_ms() - layers.attack_raw_ms();

    layers.emit(&mut out, passes);
    out.set("attacks.train_ms", train_ms);
    out.set("core.candidates", candidates as f64 / passes);
    out.set(
        "core.resilient_ratio",
        layers.candidates_resilient() as f64 / candidates.max(1) as f64,
    );
    out.set(
        "core.candidate_other_ms",
        (candidate_ms - layers.lppm_ms() - candidate_attack_ms) / passes,
    );
    out.set("core.raw_check_ms", raw_check_ms / passes);
    out.set("core.user_ms.max", median(&max_user_ms));
    out.set(
        "exec.idle_share",
        1.0 - worker_ms / (traced_ms.iter().sum::<f64>() * threads as f64),
    );
    out.set(
        "core.unattributed_share",
        (worker_ms - candidate_ms - raw_check_ms) / worker_ms,
    );
    out.set(
        "tracing_overhead",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );
    out
}
