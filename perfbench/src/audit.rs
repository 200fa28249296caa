//! `ingest-audit`: the raw-corpus re-identification audit, the paper's
//! no-LPPM bar, over a store-backed corpus. Each pass streams CSV bytes
//! into a `TraceStore` whose decode cache is far smaller than the
//! decoded test half, splits it, trains POI/PIT/AP on the decoded
//! background and evaluates the test half through the store. No LPPM
//! runs, so LPPM and distortion changes predict no change here.

use std::time::{Duration, Instant};

use mood_attacks::{
    ApAttack, Attack, AttackSuite, DatasetEvaluation, PitAttack, PoiAttack, ProfileStore,
};
use mood_core::{Executor, ExecutorKind};
use mood_synth::presets;
use mood_trace::{io as trace_io, Dataset, StoreConfig, StoreStats, TimeDelta, TraceStore};

use crate::layers::Layers;
use crate::util::{self, median, ms, Measured, TRAIN_SPAN_DAYS};

/// Decoded-trace cache budget: about a ninth of the decoded test half,
/// so evaluation decodes under eviction.
const CACHE_BUDGET_BYTES: usize = 1 << 20;
/// Executor start-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;
/// Fewest timed passes a run reports on.
const MIN_PASSES: usize = 3;

fn paper_attacks() -> [Box<dyn Attack>; 3] {
    [
        Box::new(PoiAttack::paper_default()),
        Box::new(PitAttack::paper_default()),
        Box::new(ApAttack::paper_default()),
    ]
}

fn split_span() -> TimeDelta {
    TimeDelta::from_days(TRAIN_SPAN_DAYS)
}

/// Step times of one pass, in ms.
#[derive(Default)]
struct Pass {
    ingest: f64,
    split: f64,
    decode_background: f64,
    train: f64,
    evaluate: f64,
    total: f64,
    test_stats: StoreStats,
    encoded_bytes: usize,
    records: usize,
}

/// One audit pass from CSV bytes to verdicts. `train` builds the suite
/// from the decoded background.
fn pass(
    csv: &[u8],
    executor: &dyn Executor,
    train: &mut dyn FnMut(&Dataset) -> AttackSuite,
) -> (DatasetEvaluation, Pass) {
    let config = StoreConfig::default().with_cache_budget(CACHE_BUDGET_BYTES);
    let t0 = Instant::now();
    let store = trace_io::stream_csv(csv, config).expect("generated CSV parses");
    let t1 = Instant::now();
    let (background, test) = store.split_chronological(split_span());
    let t2 = Instant::now();
    let background = background.to_dataset();
    let decoded = Instant::now();
    let suite = train(&background);
    let t3 = Instant::now();
    let evaluation = suite.evaluate_store_with(&test, executor);
    let t4 = Instant::now();
    let stats = store.stats();
    let timing = Pass {
        ingest: ms(t1 - t0),
        split: ms(t2 - t1),
        decode_background: ms(decoded - t2),
        train: ms(t3 - decoded),
        evaluate: ms(t4 - t3),
        total: ms(t4 - t0),
        test_stats: test.stats(),
        encoded_bytes: stats.encoded_bytes,
        records: stats.records,
    };
    (evaluation, timing)
}

fn plain_train(background: &Dataset) -> AttackSuite {
    let attacks = paper_attacks();
    let refs: Vec<&dyn Attack> = attacks.iter().map(|a| a.as_ref()).collect();
    AttackSuite::train(&refs, background)
}

/// Time to decode every test user once through a cold cache.
fn cold_sweep_ms(csv: &[u8]) -> f64 {
    let config = StoreConfig::default().with_cache_budget(CACHE_BUDGET_BYTES);
    let store: TraceStore = trace_io::stream_csv(csv, config).expect("generated CSV parses");
    let (_, test) = store.split_chronological(split_span());
    let t0 = Instant::now();
    for user in test.user_ids() {
        std::hint::black_box(test.trace(user));
    }
    ms(t0.elapsed())
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Measured {
    let corpus = util::seeded(presets::mdc_like(), seed).generate();
    let mut csv = Vec::new();
    trace_io::write_csv(&corpus, &mut csv).expect("in-memory CSV");
    let users = corpus.user_count() as f64;
    eprintln!(
        "ingest-audit: {users} users, {} records, {:.1} MB of CSV per pass; no LPPM, no composition search",
        corpus.record_count(),
        csv.len() as f64 / 1e6
    );
    drop(corpus);

    // Reference: the same bytes parsed in memory and evaluated there.
    let reference = {
        let dataset = trace_io::read_csv(&csv[..]).expect("generated CSV parses");
        let (background, test) = dataset.split_chronological(split_span());
        plain_train(&background).evaluate(&test)
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut executor = None;
    for _ in 0..SETUP_REPEATS {
        drop(executor.take());
        let t0 = Instant::now();
        executor = Some(ExecutorKind::Persistent.build(util::nproc()));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let executor = executor.expect("at least one set-up");

    let mut out = Measured::default();
    // Warm-up pass, checked like every other.
    let (warm, _) = pass(&csv, executor.as_ref(), &mut plain_train);
    out.attempted += 1;
    out.failed += u64::from(warm != reference);

    if !traced {
        let mut passes = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(seconds);
        while passes.len() < MIN_PASSES || Instant::now() < deadline {
            let (evaluation, timing) = pass(&csv, executor.as_ref(), &mut plain_train);
            passes.push(timing.total);
            out.attempted += 1;
            out.failed += u64::from(evaluation != reference);
        }
        let pass_ms = median(&passes);
        eprintln!("ingest-audit: {} timed passes", passes.len());
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", util::peak_rss_mb());
        out.set("users_per_s", users / pass_ms * 1e3);
        out.set("mb_per_s", csv.len() as f64 / 1e6 / pass_ms * 1e3);
        return out;
    }

    // Traced: plain and decorated passes alternate. Every decorated pass
    // trains through a fresh profile store, like the undecorated one.
    let mut layers = Layers::default();
    let traced_pass = |layers: &mut Layers| {
        pass(&csv, executor.as_ref(), &mut |background: &Dataset| {
            layers.train_suite(background, &ProfileStore::new())
        })
    };
    let (warm, _) = traced_pass(&mut layers);
    out.attempted += 1;
    out.failed += u64::from(warm != reference);
    layers.reset();

    let (mut plain_ms, mut traced_passes, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while traced_passes.len() < MIN_PASSES || Instant::now() < deadline {
        let (evaluation, timing) = pass(&csv, executor.as_ref(), &mut plain_train);
        plain_ms.push(timing.total);
        out.attempted += 1;
        out.failed += u64::from(evaluation != reference);
        let (evaluation, timing) = traced_pass(&mut layers);
        traced_passes.push(timing);
        out.attempted += 1;
        out.failed += u64::from(evaluation != reference);
        cold_ms.push(cold_sweep_ms(&csv));
    }

    let n = traced_passes.len() as f64;
    let mean = |f: &dyn Fn(&Pass) -> f64| traced_passes.iter().map(f).sum::<f64>() / n;
    layers.emit(&mut out, n);
    out.set("attacks.train_ms", layers.train_ms / n);
    out.set("trace.ingest_ms", mean(&|p| p.ingest));
    out.set("trace.split_ms", mean(&|p| p.split));
    out.set("trace.decode_ms", median(&cold_ms));
    out.set("trace.decodes", mean(&|p| p.test_stats.decodes as f64));
    out.set("trace.evictions", mean(&|p| p.test_stats.evictions as f64));
    out.set(
        "trace.cache_hits",
        mean(&|p| p.test_stats.cache_hits as f64),
    );
    out.set(
        "trace.peak_resident_bytes",
        mean(&|p| p.test_stats.peak_resident_bytes as f64),
    );
    out.set(
        "trace.encoded_bytes_per_record",
        mean(&|p| p.encoded_bytes as f64 / p.records as f64),
    );
    out.set(
        "core.unattributed_share",
        1.0 - mean(&|p| {
            (p.ingest + p.split + p.decode_background + p.train + p.evaluate) / p.total
        }),
    );
    let traced_ms: Vec<f64> = traced_passes.iter().map(|p| p.total).collect();
    out.set(
        "tracing_overhead",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );
    out
}
