//! Absolute pin of MooD's published output.
//!
//! `tests/determinism.rs` compares one run with another and
//! `tests/executor_determinism.rs` compares every backend with the
//! sequential one. Both stay green when a change shifts every run the
//! same way. This test does not: it commits FNV-1a-64 digests of the
//! bytes `mood protect` writes — the published (pseudonymized) CSV and
//! the pretty-printed report JSON — for fixed-seed corpora at small
//! scale, protected by the `paper_default` engine on the sequential
//! executor and on persistent pools of two threads.
//!
//! A change that alters a digest alters what MooD publishes. Such a
//! change updates the digest in the same commit and says why in
//! CHANGES.md; a refactor or an optimisation never touches this file.

use mood_core::{
    protect_dataset_with, publish, EngineBuilder, ExecutorKind, MoodEngine, ProtectionReport,
};
use mood_synth::{presets, DatasetSpec};
use mood_trace::{io as trace_io, TimeDelta};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of the two files `mood protect --out --report` writes.
fn output_digests(report: &ProtectionReport) -> (u64, u64) {
    let (published, _) = publish(report.outcomes());
    let mut csv = Vec::new();
    trace_io::write_csv(&published, &mut csv).expect("in-memory CSV");
    let json = serde_json::to_string_pretty(&report.summary()).expect("serializable summary");
    (fnv1a64(&csv), fnv1a64(json.as_bytes()))
}

/// One pinned corpus: a preset at a scale and master seed, and the
/// committed `(csv, report)` digests of its protection.
struct Case {
    spec: DatasetSpec,
    digests: (u64, u64),
}

/// Between them the two corpora (12 and 14 users) reach every
/// non-orphan class: naturally protected, single-LPPM, multi-LPPM and
/// fine-grained.
fn cases() -> Vec<Case> {
    let seeded = |spec: DatasetSpec, scale: f64, seed: u64| {
        let mut spec = spec.scaled(scale);
        spec.seed = seed;
        spec
    };
    vec![
        Case {
            spec: seeded(presets::privamov_like(), 0.3, 1),
            digests: (0x5d07e73a0d96a24c, 0xf89306d9f202a06a),
        },
        Case {
            spec: seeded(presets::mdc_like(), 0.1, 2),
            digests: (0x13df6cfcf2fba849, 0x2bc9fbd8fd0e9ce1),
        },
    ]
}

fn check(executor: ExecutorKind, threads: usize) {
    for case in cases() {
        let (background, test) = case
            .spec
            .generate()
            .split_chronological(TimeDelta::from_days(15));
        // Both levels of parallelism run on the backend under test:
        // users in the pipeline, candidates in the engine.
        let engine: MoodEngine = EngineBuilder::paper_default(&background)
            .executor(executor.build(threads))
            .build()
            .expect("paper defaults are valid");
        let report = protect_dataset_with(&engine, &test, executor.build(threads).as_ref());
        let got = output_digests(&report);
        assert_eq!(
            got, case.digests,
            "{} (seed {}) on {executor} x{threads}: published digests {:#018x}/{:#018x}",
            case.spec.name, case.spec.seed, got.0, got.1
        );
    }
}

#[test]
fn sequential_output_matches_committed_digests() {
    check(ExecutorKind::Sequential, 1);
}

#[test]
fn persistent_output_matches_committed_digests() {
    check(ExecutorKind::Persistent, 2);
}
