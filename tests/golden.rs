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
//! Two narrower digests ride along with each case: the per-user class
//! vector (the orphan taxonomy of Figs. 6/7) and the records of every
//! whole-trace single-LPPM outcome. A change may move the CSV and
//! report digests while these two stay put — a change to how
//! compositions draw their noise, for one, alters only what
//! multi-LPPM and fine-grained users publish.
//!
//! A third pin covers the service: the request and response bodies of
//! a fixed `POST /v1/protect` script, so the wire codec is held to the
//! same bytes as the protection it carries.
//!
//! A change that alters a digest alters what MooD publishes. Such a
//! change updates the digest in the same commit and says why in
//! CHANGES.md; a refactor or an optimisation never touches this file.

use mood_core::{
    protect_dataset_with, publish, EngineBuilder, ExecutorKind, MoodEngine, ProtectionOutcome,
    ProtectionReport,
};
use mood_serve::{
    request_seed, EngineTemplate, ProtectRequest, ProtectResponse, ProtectResult, Response,
};
use mood_synth::{presets, DatasetSpec};
use mood_trace::{io as trace_io, TimeDelta};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed digests of one corpus's protection.
#[derive(Debug, PartialEq)]
struct Digests {
    /// The published CSV `mood protect --out` writes.
    csv: u64,
    /// The pretty-printed report JSON `mood protect --report` writes.
    report: u64,
    /// Every user's class, in report order.
    classes: u64,
    /// `(user, lppm name, records)` of every whole-trace outcome whose
    /// winner is a single LPPM, in report order.
    singles: u64,
}

fn output_digests(report: &ProtectionReport) -> Digests {
    let (published, _) = publish(report.outcomes());
    let mut csv = Vec::new();
    trace_io::write_csv(&published, &mut csv).expect("in-memory CSV");
    let json = serde_json::to_string_pretty(&report.summary()).expect("serializable summary");
    let mut classes = Vec::new();
    let mut singles = Vec::new();
    for outcome in report.outcomes() {
        classes.extend_from_slice(format!("{}\t{}\n", outcome.user, outcome.class).as_bytes());
        if let ProtectionOutcome::Whole(p) = &outcome.outcome {
            if !p.lppm.contains('→') {
                singles.extend_from_slice(format!("{}\t{}\n", outcome.user, p.lppm).as_bytes());
                for r in p.trace.records() {
                    singles.extend_from_slice(&r.point().lat().to_bits().to_le_bytes());
                    singles.extend_from_slice(&r.point().lng().to_bits().to_le_bytes());
                    singles.extend_from_slice(&r.time().as_unix().to_le_bytes());
                }
            }
        }
    }
    Digests {
        csv: fnv1a64(&csv),
        report: fnv1a64(json.as_bytes()),
        classes: fnv1a64(&classes),
        singles: fnv1a64(&singles),
    }
}

/// One pinned corpus: a preset at a scale and master seed, and the
/// committed digests of its protection.
struct Case {
    spec: DatasetSpec,
    digests: Digests,
}

/// One case per synth preset. Between them the corpora reach every
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
            digests: Digests {
                csv: 0xd4a1ed5d2083213b,
                report: 0x313179e150992a0a,
                classes: 0x4ea4297d77f7af6f,
                singles: 0x5d371d6b6027484d,
            },
        },
        Case {
            spec: seeded(presets::mdc_like(), 0.1, 2),
            digests: Digests {
                csv: 0xbe001cb2935bd9ff,
                report: 0x03c7e87229497667,
                classes: 0x64f93d03a4fb08ba,
                singles: 0x2f2ccc76b8cd4dd6,
            },
        },
        Case {
            spec: seeded(presets::geolife_like(), 0.2, 3),
            digests: Digests {
                csv: 0x965836daa2926117,
                report: 0xc347a36eb03fcf7d,
                classes: 0x550bc859019f7ccf,
                singles: 0x418388399bb2a127,
            },
        },
        Case {
            spec: seeded(presets::cabspotting_like(), 0.02, 4),
            digests: Digests {
                csv: 0x4cf0821b5055810e,
                report: 0xb5aef1c3ffc11365,
                classes: 0x54cb0965296632ad,
                singles: 0x99b0f0895cbf5fac,
            },
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
            "{} (seed {}) on {executor} x{threads}: published digests {:#018x?}",
            case.spec.name, case.spec.seed, got
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

/// The server seed of the pinned request script.
const SERVER_SEED: u64 = 0x5eed_0001;

/// Digests of the bytes `mood serve` reads and writes for one fixed
/// request script: the first three user-days of every privamov-like
/// ×0.3 (seed 1) test user, sent as `POST /v1/protect` bodies with
/// request ids 0, 1, 2, … in that order. Each request body must also
/// parse back to an equal request.
#[test]
fn served_bytes_match_committed_digests() {
    let mut spec = presets::privamov_like().scaled(0.3);
    spec.seed = 1;
    let (background, test) = spec
        .generate()
        .split_chronological(TimeDelta::from_days(15));
    let template = EngineTemplate::paper_default(&background);
    let (mut requests, mut responses) = (Vec::new(), Vec::new());
    let days = test
        .iter()
        .flat_map(|trace| trace.windows(TimeDelta::from_days(1)).into_iter().take(3));
    for (request_id, trace) in (0u64..).zip(days) {
        let request = ProtectRequest {
            request_id,
            trace,
            budget: None,
        };
        let body = serde_json::to_string(&request).expect("serializable request");
        let parsed: ProtectRequest = serde_json::from_str(&body).expect("request parses back");
        assert_eq!(parsed, request, "request {request_id} round-trips");
        requests.extend_from_slice(body.as_bytes());
        let seed = request_seed(SERVER_SEED, request_id);
        let outcome = template.engine_for(seed).protect_user(&request.trace);
        let response = Response::json(
            200,
            &ProtectResponse {
                request_id,
                seed,
                result: ProtectResult::from_outcome(&outcome),
            },
        );
        assert_eq!(response.status, 200, "request {request_id} serializes");
        responses.extend_from_slice(&response.body);
    }
    let got = (fnv1a64(&requests), fnv1a64(&responses));
    assert_eq!(
        got,
        (0xec125b2005050365, 0x7b9c662b2f35ee30),
        "served digests (requests, responses) {got:#018x?}"
    );
}
