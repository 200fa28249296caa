//! Untrusted request bodies: whatever bytes arrive, the JSON layer
//! answers with a typed error (a 400 on the wire) or a value, never a
//! panic or an abort.
//!
//! The server test sends bodies nested far past the parser's depth
//! limit, which once overflowed the recursive parser's stack and took
//! the whole process down. The property tests fuzz
//! `serde_json::from_slice::<ProtectRequest>` directly: random bytes,
//! every truncation of a valid body and a single-byte mutation of it at
//! every position.

use mood_geo::GeoPoint;
use mood_serve::{fetch, EngineTemplate, MoodServer, ProtectRequest, ServeConfig};
use mood_synth::presets;
use mood_trace::{Record, TimeDelta, Timestamp, Trace, UserId};
use proptest::prelude::*;

/// 200 KB of `[`: far past the parser's nesting limit.
fn brackets() -> Vec<u8> {
    vec![b'['; 200 * 1024]
}

#[test]
fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
    let (background, _) = presets::privamov_like()
        .scaled(0.05)
        .generate()
        .split_chronological(TimeDelta::from_days(15));
    let config = ServeConfig {
        connection_workers: 2,
        executor_threads: 1,
        ..ServeConfig::default()
    };
    let server = MoodServer::start(config, EngineTemplate::paper_default(&background))
        .expect("bind loopback server");
    let addr = server.local_addr();

    // The same nesting where the request's own shape expects it (the
    // body itself) and under a key the request skips.
    let mut under_unknown_key = br#"{"request_id":1,"padding":"#.to_vec();
    under_unknown_key.extend(brackets());
    for body in [brackets(), under_unknown_key] {
        let resp = fetch(addr, "POST", "/v1/protect", Some(&body)).expect("answered");
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let health = fetch(addr, "GET", "/healthz", None).expect("answered");
        assert_eq!(health.status, 200);
    }
    server.shutdown();
}

/// A valid request: 1–24 records with full-precision coordinates,
/// any replay id, with or without a budget.
fn arb_request() -> impl Strategy<Value = ProtectRequest> {
    (
        0u64..u64::MAX,
        0u64..1_000_000,
        collection::vec(
            (-90.0f64..90.0, -180.0f64..180.0, 0i64..2_000_000_000),
            1..24,
        ),
        0u64..4,
    )
        .prop_map(|(request_id, user, fixes, budget)| {
            let records = fixes
                .into_iter()
                .map(|(lat, lng, t)| {
                    Record::new(
                        GeoPoint::new(lat, lng).expect("in range"),
                        Timestamp::from_unix(t),
                    )
                })
                .collect();
            ProtectRequest {
                request_id,
                trace: Trace::new(UserId::new(user), records).expect("non-empty"),
                budget: (budget > 0).then_some(budget * 1000),
            }
        })
}

/// Bytes drawn mostly from JSON's own alphabet, so the parser gets past
/// its first token.
fn arb_jsonish() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] =
        b"{}[]\":, \n0123456789.-+eEtruefalsn\\u\"request_idtracebudget\xff\xc3";
    collection::vec(0usize..ALPHABET.len() + 32, 0..160).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| match ALPHABET.get(i) {
                Some(&b) => b,
                None => (i - ALPHABET.len()) as u8 * 8,
            })
            .collect()
    })
}

fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u16..256, len).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_bodies_round_trip(request in arb_request()) {
        let body = serde_json::to_vec(&request).unwrap();
        prop_assert_eq!(serde_json::from_slice::<ProtectRequest>(&body).unwrap(), request.clone());
        let pretty = serde_json::to_string_pretty(&request).unwrap();
        prop_assert_eq!(serde_json::from_str::<ProtectRequest>(&pretty).unwrap(), request);
    }

    #[test]
    fn random_bytes_never_panic(bytes in arb_bytes(0..256), jsonish in arb_jsonish()) {
        let _ = serde_json::from_slice::<ProtectRequest>(&bytes);
        let _ = serde_json::from_slice::<ProtectRequest>(&jsonish);
        let _ = serde_json::from_slice::<serde_json::Value>(&jsonish);
    }

    #[test]
    fn every_truncation_is_an_error(request in arb_request()) {
        let body = serde_json::to_vec(&request).unwrap();
        for end in 0..body.len() {
            prop_assert!(serde_json::from_slice::<ProtectRequest>(&body[..end]).is_err());
        }
    }

    #[test]
    fn single_byte_mutations_never_panic(
        request in arb_request(),
        bytes in arb_bytes(64..65),
    ) {
        let body = serde_json::to_vec(&request).unwrap();
        for at in 0..body.len() {
            let mut mutated = body.clone();
            mutated[at] = bytes[at % bytes.len()];
            let Ok(parsed) = serde_json::from_slice::<ProtectRequest>(&mutated) else {
                continue;
            };
            // Whatever parses survives its own round trip, unless an
            // overflowing exponent made a coordinate infinite, which
            // the writer refuses.
            if let Ok(again) = serde_json::to_vec(&parsed) {
                prop_assert_eq!(serde_json::from_slice::<ProtectRequest>(&again).unwrap(), parsed);
            }
        }
    }
}
