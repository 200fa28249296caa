//! `serve-daily`: the paper's crowdsensing deployment. An in-process
//! `MoodServer` on loopback receives one user-day per `POST /v1/protect`
//! from a seeded open-loop driver in three phases: light load, heavy
//! load, and overload (to measure capacity).
//!
//! The driver is open-loop: each request has a due time fixed by the
//! seeded schedule, whatever the server is doing, and `nproc` client
//! threads send them over fresh connections in schedule order. Latency
//! runs from the due time to the last response byte, so time a request
//! waits for a free connection counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mood_core::{ExecutorKind, UserProtection};
use mood_serve::{
    fetch, request_seed, EngineTemplate, MoodServer, ProtectRequest, ProtectResponse,
    ProtectResult, Response, ServeConfig,
};
use mood_trace::{Dataset, TimeDelta, Trace};

use crate::layers::Layers;
use crate::util::{self, median, mix64, ms, quantile, Fnv, Measured};

/// Verified `POST /v1/protect` responses per second this server
/// sustains: 300–380 on a 2-vCPU x86-64 virtual machine (privamov-like
/// corpus, `nproc` connection workers and executor threads). Phase
/// rates are fixed shares of it; it sits near the low end so the
/// overload phase stays above capacity.
const CAPACITY_RPS: f64 = 320.0;
/// Offered load of each phase as a share of [`CAPACITY_RPS`], and the
/// share of the run's seconds the phase is planned to take.
const PHASES: [Phase; 3] = [
    Phase {
        name: "low",
        load: 0.25,
        share: 0.25,
    },
    Phase {
        name: "high",
        load: 0.6,
        share: 0.25,
    },
    Phase {
        name: "overload",
        load: 1.5,
        share: 0.5,
    },
];
/// Fewest requests in a phase, so p95 has at least ten samples above it.
const MIN_PHASE_REQUESTS: usize = 200;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Requests sent before the phases, to warm the server's caches.
const WARMUP_REQUESTS: usize = 40;
/// User-days replayed offline to measure the decorators' overhead.
const OVERHEAD_REQUESTS: usize = 120;

struct Phase {
    name: &'static str,
    load: f64,
    share: f64,
}

/// One user-day request, serialized once, with the digest of the only
/// correct response body.
struct DailyRequest {
    body: Vec<u8>,
    expected: u64,
}

/// What the client thread saw for one request.
struct Sample {
    idx: usize,
    phase: usize,
    due: Instant,
    /// When the request went out: its due time, or later if the client
    /// overslept (`slept`) or every client was busy (`!slept`).
    sent: Instant,
    done: Instant,
    slept: bool,
    ok: bool,
    bytes_out: usize,
}

/// Every user-day of the test half, in dataset order; the index is the
/// request id.
fn user_days(test: &Dataset) -> Vec<Trace> {
    test.iter()
        .flat_map(|trace| trace.windows(TimeDelta::from_days(1)))
        .collect()
}

fn protect_day(
    template: &EngineTemplate,
    server_seed: u64,
    id: u64,
    day: &Trace,
) -> UserProtection {
    template
        .engine_for(request_seed(server_seed, id))
        .protect_user(day)
}

fn response_for(server_seed: u64, id: u64, outcome: &UserProtection) -> ProtectResponse {
    ProtectResponse {
        request_id: id,
        seed: request_seed(server_seed, id),
        result: ProtectResult::from_outcome(outcome),
    }
}

fn body_digest(body: &[u8]) -> u64 {
    Fnv::new().bytes(body).finish()
}

fn serve_config() -> ServeConfig {
    let threads = util::nproc();
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        connection_workers: threads,
        executor_threads: threads,
        ..ServeConfig::default()
    }
}

/// Uniform draw in [0, 1) that is a pure function of `(seed, idx)`.
fn unit(seed: u64, idx: u64) -> f64 {
    (mix64(seed ^ mix64(idx)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The request schedule: for each phase, the events it sends as
/// (request index, due offset from the phase start). Requests cycle
/// through one seeded permutation of all user-days, so every phase
/// carries the corpus's own mix of light and heavy days. Inter-arrival
/// gaps are exponential (Poisson arrivals), each drawn from
/// `(seed, event index)`.
fn schedule(seed: u64, seconds: u64, requests: usize) -> Vec<Vec<(usize, Duration)>> {
    let mut order: Vec<usize> = (0..requests).collect();
    for i in (1..requests).rev() {
        order.swap(
            i,
            (mix64(seed ^ mix64(!(i as u64))) % (i as u64 + 1)) as usize,
        );
    }
    let mut event = 0u64;
    PHASES
        .iter()
        .map(|phase| {
            let rate = phase.load * CAPACITY_RPS;
            // The overload phase's planned time is its makespan at
            // capacity, not its (shorter) sending span.
            let planned = phase.share * seconds as f64 * rate / phase.load.max(1.0);
            let n = (planned as usize).max(MIN_PHASE_REQUESTS);
            let mut at = 0.0;
            (0..n)
                .map(|_| {
                    let pick = order[event as usize % requests];
                    event += 1;
                    at += -(1.0 - unit(seed, event)).ln() / rate;
                    (pick, Duration::from_secs_f64(at))
                })
                .collect()
        })
        .collect()
}

/// Drives `plan` open-loop with `nproc` client threads and no separate
/// generator: each free client claims the next event in schedule order,
/// sleeps until it is due, and sends it over a fresh connection. An
/// event that finds every client busy is sent as soon as one frees up,
/// so its wait counts in its latency. Phases run back to back.
fn drive(
    addr: std::net::SocketAddr,
    requests: &[DailyRequest],
    plan: &[Vec<(usize, Duration)>],
) -> Vec<Sample> {
    let mut events = Vec::new();
    let mut phase_start = Duration::ZERO;
    for (phase, phase_events) in plan.iter().enumerate() {
        events.extend(
            phase_events
                .iter()
                .map(|&(idx, offset)| (idx, phase, phase_start + offset)),
        );
        phase_start += phase_events.last().map_or(Duration::ZERO, |e| e.1);
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..util::nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    while let Some(&(idx, phase, offset)) =
                        events.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let due = start + offset;
                        let early = due.saturating_duration_since(Instant::now());
                        if !early.is_zero() {
                            std::thread::sleep(early);
                        }
                        let sent = Instant::now();
                        let response =
                            fetch(addr, "POST", "/v1/protect", Some(&requests[idx].body));
                        let done = Instant::now();
                        let (ok, bytes_out) = match response {
                            Ok(r) => (
                                r.status == 200 && body_digest(&r.body) == requests[idx].expected,
                                r.body.len(),
                            ),
                            Err(_) => (false, 0),
                        };
                        samples.push(Sample {
                            idx,
                            phase,
                            due,
                            sent,
                            done,
                            slept: !early.is_zero(),
                            ok,
                            bytes_out,
                        });
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// Latency of each sample in `phase`, from due time to last byte; a
/// failed or wrong response counts as missing every limit.
fn latencies(samples: &[Sample], phase: usize) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| if s.ok { ms(s.done - s.due) } else { f64::MAX })
        .collect()
}

/// Value of one un-labelled or `stage`-labelled series on `/metrics`.
fn scrape(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Measured {
    let (background, test) = util::privamov_split(seed);
    let days = user_days(&test);
    let config = serve_config();
    let server_seed = config.server_seed;

    // Expected responses, computed once, before and outside set-up.
    let reference = EngineTemplate::from_engine(&util::plain_engine(&background));
    let pool = ExecutorKind::Persistent.build(util::nproc());
    // Each user-day's expected response is reduced to its digest at
    // once; the full responses are kept only for the traced run's wire
    // replay, so the undecorated run's peak memory is the server's.
    let t0 = Instant::now();
    let computed = mood_exec::map_indexed(pool.as_ref(), days.len(), |i| {
        let t0 = Instant::now();
        let outcome = protect_day(&reference, server_seed, i as u64, &days[i]);
        let serial_ms = ms(t0.elapsed());
        let response = response_for(server_seed, i as u64, &outcome);
        let body = Response::json(200, &response).body;
        let kept = traced.then_some(response);
        (
            body_digest(&body),
            body.len(),
            kept,
            util::outcome_kind(&outcome),
            serial_ms,
        )
    });
    drop(pool);
    let serial: Vec<f64> = computed.iter().map(|c| c.4).collect();
    eprintln!(
        "serve-daily: offline engine per user-day: mean {:.2} ms, p50 {:.2} ms, max {:.1} ms (computed in {:.1} s); {}",
        serial.iter().sum::<f64>() / serial.len() as f64,
        median(&serial),
        serial.iter().copied().fold(0.0, f64::max),
        t0.elapsed().as_secs_f64(),
        util::describe_kinds(computed.iter().map(|c| c.3))
    );
    let requests: Vec<DailyRequest> = days
        .iter()
        .zip(&computed)
        .enumerate()
        .map(|(i, (day, c))| DailyRequest {
            body: serde_json::to_string(&ProtectRequest {
                request_id: i as u64,
                trace: day.clone(),
                budget: None,
            })
            .expect("requests serialize")
            .into_bytes(),
            expected: c.0,
        })
        .collect();
    let expected_out = computed.iter().map(|c| c.1).sum::<usize>();
    let expected: Vec<ProtectResponse> = computed.into_iter().filter_map(|c| c.2).collect();
    eprintln!(
        "serve-daily: {} user-day requests, {:.1} KB in / {:.1} KB out on average",
        requests.len(),
        requests.iter().map(|r| r.body.len()).sum::<usize>() as f64 / requests.len() as f64 / 1e3,
        expected_out as f64 / requests.len() as f64 / 1e3,
    );

    let mut layers = Layers::default();
    let mut out = Measured::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    let mut template = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            MoodServer::shutdown(previous);
        }
        layers.reset();
        let t0 = Instant::now();
        let engine = if traced {
            layers
                .engine(&background)
                .build()
                .expect("paper defaults are valid")
        } else {
            util::plain_engine(&background)
        };
        let built = EngineTemplate::from_engine(&engine);
        server = Some(MoodServer::start(config.clone(), built.clone()).expect("bind loopback"));
        setups.push(t0.elapsed().as_secs_f64());
        template = Some(built);
    }
    let template = template.expect("at least one set-up");
    let server = server.expect("at least one set-up");
    let addr = server.local_addr();
    let train_ms = layers.train_ms;

    // Warm-up, closed loop, then the measured phases.
    let warmup: Vec<Vec<(usize, Duration)>> = vec![(0..WARMUP_REQUESTS)
        .map(|i| {
            (
                (mix64(seed ^ 0x5eed) as usize + i) % requests.len(),
                Duration::ZERO,
            )
        })
        .collect()];
    let warm = drive(addr, &requests, &warmup);
    out.attempted += warm.len() as u64;
    out.failed += warm.iter().filter(|s| !s.ok).count() as u64;
    if traced {
        layers.reset();
    }

    let plan = schedule(seed, seconds, requests.len());
    let samples = drive(addr, &requests, &plan);
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let metrics = fetch(addr, "GET", "/metrics", None)
        .ok()
        .and_then(|r| String::from_utf8(r.body).ok())
        .unwrap_or_default();
    server.shutdown();

    // Capacity: verified completions per second while the overload
    // backlog keeps every connection busy, between the 10th and the
    // 90th percentile completion (ramp-up and drain excluded).
    let overload = PHASES.len() - 1;
    let mut over: Vec<&Sample> = samples.iter().filter(|s| s.phase == overload).collect();
    over.sort_by_key(|s| s.done);
    let (lo, hi) = (over.len() / 10, over.len() * 9 / 10);
    let window = (over[hi].done - over[lo].done).as_secs_f64();
    let saturated = &over[lo + 1..=hi];
    let served = saturated.iter().filter(|s| s.ok).count() as f64;
    for (i, phase) in PHASES.iter().enumerate() {
        let l = latencies(&samples, i);
        eprintln!(
            "serve-daily: phase {} at {:.0} req/s: {} requests, p50 {:.1} ms, p95 {:.1} ms",
            phase.name,
            phase.load * CAPACITY_RPS,
            l.len(),
            median(&l),
            quantile(&l, 0.95)
        );
    }

    if !traced {
        let mb_in: f64 = saturated
            .iter()
            .filter(|s| s.ok)
            .map(|s| requests[s.idx].body.len() as f64)
            .sum::<f64>()
            / 1e6;
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", util::peak_rss_mb());
        out.set("users_per_s", served / window);
        out.set("mb_per_s", mb_in / window);
        return out;
    }

    let n = samples.len() as f64;
    for (phase, p50, p95) in [
        (0, "driver.p50_ms.low", "driver.p95_ms.low"),
        (1, "driver.p50_ms.high", "driver.p95_ms.high"),
    ] {
        let l = latencies(&samples, phase);
        out.set(p50, median(&l));
        out.set(p95, quantile(&l, 0.95));
    }
    layers.emit(&mut out, n);
    out.set("attacks.train_ms", train_ms);
    let candidates = layers.candidates_scored();
    out.set("core.candidates", candidates as f64 / n);
    out.set(
        "core.resilient_ratio",
        layers.candidates_resilient() as f64 / candidates.max(1) as f64,
    );
    // Mean of a summary or histogram on `/metrics`, in ms.
    let mean_ms = |name: &str, labels: &str| {
        scrape(&metrics, &format!("{name}_sum{labels}")) * 1e3
            / scrape(&metrics, &format!("{name}_count{labels}")).max(1.0)
    };
    let stage_ms = |stage: &str| {
        mean_ms(
            "mood_serve_stage_seconds",
            &format!("{{stage=\"{stage}\"}}"),
        )
    };
    out.set(
        "exec.queue_wait_ms",
        mean_ms("mood_serve_queue_wait_seconds", ""),
    );
    out.set("serve.engine_ms", stage_ms("engine"));
    out.set(
        "core.unattributed_share",
        1.0 - (stage_ms("parse") + stage_ms("engine") + stage_ms("respond"))
            / mean_ms("mood_serve_request_seconds", ""),
    );
    // Lateness matters where latency is reported: the low and high
    // phases (the overload phase measures throughput only).
    let lag: Vec<f64> = samples
        .iter()
        .filter(|s| s.slept && s.phase < overload)
        .map(|s| ms(s.sent - s.due))
        .collect();
    out.set("driver.lag_ms.p99", quantile(&lag, 0.99));
    let high: Vec<f64> = samples
        .iter()
        .filter(|s| s.phase == 1)
        .map(|s| if s.slept { 0.0 } else { ms(s.sent - s.due) })
        .collect();
    out.set(
        "driver.wait_ms",
        high.iter().sum::<f64>() / high.len() as f64,
    );
    out.set(
        "serve.bytes_in",
        samples
            .iter()
            .map(|s| requests[s.idx].body.len() as f64)
            .sum::<f64>()
            / n,
    );
    out.set(
        "serve.bytes_out",
        samples.iter().map(|s| s.bytes_out as f64).sum::<f64>() / n,
    );

    // Wire layer, replayed on the exact bodies: request parse and
    // response build, per request.
    let t0 = Instant::now();
    for r in &requests {
        let parsed: ProtectRequest =
            serde_json::from_reader(&r.body[..]).expect("request bodies parse");
        std::hint::black_box(parsed);
    }
    out.set("serve.parse_ms", ms(t0.elapsed()) / requests.len() as f64);
    let t0 = Instant::now();
    for r in &expected {
        std::hint::black_box(Response::json(200, r));
    }
    out.set("serve.respond_ms", ms(t0.elapsed()) / expected.len() as f64);

    // Tracing overhead at the engine, where the decorators sit: the
    // same requests offline through the plain and the decorated
    // template, alternating. Decorated answers must match too.
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    for (i, day) in days.iter().enumerate().take(OVERHEAD_REQUESTS) {
        let t0 = Instant::now();
        std::hint::black_box(protect_day(&reference, server_seed, i as u64, day));
        plain_ms += ms(t0.elapsed());
        let t0 = Instant::now();
        let outcome = protect_day(&template, server_seed, i as u64, day);
        traced_ms += ms(t0.elapsed());
        out.attempted += 1;
        out.failed += u64::from(response_for(server_seed, i as u64, &outcome) != expected[i]);
    }
    out.set("tracing_overhead", traced_ms / plain_ms - 1.0);
    out
}
