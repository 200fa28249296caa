//! Per-layer timing from outside the program: decorators around the
//! public LPPM and trained-attack traits that charge each call's
//! exclusive (self) time to the layer it belongs to.
//!
//! Self time is the call's wall time minus the wall time of decorated
//! calls nested inside it on the same thread, so layers never
//! double-count even when one decorated call runs inside another.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;

use mood_attacks::{
    ApAttack, Attack, AttackScratch, AttackSuite, PitAttack, PoiAttack, Prediction, ProfileStore,
    TrainedAttack,
};
use mood_core::EngineBuilder;
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_models::TraceRaster;
use mood_trace::{Dataset, Record, Trace, UserId};

thread_local! {
    /// Wall time of decorated calls completed inside the enclosing
    /// decorated call on this thread.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
    /// The raw input trace of the `protect_user` call running on this
    /// thread, so attack verdicts on it are told apart from verdicts on
    /// candidates.
    static RAW_TRACE: Cell<*const Trace> = const { Cell::new(std::ptr::null()) };
}

/// Self time and call count of one layer.
#[derive(Default)]
struct LayerStat {
    self_ns: AtomicU64,
    calls: AtomicU64,
}

impl LayerStat {
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let outer = NESTED_NS.with(|c| c.replace(0));
        let t0 = Instant::now();
        let out = f();
        let total = t0.elapsed().as_nanos() as u64;
        let nested = NESTED_NS.with(|c| c.replace(outer + total));
        let own = total.saturating_sub(nested);
        self.self_ns.fetch_add(own, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        (out, own)
    }

    pub fn self_ms(&self) -> f64 {
        self.self_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.self_ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }
}

/// Runs `f` (one user's protection) with `raw` registered as the raw
/// trace, so [`AttackStat::raw_ms`] can separate the raw-trace check
/// from candidate verdicts.
pub fn with_raw_trace<R>(raw: &Trace, f: impl FnOnce() -> R) -> R {
    let prev = RAW_TRACE.with(|c| c.replace(raw as *const Trace));
    let out = f();
    RAW_TRACE.with(|c| c.set(prev));
    out
}

/// Times every call of one base LPPM. Every trait method is forwarded,
/// so mechanism fast paths (HMC's shared raster) still run.
struct TimedLppm {
    inner: Arc<dyn Lppm>,
    stat: Arc<LayerStat>,
}

impl Lppm for TimedLppm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn protect(&self, trace: &Trace, rng: &mut dyn RngCore) -> Trace {
        self.stat.time(|| self.inner.protect(trace, rng)).0
    }

    fn protect_into(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        self.stat.time(|| self.inner.protect_into(trace, rng, out));
    }

    fn protect_into_with(
        &self,
        trace: &Trace,
        rng: &mut dyn RngCore,
        out: &mut Vec<Record>,
        raster: &mut TraceRaster,
    ) {
        self.stat
            .time(|| self.inner.protect_into_with(trace, rng, out, raster));
    }
}

/// Verdict counters of one attack.
#[derive(Default)]
struct AttackStat {
    all: LayerStat,
    /// Self time of verdicts on registered raw traces.
    raw_ns: AtomicU64,
    /// Scratch-path verdicts on candidates, and how many of them failed
    /// to re-identify.
    candidate_calls: AtomicU64,
    candidate_misses: AtomicU64,
}

impl AttackStat {
    pub fn raw_ms(&self) -> f64 {
        self.raw_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn candidate_calls(&self) -> u64 {
        self.candidate_calls.load(Ordering::Relaxed)
    }

    pub fn candidate_misses(&self) -> u64 {
        self.candidate_misses.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.all.reset();
        self.raw_ns.store(0, Ordering::Relaxed);
        self.candidate_calls.store(0, Ordering::Relaxed);
        self.candidate_misses.store(0, Ordering::Relaxed);
    }

    /// Charges one scratch-path verdict: to the raw-trace check when
    /// `trace` is the registered raw trace, else to candidate scoring.
    fn verdict(&self, trace: &Trace, f: impl FnOnce() -> bool) -> bool {
        let (hit, own) = self.all.time(f);
        if RAW_TRACE.with(|c| std::ptr::eq(c.get(), trace)) {
            self.raw_ns.fetch_add(own, Ordering::Relaxed);
        } else {
            self.candidate_calls.fetch_add(1, Ordering::Relaxed);
            if !hit {
                self.candidate_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }
}

/// Times every call of one trained attack, forwarding each verdict
/// entry point to the wrapped attack's own implementation.
struct TimedAttack {
    inner: Box<dyn TrainedAttack>,
    stat: Arc<AttackStat>,
}

impl TrainedAttack for TimedAttack {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&self, trace: &Trace) -> Prediction {
        self.stat.all.time(|| self.inner.predict(trace)).0
    }

    /// Plain-path verdicts are the engine's concurrent raw-trace check
    /// (spawned threads, where no raw trace is registered).
    fn re_identifies(&self, trace: &Trace, true_user: UserId) -> bool {
        let (hit, own) = self
            .stat
            .all
            .time(|| self.inner.re_identifies(trace, true_user));
        self.stat.raw_ns.fetch_add(own, Ordering::Relaxed);
        hit
    }

    fn reidentify_with(
        &self,
        trace: &Trace,
        true_user: UserId,
        scratch: &mut AttackScratch,
    ) -> bool {
        self.stat.verdict(trace, || {
            self.inner.reidentify_with(trace, true_user, scratch)
        })
    }

    fn score_batch(
        &self,
        traces: &[Trace],
        true_user: UserId,
        scratch: &mut AttackScratch,
        verdicts: &mut Vec<bool>,
    ) {
        self.stat
            .all
            .time(|| self.inner.score_batch(traces, true_user, scratch, verdicts));
    }
}

/// The paper's layers, each with its counters: LPPMs in engine order
/// (Geo-I, TRL, HMC) and attacks in suite order (POI, PIT, AP).
#[derive(Default)]
pub struct Layers {
    lppms: [Arc<LayerStat>; 3],
    attacks: [Arc<AttackStat>; 3],
    pub train_ms: f64,
}

impl Layers {
    /// Trains POI/PIT/AP through `store` exactly as the paper-default
    /// engine does, wrapping each trained attack. Records the training
    /// time in `train_ms`.
    pub fn train_suite(&mut self, background: &Dataset, store: &ProfileStore) -> AttackSuite {
        let t0 = Instant::now();
        let attacks: [&dyn Attack; 3] = [
            &PoiAttack::paper_default(),
            &PitAttack::paper_default(),
            &ApAttack::paper_default(),
        ];
        let trained: Vec<Box<dyn TrainedAttack>> = attacks
            .iter()
            .zip(&self.attacks)
            .map(|(attack, stat)| {
                Box::new(TimedAttack {
                    inner: attack.train_with(background, store),
                    stat: Arc::clone(stat),
                }) as Box<dyn TrainedAttack>
            })
            .collect();
        self.train_ms += crate::util::ms(t0.elapsed());
        AttackSuite::from_trained(trained)
    }

    /// The paper-default engine with every LPPM and attack wrapped,
    /// trained through a fresh profile store: byte-identical output to
    /// [`crate::util::plain_engine`].
    pub fn engine(&mut self, background: &Dataset) -> EngineBuilder {
        let store = Arc::new(ProfileStore::new());
        let suite = self.train_suite(background, &store);
        EngineBuilder::new(Arc::new(suite))
            .profile_store(store)
            .lppms(self.lppm_set(background))
    }

    /// The paper's base LPPM set {Geo-I, TRL, HMC}, each wrapped.
    fn lppm_set(&self, background: &Dataset) -> Vec<Arc<dyn Lppm>> {
        let base: [Arc<dyn Lppm>; 3] = [
            Arc::new(GeoI::paper_default()),
            Arc::new(Trl::paper_default()),
            Arc::new(Hmc::paper_default(background)),
        ];
        base.into_iter()
            .zip(&self.lppms)
            .map(|(inner, stat)| {
                Arc::new(TimedLppm {
                    inner,
                    stat: Arc::clone(stat),
                }) as Arc<dyn Lppm>
            })
            .collect()
    }

    pub fn reset(&mut self) {
        self.lppms.iter().for_each(|s| s.reset());
        self.attacks.iter().for_each(|s| s.reset());
        self.train_ms = 0.0;
    }

    pub fn lppm_ms(&self) -> f64 {
        self.lppms.iter().map(|s| s.self_ms()).sum()
    }

    pub fn attack_ms(&self) -> f64 {
        self.attacks.iter().map(|s| s.all.self_ms()).sum()
    }

    pub fn attack_raw_ms(&self) -> f64 {
        self.attacks.iter().map(|s| s.raw_ms()).sum()
    }

    /// Emits the LPPM and attack-verdict metrics, each divided by `ops`
    /// (per operation of the workload). Training time is a set-up cost
    /// on some workloads and a per-pass one on others, so each workload
    /// reports `attacks.train_ms` itself.
    pub fn emit(&self, out: &mut crate::util::Measured, ops: f64) {
        const LPPM_NAMES: [(&str, &str); 3] = [
            ("lppm.geo-i.self_ms", "lppm.geo-i.calls"),
            ("lppm.trl.self_ms", "lppm.trl.calls"),
            ("lppm.hmc.self_ms", "lppm.hmc.calls"),
        ];
        const ATTACK_NAMES: [(&str, &str); 3] = [
            ("attacks.poi.self_ms", "attacks.poi.calls"),
            ("attacks.pit.self_ms", "attacks.pit.calls"),
            ("attacks.ap.self_ms", "attacks.ap.calls"),
        ];
        for ((ms, calls), stat) in LPPM_NAMES.iter().zip(&self.lppms) {
            out.set(ms, stat.self_ms() / ops);
            out.set(calls, stat.calls() as f64 / ops);
        }
        for ((ms, calls), stat) in ATTACK_NAMES.iter().zip(&self.attacks) {
            out.set(ms, stat.all.self_ms() / ops);
            out.set(calls, stat.all.calls() as f64 / ops);
        }
    }

    /// Candidate-path verdicts of the first attack (every candidate
    /// reaches it) and misses of the last (a candidate it misses is
    /// resilient, since the suite short-circuits in order).
    pub fn candidates_scored(&self) -> u64 {
        self.attacks[0].candidate_calls()
    }

    pub fn candidates_resilient(&self) -> u64 {
        self.attacks[2].candidate_misses()
    }
}
