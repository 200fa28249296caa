//! Seeded inputs, order statistics, digests and process gauges shared by
//! the workloads.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use mood_attacks::ProfileStore;
pub use mood_core::obs::mix64;
use mood_core::{EngineBuilder, MoodEngine, ProtectionOutcome, UserClass, UserProtection};
use mood_synth::{presets, DatasetSpec};
use mood_trace::{Dataset, TimeDelta};

/// Length of the background-knowledge half of every corpus (the
/// paper's chronological split).
pub const TRAIN_SPAN_DAYS: i64 = 15;

/// `preset` at full scale with its master seed re-drawn from the
/// workload seed: the same `--seed` always yields the same corpus, and
/// another seed a fresh population of the same shape.
pub fn seeded(preset: DatasetSpec, seed: u64) -> DatasetSpec {
    let mut spec = preset;
    spec.seed = mix64(spec.seed ^ mix64(seed));
    spec
}

/// The privamov-like corpus of `seed`, split into (background, test).
pub fn privamov_split(seed: u64) -> (Dataset, Dataset) {
    seeded(presets::privamov_like(), seed)
        .generate()
        .split_chronological(TimeDelta::from_days(TRAIN_SPAN_DAYS))
}

/// The undecorated paper-default engine, trained through a fresh
/// profile store, as `mood protect` and `mood serve` build it.
pub fn plain_engine(background: &Dataset) -> MoodEngine {
    EngineBuilder::paper_default_with_store(background, Arc::new(ProfileStore::new()))
        .build()
        .expect("paper defaults are valid")
}

/// A user's class and whether its whole-trace search fell through to
/// composition search (a multi-LPPM winner, or no whole-trace winner).
pub fn outcome_kind(outcome: &UserProtection) -> (UserClass, bool) {
    let composed = match &outcome.outcome {
        ProtectionOutcome::Whole(p) => p.lppm.contains('→'),
        ProtectionOutcome::FineGrained { .. } => true,
    };
    (outcome.class, composed)
}

/// The input properties protection work depends on, for the workload
/// record: the user-class mix and the share of operations reaching
/// composition search.
pub fn describe_kinds(kinds: impl IntoIterator<Item = (UserClass, bool)>) -> String {
    let order = [
        UserClass::NaturallyProtected,
        UserClass::SingleLppm,
        UserClass::MultiLppm,
        UserClass::FineGrained,
        UserClass::Unprotectable,
    ];
    let mut counts = [0usize; 5];
    let (mut total, mut composed) = (0usize, 0usize);
    for (class, reached) in kinds {
        total += 1;
        counts[order.iter().position(|c| *c == class).expect("known class")] += 1;
        composed += usize::from(reached);
    }
    let share = |n: usize| n as f64 / total.max(1) as f64;
    format!(
        "class mix natural/single/multi/fine/unprotectable {:.2}/{:.2}/{:.2}/{:.2}/{:.2}, reaching composition search {:.2}",
        share(counts[0]),
        share(counts[1]),
        share(counts[2]),
        share(counts[3]),
        share(counts[4]),
        share(composed)
    )
}

/// FNV-1a over a byte stream, used to compare outputs with references.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `io::Write` sink that digests instead of buffering.
pub struct DigestWriter(pub Fnv);

impl std::io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 = self.0.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Digest of a value's JSON form.
pub fn json_digest<T: serde::Serialize>(value: &T) -> u64 {
    let mut sink = DigestWriter(Fnv::new());
    serde_json::to_writer(&mut sink, value).expect("benchmark outputs serialize");
    sink.0.finish()
}

/// `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Worker threads for every pool the workloads start.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one workload run measured: operation counts plus metrics by
/// name (the caller knows each metric's unit).
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }
}
