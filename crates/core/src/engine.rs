use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mood_obs::StageAgg;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mood_attacks::{
    ApAttack, Attack, AttackScratch, AttackSuite, PitAttack, PoiAttack, ProfileStore, StoreCounters,
};
use mood_lppm::{arrangements, Composition, GeoI, Hmc, Lppm, Trl};
use mood_metrics::spatio_temporal_distortion_bounded;
use mood_trace::{Dataset, Record, Trace};

use crate::exec::{self, Executor, SequentialExecutor};
use crate::{
    FineGrainedStats, MoodConfig, ProtectedTrace, ProtectionOutcome, UserClass, UserProtection,
};

/// Reusable per-worker state for one candidate evaluation: the derived
/// RNG (stack-only, reassigned per candidate), the protected-records
/// buffer the LPPM writes into, and the attack scratch the suite scores
/// on — per-trace features (heatmap, POI clusters, Markov chain) plus
/// the shared rasterization cache both the LPPM fast paths and the
/// attacks use.
struct CandidateScratch {
    rng: StdRng,
    records: Vec<Record>,
    attack: AttackScratch,
}

impl CandidateScratch {
    fn new() -> Self {
        Self {
            rng: StdRng::seed_from_u64(0),
            records: Vec::new(),
            attack: AttackScratch::new(),
        }
    }
}

/// A recycling pool of [`CandidateScratch`] values, shared by every
/// level of every trie walk the engine runs.
///
/// Worker-slot scratch from [`exec::map_indexed_with`] lives only for
/// one level; this pool is what carries the warmed-up buffers *across*
/// levels (and across users, when many pipeline workers drive the same
/// engine). Peak pool size is bounded by the peak number of concurrent
/// workers touching the engine. The reuse counters are the observable
/// half of the zero-allocation claim: they count candidate evaluations
/// that started from an already-warm protection buffer
/// (`reuses`) / attack scratch (`attack_reuses`) instead of fresh
/// allocations; the raster counters aggregate the rasterization-cache
/// hits and misses drained from returning leases.
struct ScratchPool {
    free: Mutex<Vec<CandidateScratch>>,
    reuses: AtomicU64,
    attack_reuses: AtomicU64,
    raster_hits: AtomicU64,
    raster_misses: AtomicU64,
}

impl ScratchPool {
    fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            reuses: AtomicU64::new(0),
            attack_reuses: AtomicU64::new(0),
            raster_hits: AtomicU64::new(0),
            raster_misses: AtomicU64::new(0),
        }
    }

    /// Takes a scratch (recycled if available) wrapped in a lease that
    /// returns it to the pool on drop.
    fn take(&self) -> ScratchLease<'_> {
        let scratch = self.free.lock().expect("scratch pool lock").pop();
        ScratchLease {
            pool: self,
            scratch: Some(scratch.unwrap_or_else(CandidateScratch::new)),
        }
    }
}

/// RAII handle recycling a [`CandidateScratch`] back into its pool.
/// The scratch is `Some` until drop (the `Option` only exists so drop
/// can move it out without constructing a replacement).
struct ScratchLease<'p> {
    pool: &'p ScratchPool,
    scratch: Option<CandidateScratch>,
}

impl ScratchLease<'_> {
    fn scratch_mut(&mut self) -> &mut CandidateScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.scratch.take() {
            // Surface the worker-local raster-cache counters before the
            // scratch goes back to sleep in the pool.
            let (hits, misses) = scratch.attack.take_raster_counters();
            self.pool.raster_hits.fetch_add(hits, Ordering::Relaxed);
            self.pool.raster_misses.fetch_add(misses, Ordering::Relaxed);
            self.pool
                .free
                .lock()
                .expect("scratch pool lock")
                .push(scratch);
        }
    }
}

/// Why an [`EngineBuilder`] could not produce an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The base LPPM set was empty — MooD needs at least one mechanism
    /// to search over.
    EmptyLppmSet,
    /// The configuration failed validation; the message names the bad
    /// parameter.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyLppmSet => f.write_str("MooD needs at least one LPPM"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Fallible, fluent construction of a [`MoodEngine`]: custom LPPM sets,
/// attack suites, composition depth and execution backend — the
/// `Result`-based replacement for the panicking [`MoodEngine::new`].
///
/// # Examples
///
/// ```
/// use mood_core::{EngineBuilder, ExecutorKind};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let engine = EngineBuilder::paper_default(&background)
///     .executor(ExecutorKind::WorkStealing.build(4))
///     .seed(7)
///     .build()
///     .expect("paper defaults are valid");
/// let victim = test.iter().next().unwrap();
/// assert_eq!(engine.protect_user(victim).user, victim.user());
/// ```
pub struct EngineBuilder {
    suite: Arc<AttackSuite>,
    lppms: LppmSet,
    config: MoodConfig,
    executor: Arc<dyn Executor>,
    store: Option<Arc<ProfileStore>>,
    candidate_budget: usize,
    obs: Option<Arc<StageAgg>>,
}

/// Stage-name table for the engine's optional per-stage observer
/// ([`EngineBuilder::stage_observer`]), in pipeline order. Indices into
/// this table are what the engine records under; note that
/// `candidate_eval` (one observation per trie level, counting its
/// nodes) runs *inside* the search stages (and `fine_grained` re-enters
/// them per sub-trace), so the totals overlap hierarchically rather
/// than summing to wall time.
pub const ENGINE_STAGES: [&str; 5] = [
    "raw_check",
    "search_single",
    "search_composition",
    "fine_grained",
    "candidate_eval",
];
const STAGE_RAW_CHECK: usize = 0;
const STAGE_SEARCH_SINGLE: usize = 1;
const STAGE_SEARCH_COMPOSITION: usize = 2;
const STAGE_FINE_GRAINED: usize = 3;
const STAGE_CANDIDATE_EVAL: usize = 4;

/// The builder's LPPM set: either composed piecewise (`Owned`) or taken
/// wholesale from another engine without copying (`Shared`).
enum LppmSet {
    Owned(Vec<Arc<dyn Lppm>>),
    Shared(Arc<[Arc<dyn Lppm>]>),
}

impl LppmSet {
    fn is_empty(&self) -> bool {
        match self {
            LppmSet::Owned(v) => v.is_empty(),
            LppmSet::Shared(s) => s.is_empty(),
        }
    }

    fn into_shared(self) -> Arc<[Arc<dyn Lppm>]> {
        match self {
            LppmSet::Owned(v) => v.into(),
            LppmSet::Shared(s) => s,
        }
    }
}

impl EngineBuilder {
    /// Starts a builder from a trained attack suite, with an empty LPPM
    /// set, the paper configuration and the sequential executor.
    pub fn new(suite: Arc<AttackSuite>) -> Self {
        Self {
            suite,
            lppms: LppmSet::Owned(Vec::new()),
            config: MoodConfig::paper_default(),
            executor: Arc::new(SequentialExecutor),
            store: None,
            candidate_budget: usize::MAX,
            obs: None,
        }
    }

    /// Starts from the paper's full setup: POI/PIT/AP attacks trained on
    /// `background` and the LPPM set {Geo-I, TRL, HMC}. Training runs
    /// through a fresh [`ProfileStore`], which the built engine keeps —
    /// see [`EngineBuilder::paper_default_with_store`] to share one
    /// store (and its trained profiles) across several engines.
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty (attack training requires at
    /// least one profile).
    pub fn paper_default(background: &Dataset) -> Self {
        Self::paper_default_with_store(background, Arc::new(ProfileStore::new()))
    }

    /// [`EngineBuilder::paper_default`] with a caller-owned
    /// [`ProfileStore`]: attack training interns its trained profile
    /// sets in `store` (POI and PIT already share one extraction pass),
    /// so a second engine built over the same background dataset —
    /// another tenant, an ablation, a per-request rebuild — reuses them
    /// without building a single profile. The store's hit/miss/build
    /// counters are surfaced by [`MoodEngine::profile_store_counters`].
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty.
    pub fn paper_default_with_store(background: &Dataset, store: Arc<ProfileStore>) -> Self {
        let suite = AttackSuite::train_with_store(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            background,
            &store,
        );
        Self::new(Arc::new(suite)).profile_store(store).lppms(vec![
            Arc::new(GeoI::paper_default()),
            Arc::new(Trl::paper_default()),
            Arc::new(Hmc::paper_default(background)),
        ])
    }

    /// Attaches the profile store the suite was trained through, so the
    /// engine can surface its hit/miss/build counters and hand the store
    /// to sibling builds ([`MoodEngine::profile_store`]).
    pub fn profile_store(mut self, store: Arc<ProfileStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Replaces the base LPPM set.
    pub fn lppms(mut self, lppms: Vec<Arc<dyn Lppm>>) -> Self {
        self.lppms = LppmSet::Owned(lppms);
        self
    }

    /// Replaces the base LPPM set with an already-shared one — e.g.
    /// [`MoodEngine::shared_lppms`] from a sibling engine. The set is
    /// shared by handle; no per-mechanism clones are made, so building
    /// config/ablation variants of an engine costs one `Arc` bump.
    pub fn lppms_shared(mut self, lppms: Arc<[Arc<dyn Lppm>]>) -> Self {
        self.lppms = LppmSet::Shared(lppms);
        self
    }

    /// Appends one LPPM to the base set. Appending to a shared set
    /// copies the handles first (copy-on-write).
    pub fn lppm(mut self, lppm: Arc<dyn Lppm>) -> Self {
        let mut owned = match self.lppms {
            LppmSet::Owned(v) => v,
            LppmSet::Shared(s) => s.to_vec(),
        };
        owned.push(lppm);
        self.lppms = LppmSet::Owned(owned);
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: MoodConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the engine seed (bit-for-bit reproducible protection).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Caps the composition length explored by the search.
    pub fn max_composition_len(mut self, len: usize) -> Self {
        self.config.max_composition_len = len;
        self
    }

    /// Sets the candidate-evaluation executor (see [`crate::exec`]).
    pub fn executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = executor;
        self
    }

    /// Caps the number of candidate variants a single
    /// [`MoodEngine::protect_user`] call may fully score (deadline-aware
    /// graceful degradation; default: unlimited).
    ///
    /// The budget is consumed in variant order — singles, then chains
    /// shorter-first — so the cut point is a pure function of
    /// `(budget, candidates scored so far)` and a replayed
    /// request degrades identically on any backend and thread count.
    /// Candidates past the cut are skipped whole, never partially
    /// scored: the scratch contract is untouched. A call that exhausts
    /// its budget returns [`UserProtection::degraded`]` == true`.
    pub fn candidate_budget(mut self, budget: usize) -> Self {
        self.candidate_budget = budget;
        self
    }

    /// Attaches a per-stage duration observer (build it over
    /// [`ENGINE_STAGES`]). Purely observational: stage wall-clock totals
    /// and operation counts accumulate into `agg`, and protection
    /// results stay bit-identical with or without an observer. When no
    /// observer is attached (the default) the engine never reads the
    /// clock on the protection path.
    pub fn stage_observer(mut self, agg: Arc<StageAgg>) -> Self {
        self.obs = Some(agg);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyLppmSet`] when no LPPM was provided
    /// and [`EngineError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn build(self) -> Result<MoodEngine, EngineError> {
        if self.lppms.is_empty() {
            return Err(EngineError::EmptyLppmSet);
        }
        self.config.check().map_err(EngineError::InvalidConfig)?;
        let base = self.lppms.into_shared();
        let paths = arrangements(base.len(), 1, self.config.max_composition_len);
        let compositions = paths[base.len()..]
            .iter()
            .map(|path| Composition::new(path.iter().map(|&i| Arc::clone(&base[i])).collect()))
            .collect();
        Ok(MoodEngine {
            suite: self.suite,
            base,
            compositions,
            trie: TrieNode::link(&paths),
            config: self.config,
            executor: self.executor,
            scratch: ScratchPool::new(),
            store: self.store,
            candidate_budget: self.candidate_budget,
            obs: self.obs,
        })
    }
}

/// The MooD engine: Algorithm 1 of the paper, wired to an attack suite,
/// a base LPPM set and a configuration.
///
/// The engine is immutable and `Sync`; [`crate::protect_dataset`] runs it
/// from many threads at once.
///
/// # Examples
///
/// ```
/// use mood_core::{MoodEngine, UserClass};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let engine = MoodEngine::paper_default(&background);
/// let victim = test.iter().next().unwrap();
/// let result = engine.protect_user(victim);
/// assert_eq!(result.user, victim.user());
/// assert!(result.original_records > 0);
/// ```
pub struct MoodEngine {
    suite: Arc<AttackSuite>,
    base: Arc<[Arc<dyn Lppm>]>,
    compositions: Vec<Composition>,
    /// The prefix trie of the search space, indexed by variant.
    trie: Vec<TrieNode>,
    config: MoodConfig,
    executor: Arc<dyn Executor>,
    scratch: ScratchPool,
    store: Option<Arc<ProfileStore>>,
    candidate_budget: usize,
    obs: Option<Arc<StageAgg>>,
}

/// One variant of the search space as a node of the prefix trie of
/// base-LPPM paths: singles are the roots, and a chain extends the
/// chain one shorter that it starts with.
struct TrieNode {
    /// Index of the base LPPM the node applies (its path's last).
    stage: usize,
    /// Variant index of the prefix it extends; `None` for a single.
    parent: Option<usize>,
    /// Smallest variant index that extends this node, if any.
    first_child: Option<usize>,
}

impl TrieNode {
    /// Links `paths`, given in variant order (every prefix before its
    /// extensions), into a trie.
    fn link(paths: &[Vec<usize>]) -> Vec<TrieNode> {
        let index: HashMap<&[usize], usize> = paths
            .iter()
            .enumerate()
            .map(|(k, path)| (path.as_slice(), k))
            .collect();
        let mut trie: Vec<TrieNode> = paths
            .iter()
            .map(|path| {
                let (&stage, prefix) = path.split_last().expect("paths are never empty");
                TrieNode {
                    stage,
                    parent: (!prefix.is_empty()).then(|| index[prefix]),
                    first_child: None,
                }
            })
            .collect();
        for k in (0..trie.len()).rev() {
            if let Some(p) = trie[k].parent {
                trie[p].first_child = Some(k);
            }
        }
        trie
    }
}

/// One evaluated trie node: its output, while a pending level extends
/// it or it may still win, and its distortion when it is resilient and
/// was not pruned by the incumbent.
struct Node {
    trace: Option<Trace>,
    distortion: Option<f64>,
}

/// Per-`protect_user` candidate budget: how many variants may still be
/// fully scored, and whether the cut has already fired. Consumed in
/// variant order, so the skipped set is identical on every backend.
struct BudgetState {
    remaining: usize,
    exhausted: bool,
}

impl BudgetState {
    fn new(budget: usize) -> Self {
        Self {
            remaining: budget,
            exhausted: false,
        }
    }

    fn unlimited() -> Self {
        Self::new(usize::MAX)
    }

    /// Grants the first `min(wanted, remaining)` of `wanted` variants.
    fn grant(&mut self, wanted: usize) -> usize {
        let granted = wanted.min(self.remaining);
        self.exhausted |= granted < wanted;
        self.remaining -= granted;
        granted
    }
}

impl std::fmt::Debug for MoodEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoodEngine")
            .field("attacks", &self.suite.len())
            .field(
                "lppms",
                &self.base.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("compositions", &self.compositions.len())
            .field("config", &self.config)
            .field("executor", &self.executor.name())
            .finish()
    }
}

impl MoodEngine {
    /// Creates an engine from a trained attack suite, a base LPPM set
    /// `L`, and a configuration. The composition space `C − L` is
    /// enumerated eagerly (it is tiny: 12 chains for n = 3). Candidate
    /// evaluation runs on the sequential executor; use
    /// [`EngineBuilder`] to choose a parallel backend.
    ///
    /// # Panics
    ///
    /// Panics when `base` is empty or the configuration is invalid. The
    /// non-panicking equivalent is [`EngineBuilder::build`].
    pub fn new(suite: Arc<AttackSuite>, base: Vec<Arc<dyn Lppm>>, config: MoodConfig) -> Self {
        assert!(!base.is_empty(), "MooD needs at least one LPPM");
        config.validate();
        EngineBuilder::new(suite)
            .lppms(base)
            .config(config)
            .build()
            .expect("inputs validated above")
    }

    /// The paper's full setup: POI/PIT/AP attacks trained on
    /// `background`, the LPPM set {Geo-I, TRL, HMC} with the paper's
    /// parameters, and [`MoodConfig::paper_default`].
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty.
    pub fn paper_default(background: &Dataset) -> Self {
        EngineBuilder::paper_default(background)
            .build()
            .expect("paper defaults are valid")
    }

    /// The trained attack suite driving the resilience checks.
    pub fn suite(&self) -> &AttackSuite {
        &self.suite
    }

    /// A shareable handle to the suite, for building sibling engines
    /// (different configs against the same adversary) without retraining.
    pub fn shared_suite(&self) -> Arc<AttackSuite> {
        Arc::clone(&self.suite)
    }

    /// The profile store the suite was trained through, when the engine
    /// was built with one ([`EngineBuilder::paper_default`] and
    /// [`EngineBuilder::paper_default_with_store`] always attach it).
    /// Hand it to [`EngineBuilder::paper_default_with_store`] to train a
    /// sibling engine over the same background for free.
    pub fn profile_store(&self) -> Option<Arc<ProfileStore>> {
        self.store.as_ref().map(Arc::clone)
    }

    /// Hit/miss/build counters of the engine's profile store — the
    /// observable proof that retraining over an already-seen background
    /// dataset builds zero additional profiles. All zeros when the
    /// engine was built without a store.
    pub fn profile_store_counters(&self) -> StoreCounters {
        self.store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default()
    }

    /// The base LPPM set `L`.
    pub fn lppms(&self) -> &[Arc<dyn Lppm>] {
        &self.base
    }

    /// A shareable handle to the base LPPM set, for building sibling
    /// engines (ablations, different configs or executors over the same
    /// mechanisms) without copying the set — pass it to
    /// [`EngineBuilder::lppms_shared`].
    pub fn shared_lppms(&self) -> Arc<[Arc<dyn Lppm>]> {
        Arc::clone(&self.base)
    }

    /// How many candidate evaluations started from a recycled, already
    /// warmed-up scratch buffer instead of a fresh allocation — the
    /// observable evidence that the candidate hot path stops allocating
    /// once the per-worker arenas have warmed up. (A buffer goes cold
    /// only when a candidate keeps it: a resilient one, for publication
    /// or as a parent, or a rejected chain the next trie level extends.
    /// A rejected single kept as a parent takes a copy instead.)
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch.reuses.load(Ordering::Relaxed)
    }

    /// How many candidate evaluations scored the attack suite on an
    /// already warmed-up [`AttackScratch`] — the attack-side counterpart
    /// of [`MoodEngine::scratch_reuses`]: per-trace features (heatmaps,
    /// POI clusters, Markov chains) built into recycled per-worker
    /// buffers instead of fresh allocations.
    pub fn attack_scratch_reuses(&self) -> u64 {
        self.scratch.attack_reuses.load(Ordering::Relaxed)
    }

    /// Rasterization-cache hits across all attack scratches: trace
    /// cell-sequences served from the per-worker `(grid, trace)` cache
    /// (exact, comparison-verified) instead of recomputed. Counters are
    /// drained from scratches as leases return to the pool, so in-flight
    /// work surfaces at the next trie-level boundary.
    pub fn raster_cache_hits(&self) -> u64 {
        self.scratch.raster_hits.load(Ordering::Relaxed)
    }

    /// Rasterization-cache misses (fresh rasterizations), same
    /// accounting as [`MoodEngine::raster_cache_hits`].
    pub fn raster_cache_misses(&self) -> u64 {
        self.scratch.raster_misses.load(Ordering::Relaxed)
    }

    /// The enumerated composition space `C − L` (length ≥ 2 chains).
    pub fn compositions(&self) -> &[Composition] {
        &self.compositions
    }

    /// The engine configuration.
    pub fn config(&self) -> &MoodConfig {
        &self.config
    }

    /// The executor candidate evaluations run on.
    pub fn executor(&self) -> &dyn Executor {
        self.executor.as_ref()
    }

    /// Deterministic RNG for one (trace, variant) application: derived
    /// from the engine seed, the trace's user, its start time (so each
    /// sub-trace draws fresh noise) and the variant index. A variant
    /// index names one path of the composition trie, so this is also
    /// the stream of that path's last stage.
    fn variant_rng(&self, trace: &Trace, variant_idx: usize) -> StdRng {
        let mut h = self.config.seed;
        for v in [
            trace.user().as_u64(),
            trace.start_time().as_unix() as u64,
            variant_idx as u64,
        ] {
            h ^= mix64(v);
            h = mix64(h);
        }
        StdRng::seed_from_u64(h)
    }

    /// Name of variant `k`: a base LPPM's, or a chain's ("TRL→HMC").
    fn variant_name(&self, k: usize) -> &str {
        match k.checked_sub(self.base.len()) {
            Some(chain) => self.compositions[chain].name(),
            None => self.base[k].name(),
        }
    }

    /// Evaluates trie node `k` on a scratch arena: applies the node's
    /// last base mechanism to `input` (its parent's output, or the raw
    /// `trace` for a single) under the node's RNG stream — writing into
    /// the scratch buffer instead of a fresh allocation — and judges
    /// the result against the attack suite on the scratch's attack
    /// arena (features rebuilt into per-worker buffers, profile
    /// matching pruned by the running best, rasterizations shared
    /// between the LPPM fast paths and the attacks).
    ///
    /// A resilient candidate's distortion from `trace` is abandoned as
    /// soon as it is strictly worse than `incumbent` — the bits of the
    /// smallest distortion a resilient candidate of the same search
    /// stage has completed — and a completed one lowers the incumbent.
    /// Every candidate still gets its attack verdict first.
    ///
    /// The output is kept when `keep` (a pending level extends it) or
    /// when it may still win. A rejected candidate hands its buffer
    /// back to the scratch for the next one, unless it is a kept chain
    /// (a kept single keeps a copy); a resilient one keeps it or,
    /// pruned and no parent, drops it, as a losing resilient candidate
    /// is dropped.
    fn evaluate_node(
        &self,
        trace: &Trace,
        input: &Trace,
        k: usize,
        keep: bool,
        scratch: &mut CandidateScratch,
        incumbent: &AtomicU64,
    ) -> Node {
        scratch.rng = self.variant_rng(trace, k);
        let mut buf = std::mem::take(&mut scratch.records);
        if buf.capacity() > 0 {
            self.scratch.reuses.fetch_add(1, Ordering::Relaxed);
        }
        if scratch.attack.is_warm() {
            self.scratch.attack_reuses.fetch_add(1, Ordering::Relaxed);
        }
        self.base[self.trie[k].stage].protect_into_with(
            input,
            &mut scratch.rng,
            &mut buf,
            scratch.attack.raster_mut(),
        );
        // `protect_into_with` yields time-sorted records (the `Trace`
        // invariant of `protect`'s output), so this re-sort is a
        // stable identity pass: the candidate is byte-identical to
        // what `protect` would have returned.
        let candidate = Trace::new(trace.user(), buf).expect("LPPMs never produce an empty trace");
        if !self
            .suite
            .protects_with(&candidate, trace.user(), &mut scratch.attack)
        {
            // A kept chain is always extended by the next level, so it
            // takes the buffer. A single is extended only when no single
            // is resilient, and the single stage is the whole search for
            // most sub-traces, so a kept single is a copy and the
            // worker's buffer stays warm for the next candidate.
            let trace = if keep && self.trie[k].parent.is_some() {
                Some(candidate)
            } else {
                let copy = keep.then(|| candidate.clone());
                scratch.records = candidate.into_records();
                copy
            };
            return Node {
                trace,
                distortion: None,
            };
        }
        // Distortions are non-negative, so their bits order like their
        // values and `fetch_min` on the bits keeps the smallest.
        let bound = f64::from_bits(incumbent.load(Ordering::Relaxed));
        let distortion = spatio_temporal_distortion_bounded(trace, &candidate, bound);
        if let Some(d) = distortion {
            incumbent.fetch_min(d.to_bits(), Ordering::Relaxed);
        }
        Node {
            trace: (keep || distortion.is_some()).then_some(candidate),
            distortion,
        }
    }

    /// Runs `f`, attributing its wall time to `stage` when an observer
    /// is attached. Without one, this is exactly `f()` — no clock read.
    fn observe<R>(&self, stage: usize, count: u64, f: impl FnOnce() -> R) -> R {
        match &self.obs {
            Some(agg) => {
                let t0 = Instant::now();
                let out = f();
                agg.record_n(stage, t0.elapsed().as_nanos() as u64, count);
                out
            }
            None => f(),
        }
    }

    /// One search stage of the trie walk: evaluates nodes
    /// `nodes.len()..end` (every parent among them is already in
    /// `nodes`) and returns the resilient one ranked first by
    /// `(distortion, variant_idx)` (Best LPPM Selection, §3.5; the
    /// index tiebreak pins ties to the earliest variant).
    ///
    /// Nodes run level by level, each level on the engine's executor
    /// with the results in variant order, so nothing depends on backend
    /// or thread count: every node's randomness is a pure function of
    /// its variant index. A node's output is kept while a node below
    /// `keep_end` extends it.
    ///
    /// The stage's workers share the smallest completed resilient
    /// distortion as an incumbent, and a resilient candidate stops
    /// computing its distortion once it is strictly worse. The winner
    /// is never strictly worse than any incumbent, so its distortion is
    /// always computed in full, and a tie is never pruned: the choice
    /// and its published bytes are those of a full scan, under any
    /// schedule.
    fn search_stage(
        &self,
        trace: &Trace,
        nodes: &mut Vec<Node>,
        end: usize,
        keep_end: usize,
    ) -> Option<ProtectedTrace> {
        let start = nodes.len();
        let incumbent = AtomicU64::new(f64::INFINITY.to_bits());
        while nodes.len() < end {
            // A level: the longest run of nodes whose parents are done.
            let lo = nodes.len();
            let hi = (lo..end)
                .find(|&k| self.trie[k].parent.is_some_and(|p| p >= lo))
                .unwrap_or(end);
            let parents: &[Node] = nodes;
            // One aggregated observation per level (count = nodes),
            // never a per-candidate span: overhead stays bounded by
            // level count, not candidate count.
            let level = self.observe(STAGE_CANDIDATE_EVAL, (hi - lo) as u64, || {
                exec::map_indexed_with(
                    self.executor.as_ref(),
                    hi - lo,
                    || self.scratch.take(),
                    |lease, i| {
                        let node = &self.trie[lo + i];
                        let input = node.parent.map_or(trace, |p| {
                            parents[p]
                                .trace
                                .as_ref()
                                .expect("a parent keeps its output")
                        });
                        let keep = node.first_child.is_some_and(|c| c < keep_end);
                        self.evaluate_node(
                            trace,
                            input,
                            lo + i,
                            keep,
                            lease.scratch_mut(),
                            &incumbent,
                        )
                    },
                )
            });
            // Nothing above this level is a parent any more.
            for node in nodes.iter_mut().filter(|n| n.distortion.is_none()) {
                node.trace = None;
            }
            nodes.extend(level);
        }
        let (k, distortion) = (start..end)
            .filter_map(|k| nodes[k].distortion.map(|d| (k, d)))
            .min_by(|(ka, a), (kb, b)| a.total_cmp(b).then_with(|| ka.cmp(kb)))?;
        Some(ProtectedTrace {
            trace: nodes[k].trace.take().expect("a candidate keeps its output"),
            lppm: self.variant_name(k).to_string(),
            distortion_m: distortion,
        })
    }

    /// Single-LPPM stage (Algorithm 1 lines 4–14): the resilient single
    /// LPPM with the lowest distortion, if any.
    pub fn search_single(&self, trace: &Trace) -> Option<ProtectedTrace> {
        self.observe(STAGE_SEARCH_SINGLE, 1, || {
            self.search_stage(trace, &mut Vec::new(), self.base.len(), 0)
        })
    }

    /// The whole-trace Multi-LPPM Composition Search: singles first,
    /// compositions only when no single works (Algorithm 1's ordering).
    /// The boolean reports whether a composition was needed.
    ///
    /// One walk over the prefix trie of the composition space does
    /// both stages. Variant indices list singles first, then chains
    /// shorter-first and lexicographic — a breadth-first order of the
    /// trie. Each node applies only its last base mechanism, to its
    /// parent's output (singles take the raw trace), under the RNG
    /// stream of its own variant index. The singles' outputs are kept,
    /// so that when none of them is resilient the composition stage
    /// (lines 16–26) extends them instead of re-running them.
    ///
    /// Note: the paper's line 26 reads `argmax M`; we interpret `M`
    /// uniformly as a distortion to minimize (the paper's own §3.5:
    /// "the lower the distortion the better"), for singles and
    /// compositions alike.
    pub fn search_whole(&self, trace: &Trace) -> Option<(ProtectedTrace, bool)> {
        self.search_whole_in(trace, &mut BudgetState::unlimited())
    }

    fn search_whole_in(
        &self,
        trace: &Trace,
        budget: &mut BudgetState,
    ) -> Option<(ProtectedTrace, bool)> {
        let singles = budget.grant(self.base.len());
        // Where the composition stage's budget would cut, should it
        // run: singles no chain below it extends are not kept.
        let chain_end = singles + self.compositions.len().min(budget.remaining);
        let mut nodes = Vec::with_capacity(chain_end);
        let single = self.observe(STAGE_SEARCH_SINGLE, 1, || {
            self.search_stage(trace, &mut nodes, singles, chain_end)
        });
        if let Some(p) = single {
            return Some((p, false));
        }
        // Fewer singles than base LPPMs means the budget is spent and
        // no chain is granted, so `singles` is where the chains start.
        let chain_end = singles + budget.grant(self.compositions.len());
        self.observe(STAGE_SEARCH_COMPOSITION, 1, || {
            self.search_stage(trace, &mut nodes, chain_end, chain_end)
        })
        .map(|p| (p, true))
    }

    /// Recursive fine-grained protection (lines 27–36): whole-trace
    /// search on the sub-trace; on failure split in half by time and
    /// recurse while the sub-trace spans at least δ; below δ the records
    /// are erased.
    fn protect_recursive(
        &self,
        trace: &Trace,
        published: &mut Vec<ProtectedTrace>,
        stats: &mut FineGrainedStats,
        budget: &mut BudgetState,
    ) {
        stats.sub_traces_total += 1;
        if let Some((p, _)) = self.search_whole_in(trace, budget) {
            stats.sub_traces_protected += 1;
            stats.records_published += trace.len();
            published.push(p);
            return;
        }
        if trace.duration() >= self.config.delta {
            // A degenerate split (all records at one instant) yields
            // nothing to recurse on; treat the sub-trace as
            // unprotectable rather than looping.
            match self.config.split_strategy.split(trace) {
                Some((l, r)) => {
                    self.protect_recursive(&l, published, stats, budget);
                    self.protect_recursive(&r, published, stats, budget);
                }
                None => stats.records_dropped += trace.len(),
            }
        } else {
            stats.records_dropped += trace.len();
        }
    }

    /// Protects one user's trace end to end (Algorithm 1 plus the §4.2
    /// experimental protocol) and classifies the user.
    pub fn protect_user(&self, trace: &Trace) -> UserProtection {
        // The raw-trace check scores on a pooled scratch, which also
        // pre-warms the rasterization cache for the raw trace the HMC
        // single is about to re-raster. It is deliberately outside the
        // candidate budget: the user's taxonomy class must not depend
        // on how much compute the request was granted.
        let naturally_protected = self.observe(STAGE_RAW_CHECK, 1, || {
            let mut lease = self.scratch.take();
            self.suite
                .protects_with(trace, trace.user(), &mut lease.scratch_mut().attack)
        });

        let mut budget = BudgetState::new(self.candidate_budget);
        if let Some((protected, via_composition)) = self.search_whole_in(trace, &mut budget) {
            let class = if naturally_protected {
                UserClass::NaturallyProtected
            } else if via_composition {
                UserClass::MultiLppm
            } else {
                UserClass::SingleLppm
            };
            return UserProtection {
                user: trace.user(),
                class,
                outcome: ProtectionOutcome::Whole(protected),
                original_records: trace.len(),
                degraded: budget.exhausted,
            };
        }

        // Fine-grained stage: initial windows (24 h in the paper), then
        // recursive halving with the δ floor. An exhausted budget makes
        // every remaining whole-trace search come up empty, so the
        // remaining sub-traces drop their records — deterministically,
        // since the cut point is fixed by (budget, candidates scored).
        let mut published = Vec::new();
        let mut stats = FineGrainedStats::default();
        self.observe(STAGE_FINE_GRAINED, 1, || match self.config.initial_window {
            Some(window) => {
                for sub in trace.windows(window) {
                    self.protect_recursive(&sub, &mut published, &mut stats, &mut budget);
                }
            }
            None => self.protect_recursive(trace, &mut published, &mut stats, &mut budget),
        });

        let class = if naturally_protected {
            UserClass::NaturallyProtected
        } else if published.is_empty() {
            UserClass::Unprotectable
        } else {
            UserClass::FineGrained
        };
        UserProtection {
            user: trace.user(),
            class,
            outcome: ProtectionOutcome::FineGrained { published, stats },
            original_records: trace.len(),
            degraded: budget.exhausted,
        }
    }
}

/// SplitMix64 finalizer for deterministic RNG stream derivation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutorKind;
    use mood_lppm::arrangements;
    use mood_metrics::spatio_temporal_distortion;
    use mood_trace::{TimeDelta, UserId};

    fn mini_world() -> (Dataset, Dataset) {
        let ds = mood_synth::presets::privamov_like().scaled(0.25).generate();
        ds.split_chronological(TimeDelta::from_days(15))
    }

    #[test]
    fn paper_default_wiring() {
        let (bg, _) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        assert_eq!(engine.lppms().len(), 3);
        assert_eq!(engine.compositions().len(), 12); // C - L for n = 3
        assert_eq!(engine.suite().len(), 3);
    }

    #[test]
    fn protect_user_is_deterministic() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        let a = engine.protect_user(trace);
        let b = engine.protect_user(trace);
        assert_eq!(a, b);
    }

    #[test]
    fn published_variants_resist_the_suite() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter().take(6) {
            let result = engine.protect_user(trace);
            for p in result.outcome.published() {
                assert!(
                    engine.suite().protects(&p.trace, trace.user()),
                    "published variant of {} re-identified",
                    trace.user()
                );
                assert!(p.distortion_m.is_finite() && p.distortion_m >= 0.0);
                assert!(!p.lppm.is_empty());
            }
        }
    }

    #[test]
    fn single_stage_preferred_over_composition() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter().take(6) {
            if let Some(p_single) = engine.search_single(trace) {
                let (p, via_comp) = engine.search_whole(trace).unwrap();
                assert!(!via_comp);
                assert_eq!(p.lppm, p_single.lppm);
                // single names contain no chain arrow
                assert!(!p.lppm.contains('→'));
            }
        }
    }

    #[test]
    fn selection_minimizes_distortion_among_singles() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        if let Some(best) = engine.search_single(trace) {
            // re-derive every resilient single's distortion and check min
            for (i, lppm) in engine.lppms().iter().enumerate() {
                let mut rng = engine.variant_rng(trace, i);
                let cand = lppm.protect(trace, &mut rng);
                if engine.suite().protects(&cand, trace.user()) {
                    let d = spatio_temporal_distortion(trace, &cand);
                    assert!(best.distortion_m <= d + 1e-9);
                }
            }
        }
    }

    #[test]
    fn fine_grained_accounts_every_record() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let result = engine.protect_user(trace);
            if let ProtectionOutcome::FineGrained { stats, .. } = &result.outcome {
                assert_eq!(
                    stats.records_published + stats.records_dropped,
                    trace.len(),
                    "record accounting broken for {}",
                    trace.user()
                );
                assert!(stats.sub_traces_protected <= stats.sub_traces_total);
            }
        }
    }

    #[test]
    fn classes_are_consistent_with_outcomes() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let r = engine.protect_user(trace);
            match (&r.class, &r.outcome) {
                (UserClass::SingleLppm | UserClass::MultiLppm, ProtectionOutcome::Whole(_)) => {}
                (UserClass::NaturallyProtected, _) => {}
                (UserClass::FineGrained, ProtectionOutcome::FineGrained { published, .. }) => {
                    assert!(!published.is_empty());
                }
                (UserClass::Unprotectable, ProtectionOutcome::FineGrained { published, .. }) => {
                    assert!(published.is_empty());
                }
                (class, outcome) => {
                    panic!("inconsistent class {class:?} for outcome {outcome:?}")
                }
            }
        }
    }

    #[test]
    fn max_composition_len_one_disables_compositions() {
        let (bg, _) = mini_world();
        let full = MoodEngine::paper_default(&bg);
        let mut config = MoodConfig::paper_default();
        config.max_composition_len = 1;
        let engine = EngineBuilder::new(Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        )))
        .lppms_shared(full.shared_lppms())
        .config(config)
        .build()
        .unwrap();
        assert!(engine.compositions().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one LPPM")]
    fn rejects_empty_lppm_set() {
        let (bg, _) = mini_world();
        let suite = Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        ));
        MoodEngine::new(suite, vec![], MoodConfig::paper_default());
    }

    #[test]
    fn algorithm1_verbatim_mode_without_initial_window() {
        // initial_window = None runs Algorithm 1 exactly as printed:
        // recursive halving starts on the whole trace.
        let (bg, test) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        let mut config = MoodConfig::paper_default();
        config.initial_window = None;
        let engine = EngineBuilder::new(Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        )))
        .lppms_shared(base.shared_lppms())
        .config(config)
        .build()
        .unwrap();
        for trace in test.iter().take(3) {
            let r = engine.protect_user(trace);
            if let crate::ProtectionOutcome::FineGrained { stats, .. } = &r.outcome {
                assert_eq!(stats.records_published + stats.records_dropped, trace.len());
            }
        }
    }

    #[test]
    fn split_strategies_all_account_records() {
        let (bg, test) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        for strategy in [
            crate::SplitStrategy::Halving,
            crate::SplitStrategy::LargestGap,
            crate::SplitStrategy::InterPoi,
        ] {
            let mut config = MoodConfig::paper_default();
            config.split_strategy = strategy;
            let engine = EngineBuilder::new(base.shared_suite())
                .lppms_shared(base.shared_lppms())
                .config(config)
                .build()
                .unwrap();
            for trace in test.iter().take(4) {
                let r = engine.protect_user(trace);
                if let crate::ProtectionOutcome::FineGrained { stats, .. } = &r.outcome {
                    assert_eq!(
                        stats.records_published + stats.records_dropped,
                        trace.len(),
                        "{strategy}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_lppm_engine_enumerates_the_full_space() {
        // extending the base set with a 4th LPPM (the paper's §6
        // extension hook) grows |C| to Σ 4!/(4-i)! = 64
        let (bg, test) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        let engine = EngineBuilder::new(base.shared_suite())
            .lppms_shared(base.shared_lppms())
            .lppm(Arc::new(mood_lppm::SpatialCloaking::from_background(
                &bg, 800.0,
            )))
            .build()
            .unwrap();
        assert_eq!(engine.lppms().len(), 4);
        assert_eq!(engine.lppms().len() + engine.compositions().len(), 64);
        // and the bigger search space still produces resilient output
        let trace = test.iter().next().unwrap();
        let r = engine.protect_user(trace);
        for p in r.outcome.published() {
            assert!(engine.suite().protects(&p.trace, trace.user()));
        }
    }

    #[test]
    fn builder_rejects_empty_lppm_set() {
        let (bg, _) = mini_world();
        let suite = Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        ));
        let err = EngineBuilder::new(suite).build().unwrap_err();
        assert_eq!(err, EngineError::EmptyLppmSet);
        assert!(err.to_string().contains("at least one LPPM"));
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let (bg, _) = mini_world();
        let mut config = MoodConfig::paper_default();
        config.delta = mood_trace::TimeDelta::from_secs(0);
        let err = EngineBuilder::paper_default(&bg)
            .config(config)
            .build()
            .unwrap_err();
        match err {
            EngineError::InvalidConfig(msg) => assert!(msg.contains("delta")),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn builder_customizes_seed_depth_and_executor() {
        let (bg, _) = mini_world();
        let engine = EngineBuilder::paper_default(&bg)
            .seed(99)
            .max_composition_len(1)
            .executor(crate::ExecutorKind::WorkStealing.build(4))
            .build()
            .unwrap();
        assert_eq!(engine.config().seed, 99);
        assert!(engine.compositions().is_empty());
        assert_eq!(engine.executor().name(), "steal");
        assert_eq!(engine.executor().max_threads(), 4);
    }

    #[test]
    fn protection_is_identical_across_candidate_executors() {
        let (bg, test) = mini_world();
        let reference = MoodEngine::paper_default(&bg);
        for kind in crate::ExecutorKind::all() {
            for threads in [1usize, 2, 8] {
                let engine = EngineBuilder::paper_default(&bg)
                    .executor(kind.build(threads))
                    .build()
                    .unwrap();
                for trace in test.iter().take(4) {
                    assert_eq!(
                        engine.protect_user(trace),
                        reference.protect_user(trace),
                        "{kind} x{threads} diverged on {}",
                        trace.user()
                    );
                }
            }
        }
    }

    #[test]
    fn stage_observer_changes_nothing_but_records_stages() {
        let (bg, test) = mini_world();
        let plain = MoodEngine::paper_default(&bg);
        let agg = Arc::new(StageAgg::new(&ENGINE_STAGES));
        let observed = EngineBuilder::paper_default(&bg)
            .stage_observer(Arc::clone(&agg))
            .build()
            .unwrap();
        for trace in test.iter().take(4) {
            assert_eq!(
                plain.protect_user(trace),
                observed.protect_user(trace),
                "observer must not change protection results for {}",
                trace.user()
            );
        }
        let totals = agg.snapshot();
        let stage = |name: &str| totals.iter().find(|t| t.stage == name);
        let raw = stage("raw_check").expect("raw check observed");
        assert_eq!(raw.count, 4, "one raw check per user");
        let eval = stage("candidate_eval").expect("candidate evaluation observed");
        assert!(
            eval.count >= 4 * 3,
            "at least one single-LPPM batch per user, got {}",
            eval.count
        );
        assert!(
            stage("search_single").is_some(),
            "single-LPPM stage observed"
        );
    }

    #[test]
    fn candidate_budget_degrades_deterministically() {
        let (bg, test) = mini_world();
        let unlimited = MoodEngine::paper_default(&bg);
        let starved = EngineBuilder::paper_default(&bg)
            .candidate_budget(1)
            .build()
            .unwrap();
        let mut saw_degraded = false;
        for trace in test.iter().take(6) {
            let a = starved.protect_user(trace);
            let b = starved.protect_user(trace);
            assert_eq!(a, b, "budgeted protection must be deterministic");
            saw_degraded |= a.degraded;
            // Degraded output is still made only of fully scored
            // candidates: whatever is published resists the suite.
            for p in a.outcome.published() {
                assert!(
                    unlimited.suite().protects(&p.trace, trace.user()),
                    "degraded output of {} not resilient",
                    trace.user()
                );
            }
            assert!(
                !unlimited.protect_user(trace).degraded,
                "an unbudgeted engine never degrades"
            );
        }
        assert!(
            saw_degraded,
            "budget=1 must exhaust the candidate search for at least one user"
        );
    }

    #[test]
    fn budgeted_protection_is_identical_across_executors() {
        // The cut point is a prefix in deterministic variant order, so the
        // degraded result must not depend on backend or thread count.
        let (bg, test) = mini_world();
        let reference = EngineBuilder::paper_default(&bg)
            .candidate_budget(7)
            .build()
            .unwrap();
        for kind in crate::ExecutorKind::all() {
            for threads in [1usize, 4] {
                let engine = EngineBuilder::paper_default(&bg)
                    .candidate_budget(7)
                    .executor(kind.build(threads))
                    .build()
                    .unwrap();
                for trace in test.iter().take(3) {
                    assert_eq!(
                        engine.protect_user(trace),
                        reference.protect_user(trace),
                        "{kind} x{threads} diverged under budget on {}",
                        trace.user()
                    );
                }
            }
        }
    }

    #[test]
    fn huge_budget_equals_the_unlimited_engine() {
        let (bg, test) = mini_world();
        let unlimited = MoodEngine::paper_default(&bg);
        let roomy = EngineBuilder::paper_default(&bg)
            .candidate_budget(usize::MAX)
            .build()
            .unwrap();
        for trace in test.iter().take(4) {
            let r = roomy.protect_user(trace);
            assert!(!r.degraded);
            assert_eq!(unlimited.protect_user(trace), r);
        }
    }

    /// One variant as the stage-by-stage reference computes it.
    struct RefVariant {
        name: String,
        trace: Trace,
        distortion: Option<f64>,
    }

    /// Every variant of `engine`'s search space built the slow way,
    /// one chain at a time with nothing shared: stage j of a chain
    /// takes stage j−1's output (stage 1 the raw trace) through the
    /// plain `protect` path and draws from `variant_rng` of the index
    /// of the chain's length-j prefix. Each variant carries its full
    /// distortion when it resists the suite.
    fn reference_variants(engine: &MoodEngine, trace: &Trace) -> Vec<RefVariant> {
        let base = engine.lppms();
        let paths = arrangements(base.len(), 1, engine.config().max_composition_len);
        let index = |prefix: &[usize]| paths.iter().position(|p| p == prefix).unwrap();
        paths
            .iter()
            .map(|path| {
                let mut out = trace.clone();
                for j in 1..=path.len() {
                    let mut rng = engine.variant_rng(trace, index(&path[..j]));
                    out = base[path[j - 1]].protect(&out, &mut rng);
                }
                let names: Vec<&str> = path.iter().map(|&i| base[i].name()).collect();
                let resilient = engine.suite().protects(&out, trace.user());
                RefVariant {
                    name: names.join("→"),
                    distortion: resilient.then(|| spatio_temporal_distortion(trace, &out)),
                    trace: out,
                }
            })
            .collect()
    }

    /// Exhaustive Best LPPM Selection over `variants[range]`: the
    /// resilient variant ranked first by `(distortion, index)`.
    fn exhaustive_best(
        variants: &[RefVariant],
        range: std::ops::Range<usize>,
    ) -> Option<ProtectedTrace> {
        range
            .filter_map(|k| variants[k].distortion.map(|d| (k, d)))
            .min_by(|(ka, a), (kb, b)| a.total_cmp(b).then_with(|| ka.cmp(kb)))
            .map(|(k, d)| ProtectedTrace {
                trace: variants[k].trace.clone(),
                lppm: variants[k].name.clone(),
                distortion_m: d,
            })
    }

    /// The whole-trace search under a candidate budget, on the
    /// reference: singles, then — when none is resilient — chains, each
    /// stage cut to a prefix in variant order.
    fn reference_search(
        engine: &MoodEngine,
        trace: &Trace,
        budget: usize,
    ) -> Option<(ProtectedTrace, bool)> {
        let variants = reference_variants(engine, trace);
        let n = engine.lppms().len();
        let singles = n.min(budget);
        let chains = (variants.len() - n).min(budget - singles);
        exhaustive_best(&variants, 0..singles)
            .map(|p| (p, false))
            .or_else(|| exhaustive_best(&variants, n..n + chains).map(|p| (p, true)))
    }

    fn bits_key(p: ProtectedTrace) -> (String, u64, Trace) {
        (p.lppm, p.distortion_m.to_bits(), p.trace)
    }

    /// Whole traces and their first two days: sub-traces are where most
    /// searches reach the composition stage.
    fn search_inputs(test: &Dataset) -> Vec<Trace> {
        test.iter()
            .take(4)
            .flat_map(|t| {
                let days = t.windows(TimeDelta::from_hours(24));
                std::iter::once(t.clone()).chain(days.into_iter().take(2))
            })
            .collect()
    }

    #[test]
    fn trie_walk_matches_the_stage_by_stage_reference() {
        let (bg, test) = mini_world();
        let sequential = MoodEngine::paper_default(&bg);
        let parallel = EngineBuilder::paper_default(&bg)
            .executor(ExecutorKind::Persistent.build(2))
            .build()
            .unwrap();
        assert_eq!(sequential.compositions().len(), 12);
        let mut compositions = 0;
        for trace in search_inputs(&test) {
            // Unlimited; 3 + 4, which cuts level 2; 3 + 8, which cuts
            // level 3.
            for budget in [usize::MAX, 7, 11] {
                let want = reference_search(&sequential, &trace, budget);
                compositions += usize::from(want.as_ref().is_some_and(|(_, c)| *c));
                let want = want.map(|(p, c)| (bits_key(p), c));
                for engine in [&sequential, &parallel] {
                    let got = engine
                        .search_whole_in(&trace, &mut BudgetState::new(budget))
                        .map(|(p, c)| (bits_key(p), c));
                    assert_eq!(
                        got,
                        want,
                        "{} x{} diverged on user {} under budget {budget}",
                        engine.executor().name(),
                        engine.executor().max_threads(),
                        trace.user()
                    );
                }
            }
        }
        assert!(compositions > 0, "no search reached a composition winner");
    }

    #[test]
    fn incumbent_pruning_selects_what_an_unpruned_scan_selects() {
        let (bg, test) = mini_world();
        let sequential = MoodEngine::paper_default(&bg);
        let parallel = EngineBuilder::paper_default(&bg)
            .executor(ExecutorKind::Persistent.build(2))
            .build()
            .unwrap();
        let mut pruned = 0;
        for engine in [&sequential, &parallel] {
            let n = engine.lppms().len();
            let total = n + engine.compositions().len();
            for trace in search_inputs(&test) {
                let reference = reference_variants(engine, &trace);
                // Both stages, each against an exhaustive scan of the
                // reference — the chains even when a single wins.
                let mut nodes = Vec::new();
                let single = engine.search_stage(&trace, &mut nodes, n, total);
                // Selection took the winning single's output, which the
                // chains still extend.
                if let Some(p) = &single {
                    let k = (0..n).find(|&k| engine.variant_name(k) == p.lppm).unwrap();
                    nodes[k].trace = Some(p.trace.clone());
                }
                let chain = engine.search_stage(&trace, &mut nodes, total, total);
                assert_eq!(
                    single.map(bits_key),
                    exhaustive_best(&reference, 0..n).map(bits_key),
                    "singles of user {}",
                    trace.user()
                );
                assert_eq!(
                    chain.map(bits_key),
                    exhaustive_best(&reference, n..total).map(bits_key),
                    "chains of user {}",
                    trace.user()
                );
                // A completed distortion is the full one, bit for bit;
                // a resilient node without one was pruned.
                for (node, r) in nodes.iter().zip(&reference) {
                    match (node.distortion, r.distortion) {
                        (Some(d), want) => assert_eq!(Some(d.to_bits()), want.map(f64::to_bits)),
                        (None, Some(_)) => pruned += 1,
                        (None, None) => {}
                    }
                }
            }
        }
        assert!(pruned > 0, "the mini world never exercised pruning");
    }

    #[test]
    fn scratch_arena_is_reused_after_warmup() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        // First batch warms the arena (one fresh allocation per worker
        // slot); every later batch on the same worker starts from a
        // recycled buffer.
        let _ = engine.protect_user(trace);
        let after_warmup = engine.scratch_reuses();
        assert!(
            after_warmup > 0,
            "a whole-user search runs several candidate batches; all but \
             the first per worker must reuse the arena"
        );
        let _ = engine.protect_user(trace);
        assert!(
            engine.scratch_reuses() > after_warmup,
            "later users must keep reusing the warmed-up arenas"
        );
        // Reuse must not change results (byte-identical determinism).
        assert_eq!(engine.protect_user(trace), engine.protect_user(trace));
    }

    #[test]
    fn attack_scratch_is_reused_and_rasterizations_are_shared() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let _ = engine.protect_user(trace);
        }
        // Multi-candidate scoring must run on warmed attack arenas...
        assert!(
            engine.attack_scratch_reuses() > 0,
            "candidate scoring never reused a warm attack scratch"
        );
        // ...and the shared raster cache must have served repeats: the
        // raw trace is rasterized by the suite's AP profile and again by
        // the HMC single.
        assert!(
            engine.raster_cache_misses() > 0,
            "raster cache never populated"
        );
        assert!(
            engine.raster_cache_hits() > 0,
            "raster cache never hit: raw-trace rasterizations not shared"
        );
    }

    #[test]
    fn sibling_engine_trains_for_free_through_the_shared_store() {
        let (bg, test) = mini_world();
        let first = MoodEngine::paper_default(&bg);
        let store = first
            .profile_store()
            .expect("paper_default always attaches a store");
        let cold = first.profile_store_counters();
        assert!(cold.misses > 0 && cold.profile_builds > 0);
        // POI and PIT share one extraction pass even inside one suite.
        assert!(cold.hits > 0, "PIT must reuse POI's profile extraction");

        let second = EngineBuilder::paper_default_with_store(&bg, store)
            .build()
            .unwrap();
        let warm = second.profile_store_counters();
        assert_eq!(
            warm.profile_builds, cold.profile_builds,
            "second engine over the same background must build zero profiles"
        );
        assert_eq!(warm.misses, cold.misses);
        assert!(warm.hits > cold.hits);

        // Shared profiles must not change verdicts.
        let trace = test.iter().next().unwrap();
        assert_eq!(first.protect_user(trace), second.protect_user(trace));
    }

    #[test]
    fn engines_without_a_store_report_zero_counters() {
        let (bg, _) = mini_world();
        let suite = Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        ));
        let engine = EngineBuilder::new(suite)
            .lppms(vec![Arc::new(GeoI::paper_default())])
            .build()
            .unwrap();
        assert!(engine.profile_store().is_none());
        assert_eq!(engine.profile_store_counters(), StoreCounters::default());
    }

    #[test]
    fn shared_lppm_sets_are_not_copied() {
        let (bg, _) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        let sibling = EngineBuilder::new(base.shared_suite())
            .lppms_shared(base.shared_lppms())
            .seed(1234)
            .build()
            .unwrap();
        // Same allocation, not a clone: the slices share an address.
        assert!(std::ptr::eq(
            base.lppms().as_ptr(),
            sibling.lppms().as_ptr()
        ));
        assert_eq!(sibling.compositions().len(), base.compositions().len());
    }

    #[test]
    fn user_ids_preserved_in_outcomes() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        let r = engine.protect_user(trace);
        assert_eq!(r.user, trace.user());
        for p in r.outcome.published() {
            assert_eq!(p.trace.user(), trace.user());
        }
        assert_ne!(r.user, UserId::new(999_999));
    }
}
