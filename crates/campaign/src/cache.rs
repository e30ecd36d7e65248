//! Content-addressed artifact cache with single-flight computation.
//!
//! Campaign corpora share structure: fine-tune families branch off one
//! base model, several scenarios monitor the same `Din`, properties
//! repeat. Every full-verification subproblem is therefore addressed by
//! the *content* of its instance — a 128-bit hash of the network snapshot
//! bytes ([`covern_nn::serialize::content_hash`]), both boxes' IEEE-754
//! bit patterns, the abstract domain, and the margin — and computed at
//! most once per campaign, however many scenarios and threads request it.
//!
//! **Single flight.** Each key owns a slot; the first requester computes
//! while holding the slot lock, concurrent requesters for the same key
//! block on the slot (not on the whole store) and are then served the
//! stored result. This makes hit/miss counts *deterministic*: for any
//! schedule, `misses` = number of distinct keys computed and `hits` =
//! requests − misses — which is what lets a campaign report be
//! reproducible under a fixed seed even at high thread counts.
//!
//! **Soundness.** A key collision would alias two different proofs, so the
//! address is 128 bits over bit-exact content — see the discussion at
//! [`covern_nn::serialize::content_hash`]. Verdicts served from the cache
//! are bit-identical to cache-cold verdicts because the underlying
//! computation is deterministic in the keyed content (the differential
//! test suite asserts this end to end).
//!
//! **Observability.** Besides the per-instance [`CacheStats`] counters
//! (which feed canonical campaign reports and must stay
//! schedule-independent), every instance mirrors hits/misses/entries
//! into the process-wide [`covern_observe::metrics()`] registry — those
//! series aggregate over *all* caches in the process and additionally
//! count single-flight waits, which are schedule-dependent and therefore
//! never appear in a report.
//!
//! **Proof-level entries.** Alongside the verdict store, the cache keeps a
//! second map of branch-and-bound checkpoints
//! ([`covern_core::artifact::BnbProofArtifact`]) addressed by
//! [`proof_family_key`] — the instance's *fine-tune family*: its layer
//! architecture (shapes and activations, **not** weight bits), boxes,
//! domain, and margin. A weight delta changes the verdict address but not
//! the family address, so the checkpoint from the pre-delta run seeds the
//! post-delta refinement. Entries are acceleration hints only — the engine
//! re-validates every proved leaf against the actual weights and re-runs
//! cold whenever a warm run cannot re-prove — so their hit/miss counters
//! are schedule-dependent (last write wins under concurrency) and must be
//! zeroed in canonical reports.

use covern_absint::box_domain::BoxDomain;
use covern_absint::DomainKind;
use covern_core::artifact::{BnbProofArtifact, Margin, ProofArtifacts};
use covern_core::cache::{BlobStore, FullVerifyFn, VerifyCache};
use covern_core::problem::VerificationProblem;
use covern_core::report::VerifyReport;
use covern_core::CoreError;
use covern_nn::serialize::content_hash;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u64; 2]);

impl CacheKey {
    /// The two 64-bit lanes of the address (lane order is stable and part
    /// of the on-disk format of spilled artifacts).
    pub fn as_words(&self) -> [u64; 2] {
        self.0
    }

    /// The address as one 128-bit integer (`lane0` in the high bits) —
    /// the form consumed by [`covern_core::cache::BlobStore`] and the
    /// cluster's consistent-hash ring.
    pub fn to_u128(self) -> u128 {
        (u128::from(self.0[0]) << 64) | u128::from(self.0[1])
    }

    /// Rebuilds a key from [`to_u128`](Self::to_u128)'s form.
    pub fn from_u128(v: u128) -> Self {
        Self([(v >> 64) as u64, v as u64])
    }

    /// The address as 32 lowercase hex digits — the file-name form of the
    /// disk-backed store.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Addresses an opaque byte string under a domain-separation tag — the
/// general-purpose entry point for content-addressed storage outside the
/// two verification key spaces (e.g. the cluster coordinator's session
/// checkpoints). Distinct tags never collide by construction.
pub fn content_key(tag: &str, bytes: &[u8]) -> CacheKey {
    let mut h = KeyHasher::new(tag);
    for &b in bytes {
        h.write_byte(b);
    }
    h.finish()
}

/// Two FNV-1a-64 lanes over u64 words (the same construction as
/// `covern_nn::serialize::content_hash`, seeded differently so network
/// hashes and composite keys never collide by construction).
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    const FNV_PRIME: u64 = 0x100_0000_01b3;

    fn new(tag: &str) -> Self {
        let mut h = Self { a: 0xcbf2_9ce4_8422_2325, b: 0x84222325_cbf29ce4 };
        for byte in tag.bytes() {
            h.write_byte(byte);
        }
        h
    }

    fn write_byte(&mut self, byte: u8) {
        self.a = (self.a ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
        self.b = (self.b ^ u64::from(byte).rotate_left(23)).wrapping_mul(Self::FNV_PRIME);
    }

    fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.write_byte(byte);
        }
    }

    fn write_box(&mut self, b: &BoxDomain) {
        self.write_u64(b.dim() as u64);
        for iv in b.intervals() {
            self.write_u64(iv.lo().to_bits());
            self.write_u64(iv.hi().to_bits());
        }
    }

    fn finish(&self) -> CacheKey {
        CacheKey([self.a, self.b])
    }
}

/// Derives the content address of a full-verification instance.
pub fn full_verify_key(
    problem: &VerificationProblem,
    domain: DomainKind,
    margin: Margin,
) -> CacheKey {
    let mut h = KeyHasher::new("covern-campaign-full-verify-v1");
    let net = content_hash(problem.network());
    h.write_u64(net[0]);
    h.write_u64(net[1]);
    h.write_box(problem.din());
    h.write_box(problem.dout());
    h.write_u64(match domain {
        DomainKind::Box => 0,
        DomainKind::Symbolic => 1,
        DomainKind::Zonotope => 2,
    });
    h.write_u64(margin.rel.to_bits());
    h.write_u64(margin.abs.to_bits());
    h.finish()
}

/// Derives the *fine-tune family* address of a full-verification
/// instance: everything [`full_verify_key`] covers **except** the weight
/// and bias bit patterns — per-layer shapes and activations stand in for
/// the network content. Two networks related by a fine-tune delta (same
/// architecture, different parameters) map to the same family, which is
/// what lets a stored branch-and-bound checkpoint outlive the delta.
pub fn proof_family_key(
    problem: &VerificationProblem,
    domain: DomainKind,
    margin: Margin,
) -> CacheKey {
    let mut h = KeyHasher::new("covern-campaign-proof-family-v1");
    h.write_u64(problem.network().num_layers() as u64);
    for layer in problem.network().layers() {
        h.write_u64(layer.out_dim() as u64);
        h.write_u64(layer.in_dim() as u64);
        // Activation tag + parameter; parameter bits count (a LeakyRelu
        // slope change is an architecture change, not a fine-tune).
        let (tag, param) = match layer.activation() {
            covern_nn::Activation::Identity => (0u64, 0u64),
            covern_nn::Activation::Relu => (1, 0),
            covern_nn::Activation::LeakyRelu(a) => (2, a.to_bits()),
            covern_nn::Activation::Sigmoid => (3, 0),
            covern_nn::Activation::Tanh => (4, 0),
        };
        h.write_u64(tag);
        h.write_u64(param);
    }
    h.write_box(problem.din());
    h.write_box(problem.dout());
    h.write_u64(match domain {
        DomainKind::Box => 0,
        DomainKind::Symbolic => 1,
        DomainKind::Zonotope => 2,
    });
    h.write_u64(margin.rel.to_bits());
    h.write_u64(margin.abs.to_bits());
    h.finish()
}

/// Derives the *fine-tune family* address of a **closed-loop** scenario:
/// the controller's layer architecture (shapes and activations, **not**
/// weight bits), the plant's exact affine map (plant bits *do* count — a
/// plant change is a different control problem, not a fine-tune), the
/// initial set, the unsafe region, the horizon and generator budget, and
/// the abstract domain. Two controllers related by a fine-tune delta map
/// to the same family, so the cluster routes them to the same worker and
/// the worker's tube cache warm-starts from the first changed layer.
///
/// Uses a tag distinct from [`proof_family_key`] so a closed-loop
/// scenario can never alias an open-loop family even when boxes and
/// architecture coincide.
pub fn loop_family_key(
    spec: &covern_closedloop::ClosedLoopSpec,
    controller: &covern_nn::Network,
    domain: DomainKind,
) -> CacheKey {
    let mut h = KeyHasher::new("covern-campaign-loop-family-v1");
    h.write_u64(controller.num_layers() as u64);
    for layer in controller.layers() {
        h.write_u64(layer.out_dim() as u64);
        h.write_u64(layer.in_dim() as u64);
        let (tag, param) = match layer.activation() {
            covern_nn::Activation::Identity => (0u64, 0u64),
            covern_nn::Activation::Relu => (1, 0),
            covern_nn::Activation::LeakyRelu(a) => (2, a.to_bits()),
            covern_nn::Activation::Sigmoid => (3, 0),
            covern_nn::Activation::Tanh => (4, 0),
        };
        h.write_u64(tag);
        h.write_u64(param);
    }
    let plant = spec.plant.layer();
    h.write_u64(plant.out_dim() as u64);
    h.write_u64(plant.in_dim() as u64);
    for &w in plant.weights().as_slice() {
        h.write_u64(w.to_bits());
    }
    for &b in plant.bias() {
        h.write_u64(b.to_bits());
    }
    h.write_box(&spec.init);
    h.write_box(&spec.unsafe_region);
    h.write_u64(spec.horizon as u64);
    h.write_u64(spec.max_generators as u64);
    h.write_u64(match domain {
        DomainKind::Box => 0,
        DomainKind::Symbolic => 1,
        DomainKind::Zonotope => 2,
    });
    h.finish()
}

/// Hit/miss counters of an [`ArtifactCache`] (monotone snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a stored artifact (including requests that
    /// waited for an in-flight computation of the same key).
    pub hits: u64,
    /// Requests that ran the underlying computation.
    pub misses: u64,
    /// Proof-level lookups that found a family checkpoint. Unlike
    /// `hits`/`misses`, this depends on the schedule (whether an earlier
    /// scenario already stored the family's checkpoint) and must be
    /// zeroed in canonical reports.
    pub proof_hits: u64,
    /// Proof-level lookups that found nothing (schedule-dependent, like
    /// `proof_hits`).
    pub proof_misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Bundle = (VerifyReport, ProofArtifacts);

/// How many verdict bundles an [`ArtifactCache`] keeps resident. Beyond
/// it the least recently used bundle is dropped (its key's slot stays),
/// so a long-running daemon's memory tracks this constant rather than the
/// number of distinct instances it has ever verified.
pub const RESIDENT_BUNDLES: usize = 256;

/// One key's slot: the single-flight latch, alive for the cache's whole
/// life even after the key's bundle has been evicted. The latch guards
/// whether the key's first computation has succeeded (and been counted as
/// the key's one miss). `computing` is advisory (metrics only): it marks
/// a compute in flight so a requester about to block can count itself as
/// a single-flight wait.
#[derive(Debug, Default)]
struct Slot {
    computed: Mutex<bool>,
    computing: std::sync::atomic::AtomicBool,
}

/// The resident bundles, least recently used first in `order`. Bundles
/// are shared so a hit copies one out after the lock is released.
#[derive(Debug)]
struct Resident {
    cap: usize,
    clock: u64,
    bundles: HashMap<CacheKey, (u64, Arc<Bundle>)>,
    order: BTreeMap<u64, CacheKey>,
}

impl Resident {
    fn new(cap: usize) -> Self {
        Self { cap, clock: 0, bundles: HashMap::new(), order: BTreeMap::new() }
    }

    /// `key`'s bundle, marked most recently used.
    fn get(&mut self, key: CacheKey) -> Option<Arc<Bundle>> {
        self.clock += 1;
        let (used, bundle) = self.bundles.get_mut(&key)?;
        self.order.remove(used);
        *used = self.clock;
        self.order.insert(self.clock, key);
        Some(Arc::clone(bundle))
    }

    /// Stores `key`'s bundle as most recently used; returns how many
    /// least recently used bundles were dropped to stay within the cap.
    fn insert(&mut self, key: CacheKey, bundle: Arc<Bundle>) -> u64 {
        self.clock += 1;
        if let Some((used, _)) = self.bundles.insert(key, (self.clock, bundle)) {
            self.order.remove(&used);
        }
        self.order.insert(self.clock, key);
        let mut evicted = 0;
        while self.bundles.len() > self.cap {
            let (_, oldest) = self.order.pop_first().expect("order tracks every bundle");
            self.bundles.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// The content-addressed artifact store (see module docs). Cheap to share:
/// wrap in an [`Arc`] and hand clones to every scenario worker.
#[derive(Debug)]
pub struct ArtifactCache {
    slots: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    resident: Mutex<Resident>,
    hits: AtomicU64,
    misses: AtomicU64,
    proofs: Mutex<HashMap<CacheKey, BnbProofArtifact>>,
    proof_hits: AtomicU64,
    proof_misses: AtomicU64,
    proof_reuse: bool,
    blob: Option<Arc<dyn BlobStore>>,
}

impl Default for ArtifactCache {
    /// An empty cache with proof-level reuse enabled.
    fn default() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            resident: Mutex::new(Resident::new(RESIDENT_BUNDLES)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            proofs: Mutex::new(HashMap::new()),
            proof_hits: AtomicU64::new(0),
            proof_misses: AtomicU64::new(0),
            proof_reuse: true,
            blob: None,
        }
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the resident bound (tests exercise eviction on small
    /// request sequences).
    #[cfg(test)]
    fn with_resident_cap(self, cap: usize) -> Self {
        *self.resident.lock().unwrap() = Resident::new(cap);
        self
    }

    /// Enables or disables the proof-level (checkpoint) store. With it
    /// off, `load_proof` always misses silently (no counter movement) and
    /// `store_proof` drops its argument — verdict-level caching is
    /// unaffected.
    #[must_use]
    pub fn with_proof_reuse(mut self, enabled: bool) -> Self {
        self.proof_reuse = enabled;
        self
    }

    /// Whether the proof-level store is enabled.
    pub fn proof_reuse_enabled(&self) -> bool {
        self.proof_reuse
    }

    /// Attaches a spill tier: `store_proof` additionally writes each
    /// checkpoint (serialized) through to `blob`, and `load_proof` falls
    /// back to it on an in-memory miss, promoting what it finds. This is
    /// how proof-level entries survive a process restart — a fresh cache
    /// over the same store warm-starts where the old one left off. A
    /// no-op tier while `proof_reuse` is off.
    #[must_use]
    pub fn with_blob_store(mut self, blob: Arc<dyn BlobStore>) -> Self {
        self.blob = Some(blob);
        self
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            proof_hits: self.proof_hits.load(Ordering::Relaxed),
            proof_misses: self.proof_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct instances requested: resident, evicted or in
    /// flight (eviction never lowers it).
    pub fn len(&self) -> usize {
        self.slots.lock().expect("cache map lock").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, key: CacheKey) -> Arc<Slot> {
        let mut map = self.slots.lock().expect("cache map lock");
        let before = map.len();
        let slot = Arc::clone(map.entry(key).or_default());
        if map.len() > before {
            covern_observe::metrics().cache_entries.inc();
        }
        slot
    }
}

impl VerifyCache for ArtifactCache {
    fn full_verify(
        &self,
        problem: &VerificationProblem,
        domain: DomainKind,
        margin: Margin,
        compute: &mut FullVerifyFn<'_>,
    ) -> Result<Bundle, CoreError> {
        let key = full_verify_key(problem, domain, margin);
        let slot = self.slot(key);
        // Advisory wait detection: schedule-dependent by nature, so it
        // only feeds the process-wide metrics, never a report.
        if slot.computing.load(Ordering::Relaxed) {
            covern_observe::metrics().cache_singleflight_waits_total.inc();
        }
        // Single flight: holding the slot's latch while computing makes
        // concurrent same-key requesters wait here, then observe the
        // stored bundle. Distinct keys never contend: the map and resident
        // locks are only held for one lookup or insert, and nothing waits
        // on a latch while holding either.
        let mut computed = slot.computed.lock().expect("cache slot lock");
        let stored = self.resident.lock().expect("resident lock").get(key);
        if let Some(stored) = stored {
            self.hits.fetch_add(1, Ordering::Relaxed);
            covern_observe::metrics().cache_hits_total.inc();
            return Ok((*stored).clone());
        }
        // Errors propagate without being stored: the next requester
        // re-runs the computation.
        slot.computing.store(true, Ordering::Relaxed);
        let result = compute();
        slot.computing.store(false, Ordering::Relaxed);
        let bundle = result?;
        // A key pays one miss, ever. Recomputing an evicted bundle is
        // deterministic in the key, so it yields the same bytes and counts
        // as the hit it replaces: hits and misses stay request arithmetic
        // whatever the resident bound dropped.
        if *computed {
            self.hits.fetch_add(1, Ordering::Relaxed);
            covern_observe::metrics().cache_hits_total.inc();
        } else {
            *computed = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            covern_observe::metrics().cache_misses_total.inc();
        }
        let evicted =
            self.resident.lock().expect("resident lock").insert(key, Arc::new(bundle.clone()));
        covern_observe::metrics().cache_evictions_total.add(evicted);
        Ok(bundle)
    }

    fn load_proof(
        &self,
        problem: &VerificationProblem,
        domain: DomainKind,
        margin: Margin,
    ) -> Option<BnbProofArtifact> {
        if !self.proof_reuse {
            return None;
        }
        let key = proof_family_key(problem, domain, margin);
        let mut found = self.proofs.lock().expect("proof map lock").get(&key).cloned();
        if found.is_none() {
            if let Some(blob) = &self.blob {
                // Spill-tier fallback: a checkpoint written by an earlier
                // process (or another cache over the same store). Decode
                // failures degrade to a miss — spilled bytes are hints.
                found = blob
                    .load(key.to_u128())
                    .and_then(|bytes| String::from_utf8(bytes).ok())
                    .and_then(|json| serde_json::from_str::<BnbProofArtifact>(&json).ok());
                if let Some(proof) = &found {
                    self.proofs.lock().expect("proof map lock").insert(key, proof.clone());
                }
            }
        }
        match &found {
            Some(_) => {
                self.proof_hits.fetch_add(1, Ordering::Relaxed);
                covern_observe::metrics().proof_warmstart_hits_total.inc();
            }
            None => {
                self.proof_misses.fetch_add(1, Ordering::Relaxed);
                covern_observe::metrics().proof_warmstart_misses_total.inc();
            }
        }
        found
    }

    fn store_proof(
        &self,
        problem: &VerificationProblem,
        domain: DomainKind,
        margin: Margin,
        proof: &BnbProofArtifact,
    ) {
        if !self.proof_reuse {
            return;
        }
        let key = proof_family_key(problem, domain, margin);
        // Last write wins: the freshest partition is the best seed for
        // the family's next delta, and any entry is only a hint anyway.
        self.proofs.lock().expect("proof map lock").insert(key, proof.clone());
        if let Some(blob) = &self.blob {
            if let Ok(json) = serde_json::to_string(proof) {
                blob.store(key.to_u128(), json.as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covern_nn::{Activation, Network, NetworkBuilder};
    use covern_tensor::Rng;

    fn tiny_problem(weight: f64) -> VerificationProblem {
        let net = NetworkBuilder::new(1)
            .dense_from_rows(&[&[weight]], &[0.0], Activation::Relu)
            .build()
            .unwrap();
        let din = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let dout = BoxDomain::from_bounds(&[(-1.0, weight.abs() + 1.0)]).unwrap();
        VerificationProblem::new(net, din, dout).unwrap()
    }

    #[test]
    fn keys_separate_every_component() {
        let p = tiny_problem(2.0);
        let base = full_verify_key(&p, DomainKind::Box, Margin::NONE);
        // Network content.
        let other_net = tiny_problem(2.0000000001);
        assert_ne!(base, full_verify_key(&other_net, DomainKind::Box, Margin::NONE));
        // Abstract domain.
        assert_ne!(base, full_verify_key(&p, DomainKind::Symbolic, Margin::NONE));
        // Margin.
        assert_ne!(base, full_verify_key(&p, DomainKind::Box, Margin::standard()));
        // Same content, freshly built: identical address.
        assert_eq!(base, full_verify_key(&tiny_problem(2.0), DomainKind::Box, Margin::NONE));
    }

    #[test]
    fn single_flight_counts_are_request_arithmetic() {
        let cache = Arc::new(ArtifactCache::new());
        let p = tiny_problem(3.0);
        let q = tiny_problem(-1.5);
        // 6 concurrent requests over 2 distinct keys.
        std::thread::scope(|scope| {
            for i in 0..6 {
                let cache = Arc::clone(&cache);
                let problem = if i % 2 == 0 { p.clone() } else { q.clone() };
                scope.spawn(move || {
                    let mut compute = || problem.verify_full(DomainKind::Box, 16);
                    cache
                        .full_verify(&problem, DomainKind::Box, Margin::NONE, &mut compute)
                        .unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "one computation per distinct key");
        assert_eq!(stats.hits, 4);
        assert_eq!(cache.len(), 2);
        assert!((stats.hit_rate() - 4.0 / 6.0).abs() < 1e-12);

        // The same arithmetic under eviction pressure: 24 concurrent
        // requests over 4 keys through a cache that keeps one bundle.
        let bounded = Arc::new(ArtifactCache::new().with_resident_cap(1));
        let problems: Vec<_> = (1..=4).map(|w| tiny_problem(f64::from(w))).collect();
        std::thread::scope(|scope| {
            for i in 0..24 {
                let cache = Arc::clone(&bounded);
                let problem = problems[i % 4].clone();
                scope.spawn(move || {
                    let mut compute = || problem.verify_full(DomainKind::Box, 16);
                    cache
                        .full_verify(&problem, DomainKind::Box, Margin::NONE, &mut compute)
                        .unwrap();
                    assert!(cache.resident.lock().unwrap().bundles.len() <= 1);
                });
            }
        });
        let stats = bounded.stats();
        assert_eq!((stats.misses, stats.hits, bounded.len()), (4, 20, 4));
    }

    /// A request sequence over more keys than the resident bound: eviction
    /// changes neither the counters nor a single served byte.
    #[test]
    fn bounded_residency_is_invisible_in_counters_and_bytes() {
        const CAP: usize = 3;
        let problems: Vec<_> = (1..=8).map(|w| tiny_problem(f64::from(w) * 0.75)).collect();
        // Forward, backward, then strided: every key is evicted and
        // requested again at least once.
        let order: Vec<usize> =
            (0..8).chain((0..8).rev()).chain((0..8).map(|i| (i * 3) % 8)).collect();
        let bounded = ArtifactCache::new().with_resident_cap(CAP);
        let unbounded = ArtifactCache::new();
        let bytes = |b: &Bundle| {
            format!("{:?}|{:?}|{}", b.0.outcome, b.0.strategy, serde_json::to_string(&b.1).unwrap())
        };
        for &i in &order {
            let p = &problems[i];
            let mut compute = || p.verify_full(DomainKind::Box, 16);
            let got = bounded.full_verify(p, DomainKind::Box, Margin::NONE, &mut compute).unwrap();
            let want =
                unbounded.full_verify(p, DomainKind::Box, Margin::NONE, &mut compute).unwrap();
            assert_eq!(bytes(&got), bytes(&want), "evicted key {i} replayed different bytes");
            assert!(bounded.resident.lock().unwrap().bundles.len() <= CAP);
        }
        assert_eq!(bounded.stats(), unbounded.stats());
        assert_eq!(bounded.stats().misses, 8);
        assert_eq!(bounded.stats().hits, order.len() as u64 - 8);
        assert_eq!(bounded.len(), unbounded.len());
        assert_eq!(bounded.len(), 8);
    }

    #[test]
    fn resident_set_drops_the_least_recently_used_bundle() {
        let problems: Vec<_> = (1..=3).map(|w| tiny_problem(f64::from(w))).collect();
        let cache = ArtifactCache::new().with_resident_cap(2);
        let keys: Vec<_> =
            problems.iter().map(|p| full_verify_key(p, DomainKind::Box, Margin::NONE)).collect();
        let request = |i: usize| {
            let p = &problems[i];
            let mut compute = || p.verify_full(DomainKind::Box, 16);
            cache.full_verify(p, DomainKind::Box, Margin::NONE, &mut compute).unwrap();
        };
        request(0);
        request(1);
        request(0); // 1 is now the least recently used
        request(2);
        let resident = cache.resident.lock().unwrap();
        assert!(resident.bundles.contains_key(&keys[0]));
        assert!(!resident.bundles.contains_key(&keys[1]));
        assert!(resident.bundles.contains_key(&keys[2]));
        assert_eq!(resident.order.len(), 2);
    }

    #[test]
    fn proof_family_key_survives_weight_deltas_only() {
        let p = tiny_problem(2.0);
        let base = proof_family_key(&p, DomainKind::Box, Margin::NONE);
        // A fine-tune delta (same architecture, different weights, same
        // boxes) stays in the family...
        let net = NetworkBuilder::new(1)
            .dense_from_rows(&[&[2.0000000001]], &[0.0], Activation::Relu)
            .build()
            .unwrap();
        let din = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let dout = BoxDomain::from_bounds(&[(-1.0, 3.0)]).unwrap();
        let tuned = VerificationProblem::new(net, din, dout.clone()).unwrap();
        assert_eq!(base, proof_family_key(&tuned, DomainKind::Box, Margin::NONE));
        // ...but any box, domain, margin, or activation change leaves it.
        let wider = NetworkBuilder::new(1)
            .dense_from_rows(&[&[2.0]], &[0.0], Activation::Relu)
            .build()
            .unwrap();
        let new_din = BoxDomain::from_bounds(&[(-2.0, 1.0)]).unwrap();
        let moved = VerificationProblem::new(wider, new_din, dout).unwrap();
        assert_ne!(base, proof_family_key(&moved, DomainKind::Box, Margin::NONE));
        assert_ne!(base, proof_family_key(&p, DomainKind::Symbolic, Margin::NONE));
        assert_ne!(base, proof_family_key(&p, DomainKind::Box, Margin::standard()));
        // And the family key never collides with the verdict key space.
        assert_ne!(base, full_verify_key(&p, DomainKind::Box, Margin::NONE));
    }

    #[test]
    fn loop_family_key_survives_controller_fine_tunes_only() {
        use covern_closedloop::{AffinePlant, ClosedLoopSpec};
        use covern_tensor::Matrix;

        let spec = ClosedLoopSpec {
            plant: AffinePlant::new(
                &Matrix::from_rows(&[&[0.5]]),
                &Matrix::from_rows(&[&[0.25]]),
                &[0.0],
            )
            .unwrap(),
            init: BoxDomain::from_bounds(&[(-0.5, 0.5)]).unwrap(),
            unsafe_region: BoxDomain::from_bounds(&[(0.9, 10.0)]).unwrap(),
            horizon: 10,
            max_generators: 12,
            sample_limit: 16,
        };
        let controller = |gain: f64| -> Network {
            NetworkBuilder::new(1)
                .dense_from_rows(&[&[1.0], &[-1.0]], &[0.0, 0.0], Activation::Relu)
                .dense_from_rows(&[&[gain, -gain]], &[0.0], Activation::Identity)
                .build()
                .unwrap()
        };
        let base = loop_family_key(&spec, &controller(0.5), DomainKind::Zonotope);
        // Weight-only controller deltas stay in the family.
        assert_eq!(base, loop_family_key(&spec, &controller(0.5000001), DomainKind::Zonotope));
        // Domain, plant bits, horizon, and region changes leave it.
        assert_ne!(base, loop_family_key(&spec, &controller(0.5), DomainKind::Box));
        let mut longer = spec.clone();
        longer.horizon = 11;
        assert_ne!(base, loop_family_key(&longer, &controller(0.5), DomainKind::Zonotope));
        let mut moved = spec.clone();
        moved.unsafe_region = BoxDomain::from_bounds(&[(0.8, 10.0)]).unwrap();
        assert_ne!(base, loop_family_key(&moved, &controller(0.5), DomainKind::Zonotope));
        let mut replanted = spec.clone();
        replanted.plant =
            AffinePlant::new(&Matrix::from_rows(&[&[0.6]]), &Matrix::from_rows(&[&[0.25]]), &[0.0])
                .unwrap();
        assert_ne!(base, loop_family_key(&replanted, &controller(0.5), DomainKind::Zonotope));
    }

    #[test]
    fn proof_store_roundtrips_within_the_family_and_respects_the_knob() {
        use covern_absint::bnb::BnbCheckpoint;
        use covern_nn::serialize::layer_hashes;

        let p = tiny_problem(2.0);
        let cp = BnbCheckpoint {
            proved: vec![BoxDomain::from_bounds(&[(-1.0, 0.0)]).unwrap()],
            open: vec![BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap()],
        };
        let proof = covern_core::artifact::BnbProofArtifact::new(
            &layer_hashes(p.network()),
            p.din().clone(),
            p.dout().clone(),
            DomainKind::Box,
            cp,
        );
        let cache = ArtifactCache::new();
        assert!(cache.load_proof(&p, DomainKind::Box, Margin::NONE).is_none());
        cache.store_proof(&p, DomainKind::Box, Margin::NONE, &proof);
        // Another family member (weight delta) sees the checkpoint.
        let tuned_net = NetworkBuilder::new(1)
            .dense_from_rows(&[&[2.125]], &[0.0], Activation::Relu)
            .build()
            .unwrap();
        let tuned = VerificationProblem::new(tuned_net, p.din().clone(), p.dout().clone()).unwrap();
        let loaded = cache.load_proof(&tuned, DomainKind::Box, Margin::NONE);
        assert_eq!(loaded.as_ref(), Some(&proof));
        // A different margin does not.
        assert!(cache.load_proof(&tuned, DomainKind::Box, Margin::standard()).is_none());
        let stats = cache.stats();
        assert_eq!(stats.proof_hits, 1);
        assert_eq!(stats.proof_misses, 2);
        // With the knob off, nothing is stored or served (or counted).
        let off = ArtifactCache::new().with_proof_reuse(false);
        off.store_proof(&p, DomainKind::Box, Margin::NONE, &proof);
        assert!(off.load_proof(&p, DomainKind::Box, Margin::NONE).is_none());
        assert_eq!(off.stats().proof_hits, 0);
        assert_eq!(off.stats().proof_misses, 0);
    }

    #[test]
    fn key_accessors_roundtrip_and_hex_is_stable() {
        let p = tiny_problem(2.0);
        let key = full_verify_key(&p, DomainKind::Box, Margin::NONE);
        assert_eq!(CacheKey::from_u128(key.to_u128()), key);
        let [a, b] = key.as_words();
        assert_eq!(key.to_u128(), (u128::from(a) << 64) | u128::from(b));
        assert_eq!(key.hex(), format!("{a:016x}{b:016x}"));
        assert_eq!(key.hex().len(), 32);
        // content_key is deterministic and tag-separated.
        assert_eq!(content_key("t1", b"abc"), content_key("t1", b"abc"));
        assert_ne!(content_key("t1", b"abc"), content_key("t2", b"abc"));
        assert_ne!(content_key("t1", b"abc"), content_key("t1", b"abd"));
    }

    /// A toy in-memory spill tier for exercising the blob hooks.
    #[derive(Debug, Default)]
    struct MemBlobs {
        map: Mutex<HashMap<u128, Vec<u8>>>,
    }

    impl covern_core::cache::BlobStore for MemBlobs {
        fn load(&self, key: u128) -> Option<Vec<u8>> {
            self.map.lock().unwrap().get(&key).cloned()
        }

        fn store(&self, key: u128, bytes: &[u8]) {
            self.map.lock().unwrap().insert(key, bytes.to_vec());
        }
    }

    #[test]
    fn proof_spill_survives_a_fresh_cache_over_the_same_store() {
        use covern_absint::bnb::BnbCheckpoint;
        use covern_nn::serialize::layer_hashes;

        let p = tiny_problem(2.0);
        let cp = BnbCheckpoint {
            proved: vec![BoxDomain::from_bounds(&[(-1.0, 0.0)]).unwrap()],
            open: vec![BoxDomain::from_bounds(&[(0.0, 1.0)]).unwrap()],
        };
        let proof = covern_core::artifact::BnbProofArtifact::new(
            &layer_hashes(p.network()),
            p.din().clone(),
            p.dout().clone(),
            DomainKind::Box,
            cp,
        );
        let blobs: Arc<MemBlobs> = Arc::new(MemBlobs::default());
        let first = ArtifactCache::new().with_blob_store(Arc::clone(&blobs) as _);
        first.store_proof(&p, DomainKind::Box, Margin::NONE, &proof);
        assert_eq!(blobs.map.lock().unwrap().len(), 1, "store_proof must write through");
        // A *fresh* cache (simulated restart) over the same store serves
        // the checkpoint from the spill tier and counts it as a hit.
        let second = ArtifactCache::new().with_blob_store(Arc::clone(&blobs) as _);
        let loaded = second.load_proof(&p, DomainKind::Box, Margin::NONE);
        assert_eq!(loaded.as_ref(), Some(&proof), "spilled checkpoint must replay bit-exactly");
        assert_eq!(second.stats().proof_hits, 1);
        // Corrupt bytes degrade to a miss, never an error.
        let key = proof_family_key(&p, DomainKind::Box, Margin::NONE).to_u128();
        blobs.map.lock().unwrap().insert(key, b"not json".to_vec());
        let third = ArtifactCache::new().with_blob_store(Arc::clone(&blobs) as _);
        assert!(third.load_proof(&p, DomainKind::Box, Margin::NONE).is_none());
        // With proof reuse off the spill tier is untouched either way.
        let off = ArtifactCache::new()
            .with_blob_store(Arc::new(MemBlobs::default()) as _)
            .with_proof_reuse(false);
        off.store_proof(&p, DomainKind::Box, Margin::NONE, &proof);
        assert!(off.load_proof(&p, DomainKind::Box, Margin::NONE).is_none());
    }

    #[test]
    fn warm_results_replay_cold_results_bitwise() {
        let mut rng = Rng::seeded(99);
        let net = Network::random(&[2, 5, 1], Activation::Relu, Activation::Identity, &mut rng);
        let din = BoxDomain::from_bounds(&[(-1.0, 1.0); 2]).unwrap();
        let dout = covern_absint::reach::reach_boxes(&net, &din, DomainKind::Box)
            .unwrap()
            .output()
            .dilate(1.0);
        let problem = VerificationProblem::new(net, din, dout).unwrap();
        let cold = problem.verify_full(DomainKind::Box, 64).unwrap();
        let cache = ArtifactCache::new();
        let mut compute = || problem.verify_full(DomainKind::Box, 64);
        let miss =
            cache.full_verify(&problem, DomainKind::Box, Margin::NONE, &mut compute).unwrap();
        let hit = cache.full_verify(&problem, DomainKind::Box, Margin::NONE, &mut compute).unwrap();
        assert_eq!(cold.0.outcome, miss.0.outcome);
        assert_eq!(miss.0.outcome, hit.0.outcome);
        assert_eq!(cold.1.state, hit.1.state, "artifacts must replay bit-identically");
    }
}
