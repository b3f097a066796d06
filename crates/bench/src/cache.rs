//! A content-addressed compile cache.
//!
//! Pipeline stages are pure functions of (input IR, training input,
//! stage configuration), so their outputs can be memoized under the key
//! `(input fingerprint, stage name, config hash)`. [`CompileCache`] holds
//! those [`StageArtifact`]s behind a mutex with FIFO eviction and
//! hit/miss/eviction counters, and optionally persists them to a directory
//! of hand-rolled JSON files (functions travel as IR text, profiles are
//! re-keyed by layout position so they survive the id renumbering a
//! textual round trip performs).
//!
//! Sharing is cross-config as well as cross-request: two pipeline
//! configurations that differ only in ICBM parameters share every artifact
//! up to and including the baseline, because each stage's key hashes only
//! the configuration that stage consumes.
//!
//! The disk layer is best-effort: unreadable or corrupt entries are
//! treated as misses, and it is enabled only when an explicit directory is
//! given (`EPIC_CACHE_DIR` for [`CompileCache::from_env`]). Disk-reloaded
//! functions are semantically identical to the originals but carry
//! renumbered ids, which can legally perturb schedule tie-breaking — the
//! in-memory layer, which the table drivers rely on for byte-identical
//! output, returns the original artifacts unchanged.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use control_cpr::IcbmStats;
use epic_ir::{BlockId, Function, OpId, Profile};
use epic_perf::OpCounts;

use crate::json::Json;
use crate::timing::json_string;

/// Identifies one memoized stage output.
///
/// `input_fp` is a structural fingerprint of everything upstream of the
/// stage (typically [`Function::fingerprint`] combined with the training
/// input's content hash); `config` hashes only the configuration fields
/// the stage itself consumes, so configs that differ elsewhere share the
/// entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the stage's input (IR + profiling input).
    pub input_fp: u64,
    /// Canonical stage name (one of [`crate::timing::stage::ALL`]).
    pub stage: &'static str,
    /// Hash of the configuration fields the stage consumes.
    pub config: u64,
}

/// Routes an input fingerprint to one of `buckets` executors with the
/// same FNV-1a mix [`CompileCache::shard_index`] uses for its lock shards
/// (hashing the fingerprint alone — stage and config are chosen by the
/// executor, not the router). The serve-layer worker pool routes requests
/// through this so every probe for one hot workload lands on one worker
/// and its cache shard stays core-local instead of ping-ponging.
pub fn route_fingerprint(input_fp: u64, buckets: usize) -> usize {
    let mut h = epic_ir::Fnv64::new();
    h.write_u64(input_fp);
    (h.finish() % buckets.max(1) as u64) as usize
}

/// One memoized stage output.
#[derive(Clone, Debug)]
pub enum StageArtifact {
    /// A bare transformed function (if-convert, superblock stages).
    Func(Function),
    /// The finished baseline with its training profile and counts.
    Baseline {
        /// Superblock-formed, unrolled, DCE-cleaned baseline.
        func: Function,
        /// Training profile of `func`.
        profile: Profile,
        /// Operation counts of `func` on the training input.
        counts: OpCounts,
    },
    /// The finished height-reduced side with its profile and counts.
    Optimized {
        /// Baseline + FRP conversion + ICBM.
        func: Function,
        /// ICBM transformation statistics.
        stats: IcbmStats,
        /// Training profile of `func`.
        profile: Profile,
        /// Operation counts of `func` on the training input.
        counts: OpCounts,
    },
}

impl StageArtifact {
    /// The function payload of any variant.
    pub fn function(&self) -> &Function {
        match self {
            StageArtifact::Func(f)
            | StageArtifact::Baseline { func: f, .. }
            | StageArtifact::Optimized { func: f, .. } => f,
        }
    }
}

/// A snapshot of the cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries displaced by the FIFO capacity bound.
    pub evictions: u64,
    /// The subset of `hits` served by reloading a disk entry.
    pub disk_hits: u64,
    /// Lookups that blocked on another caller's in-flight compute of the
    /// same key instead of duplicating it (singleflight).
    pub inflight_waits: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
}

impl CacheStats {
    /// Renders the counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"disk_hits\":{},\
             \"inflight_waits\":{},\"entries\":{}}}",
            self.hits, self.misses, self.evictions, self.disk_hits, self.inflight_waits,
            self.entries
        )
    }
}

/// The outcome of one [`CompileCache::get_or_compute`] call.
pub struct CacheOutcome {
    /// The (possibly shared) artifact.
    pub artifact: Arc<StageArtifact>,
    /// True when the artifact was served without running the compute
    /// closure.
    pub hit: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Arc<StageArtifact>>,
    order: VecDeque<CacheKey>,
}

/// One in-flight compute of a key: waiters block on `cv` until the leader
/// flips `done` (success, error or panic alike — see [`InflightGuard`]).
#[derive(Default)]
struct InflightEntry {
    done: Mutex<bool>,
    cv: Condvar,
}

impl InflightEntry {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}

/// Unregisters a leader's in-flight entry and wakes its waiters on *every*
/// exit path — normal return, compute error, or panic — so a failed leader
/// can never strand waiters.
struct InflightGuard<'a> {
    cache: &'a CompileCache,
    key: CacheKey,
    entry: Arc<InflightEntry>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.cache.inflight.lock().unwrap().remove(&self.key);
        *self.entry.done.lock().unwrap() = true;
        self.entry.cv.notify_all();
    }
}

/// A concurrent, content-addressed cache of pipeline stage artifacts.
///
/// The in-memory map is split into [`CompileCache::DEFAULT_SHARDS`]
/// independently locked shards addressed by a stable hash of the key, so
/// parallel table drivers probing different workloads never serialize on
/// one mutex. Capacity is divided evenly across shards and each shard
/// evicts FIFO beyond its share.
///
/// Every cache also mirrors its counters into the process-wide
/// [`MetricsRegistry`](epic_obs::MetricsRegistry) under
/// `compile_cache_{hits,misses,evictions,disk_hits}_total` (summed over
/// all cache instances in the process), and each probe opens a trace span
/// under the `cache` category when the global tracer is enabled.
pub struct CompileCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    disk_hits: AtomicU64,
    inflight_waits: AtomicU64,
    // Keys currently being computed by some caller (singleflight): a
    // second caller for the same key waits for the leader instead of
    // duplicating the compute.
    inflight: Mutex<HashMap<CacheKey, Arc<InflightEntry>>>,
    disk_dir: Option<PathBuf>,
    // Serializes disk reads/writes so concurrent requests for the same key
    // never observe a half-written file.
    disk_lock: Mutex<()>,
    // Process-wide registry mirrors of the counters above (resolved once;
    // updating them is lock-free).
    m_hits: Arc<epic_obs::Counter>,
    m_misses: Arc<epic_obs::Counter>,
    m_evictions: Arc<epic_obs::Counter>,
    m_disk_hits: Arc<epic_obs::Counter>,
    m_inflight_waits: Arc<epic_obs::Counter>,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new()
    }
}

impl CompileCache {
    /// Capacity large enough that the full suite times every ablation
    /// config fits without eviction.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Lock shards in the in-memory layer. Far more shards than the thread
    /// counts the table drivers use, so two threads rarely contend unless
    /// they probe the very same key.
    pub const DEFAULT_SHARDS: usize = 16;

    /// An in-memory cache with the default capacity.
    pub fn new() -> CompileCache {
        CompileCache::with_capacity(CompileCache::DEFAULT_CAPACITY)
    }

    /// An in-memory cache holding at most `capacity` artifacts (FIFO
    /// eviction beyond that), sharded [`DEFAULT_SHARDS`] ways.
    ///
    /// [`DEFAULT_SHARDS`]: CompileCache::DEFAULT_SHARDS
    pub fn with_capacity(capacity: usize) -> CompileCache {
        CompileCache::with_capacity_and_shards(capacity, CompileCache::DEFAULT_SHARDS)
    }

    /// An in-memory cache with an explicit shard count. The capacity is
    /// split evenly across shards (at least one entry each); a single shard
    /// gives the exact global FIFO bound of the pre-sharded cache.
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> CompileCache {
        let shards = shards.max(1);
        let registry = epic_obs::MetricsRegistry::global();
        CompileCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: (capacity.max(1)).div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            disk_dir: None,
            disk_lock: Mutex::new(()),
            m_hits: registry.counter("compile_cache_hits_total"),
            m_misses: registry.counter("compile_cache_misses_total"),
            m_evictions: registry.counter("compile_cache_evictions_total"),
            m_disk_hits: registry.counter("compile_cache_disk_hits_total"),
            m_inflight_waits: registry.counter("cache_inflight_waits_total"),
        }
    }

    /// Adds a best-effort on-disk layer rooted at `dir` (created on first
    /// write).
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> CompileCache {
        self.disk_dir = Some(dir.into());
        self
    }

    /// A cache configured from the environment: in-memory always, plus the
    /// disk layer when `EPIC_CACHE_DIR` is set and non-empty.
    pub fn from_env() -> CompileCache {
        match std::env::var("EPIC_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => CompileCache::new().with_disk_dir(dir),
            _ => CompileCache::new(),
        }
    }

    /// The number of lock shards in this cache's in-memory layer.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The index of the shard that owns `key`: a stable FNV-1a hash over
    /// all three key components, so entries spread evenly even when every
    /// probe shares one stage name or one input fingerprint. Exposed so
    /// callers that pin work to executors (the serve-layer worker pool)
    /// can route by the same function and keep a hot key's probes on one
    /// worker instead of bouncing its shard lock between all of them.
    pub fn shard_index(&self, key: &CacheKey) -> usize {
        let mut h = epic_ir::Fnv64::new();
        h.write_u64(key.input_fp);
        h.write_u64(key.config);
        h.write_str(key.stage);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// The shard owning `key`; see [`CompileCache::shard_index`].
    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Serves `key` from memory (then disk, when a disk layer exists),
    /// computing and inserting on miss.
    ///
    /// Misses are *singleflighted*: concurrent callers of the same key
    /// elect one leader to run `compute` while the rest block until the
    /// leader finishes, then serve the freshly inserted artifact as a hit
    /// (counted under [`CacheStats::inflight_waits`]). If the leader's
    /// compute fails, one waiter takes over and computes itself, so an
    /// error on one caller never poisons the others.
    ///
    /// Errors from `compute` are propagated and never cached.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_compute<E>(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<StageArtifact, E>,
    ) -> Result<CacheOutcome, E> {
        let _probe = epic_obs::Span::enter(key.stage, "cache");
        let mut compute = Some(compute);
        loop {
            if let Some(artifact) = self.shard_of(&key).lock().unwrap().map.get(&key).cloned()
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.inc();
                return Ok(CacheOutcome { artifact, hit: true });
            }
            if let Some(artifact) = self.disk_load(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.inc();
                self.m_disk_hits.inc();
                let artifact = self.insert(key, artifact);
                return Ok(CacheOutcome { artifact, hit: true });
            }
            // Elect a leader for this key, or join an existing flight.
            let role = {
                let mut inflight = self.inflight.lock().unwrap();
                match inflight.get(&key) {
                    Some(entry) => Err(Arc::clone(entry)),
                    None => {
                        let entry = Arc::new(InflightEntry::default());
                        inflight.insert(key, Arc::clone(&entry));
                        Ok(entry)
                    }
                }
            };
            match role {
                Ok(entry) => {
                    let _flight = InflightGuard { cache: self, key, entry };
                    // A previous leader may have inserted between our probe
                    // and our election; serve that instead of recomputing.
                    if let Some(artifact) =
                        self.shard_of(&key).lock().unwrap().map.get(&key).cloned()
                    {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.m_hits.inc();
                        return Ok(CacheOutcome { artifact, hit: true });
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    self.m_misses.inc();
                    let computed = (compute.take().expect("one leader election per caller"))()?;
                    let artifact = self.insert(key, Arc::new(computed));
                    self.disk_store(&key, &artifact);
                    return Ok(CacheOutcome { artifact, hit: false });
                }
                Err(entry) => {
                    self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                    self.m_inflight_waits.inc();
                    entry.wait();
                    // Re-probe: the leader either inserted the artifact
                    // (hit) or failed (we may become the next leader).
                }
            }
        }
    }

    /// Inserts `artifact` under `key`, evicting FIFO beyond the owning
    /// shard's capacity share. If a concurrent caller already inserted the
    /// key, their artifact wins (so every caller shares one allocation).
    fn insert(&self, key: CacheKey, artifact: Arc<StageArtifact>) -> Arc<StageArtifact> {
        let mut shard = self.shard_of(&key).lock().unwrap();
        if let Some(existing) = shard.map.get(&key) {
            return existing.clone();
        }
        while shard.map.len() >= self.shard_capacity {
            match shard.order.pop_front() {
                Some(old) => {
                    if shard.map.remove(&old).is_some() {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        self.m_evictions.inc();
                    }
                }
                None => break,
            }
        }
        shard.map.insert(key, artifact.clone());
        shard.order.push_back(key);
        artifact
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum(),
        }
    }

    fn entry_path(&self, key: &CacheKey) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        let stage = key.stage.replace(':', "_");
        Some(dir.join(format!("{stage}-{:016x}-{:016x}.json", key.input_fp, key.config)))
    }

    fn disk_load(&self, key: &CacheKey) -> Option<Arc<StageArtifact>> {
        let path = self.entry_path(key)?;
        let _io = self.disk_lock.lock().unwrap();
        let text = std::fs::read_to_string(&path).ok()?;
        match artifact_from_json(&text) {
            Ok(a) => Some(Arc::new(a)),
            Err(_) => {
                // A corrupt entry would otherwise shadow good recomputes
                // forever; drop it.
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn disk_store(&self, key: &CacheKey, artifact: &StageArtifact) {
        let Some(path) = self.entry_path(key) else { return };
        let Some(dir) = path.parent() else { return };
        let _io = self.disk_lock.lock().unwrap();
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, artifact_to_json(artifact)).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

// ---------------------------------------------------------------------------
// Disk serialization. Functions are stored as IR text; profiles are keyed by
// layout *position* (block index in layout order, op index in a whole-layout
// walk) because raw ids do not survive a print→parse round trip.
// ---------------------------------------------------------------------------

fn positions(f: &Function) -> (HashMap<BlockId, usize>, HashMap<OpId, usize>) {
    let mut block_pos = HashMap::new();
    let mut op_pos = HashMap::new();
    let mut next_op = 0usize;
    for (i, block) in f.blocks_in_layout().enumerate() {
        block_pos.insert(f.layout[i], i);
        for op in &block.ops {
            op_pos.insert(op.id, next_op);
            next_op += 1;
        }
    }
    (block_pos, op_pos)
}

fn ids_by_position(f: &Function) -> (Vec<BlockId>, Vec<OpId>) {
    let blocks = f.layout.clone();
    let mut ops = Vec::new();
    for block in f.blocks_in_layout() {
        for op in &block.ops {
            ops.push(op.id);
        }
    }
    (blocks, ops)
}

fn sparse_counts_json<K>(counts: &HashMap<K, u64>, pos_of: &HashMap<K, usize>) -> String
where
    K: Copy + std::hash::Hash + Eq,
{
    let mut pairs: Vec<(usize, u64)> = counts
        .iter()
        .filter_map(|(k, &v)| pos_of.get(k).map(|&p| (p, v)))
        .collect();
    pairs.sort_unstable();
    let body: Vec<String> = pairs.iter().map(|(p, v)| format!("[{p},{v}]")).collect();
    format!("[{}]", body.join(","))
}

fn profile_to_json(f: &Function, p: &Profile) -> String {
    let (block_pos, op_pos) = positions(f);
    format!(
        "{{\"blocks\":{},\"ops\":{},\"taken\":{}}}",
        sparse_counts_json(&p.block_entries, &block_pos),
        sparse_counts_json(&p.op_executed, &op_pos),
        sparse_counts_json(&p.branch_taken, &op_pos)
    )
}

fn sparse_counts_from_json<K>(j: &Json, id_of: &[K]) -> Result<HashMap<K, u64>, String>
where
    K: Copy + std::hash::Hash + Eq,
{
    let mut out = HashMap::new();
    for pair in j.as_arr().ok_or("count list is not an array")? {
        let pair = pair.as_arr().ok_or("count entry is not a pair")?;
        let (pos, count) = match pair {
            [p, c] => (
                p.as_u64().ok_or("bad position")? as usize,
                c.as_u64().ok_or("bad count")?,
            ),
            _ => return Err("count entry is not a pair".into()),
        };
        let id = id_of.get(pos).ok_or("position out of range")?;
        out.insert(*id, count);
    }
    Ok(out)
}

fn profile_from_json(f: &Function, j: &Json) -> Result<Profile, String> {
    let (blocks, ops) = ids_by_position(f);
    Ok(Profile {
        block_entries: sparse_counts_from_json(
            j.get("blocks").ok_or("missing blocks")?,
            &blocks,
        )?,
        op_executed: sparse_counts_from_json(j.get("ops").ok_or("missing ops")?, &ops)?,
        branch_taken: sparse_counts_from_json(j.get("taken").ok_or("missing taken")?, &ops)?,
    })
}

fn counts_to_json(c: &OpCounts) -> String {
    format!(
        "{{\"static_ops\":{},\"static_branches\":{},\"dynamic_ops\":{},\"dynamic_branches\":{}}}",
        c.static_ops, c.static_branches, c.dynamic_ops, c.dynamic_branches
    )
}

fn counts_from_json(j: &Json) -> Result<OpCounts, String> {
    let field = |name: &str| -> Result<u64, String> {
        j.get(name).and_then(Json::as_u64).ok_or_else(|| format!("missing count {name}"))
    };
    Ok(OpCounts {
        static_ops: field("static_ops")? as usize,
        static_branches: field("static_branches")? as usize,
        dynamic_ops: field("dynamic_ops")?,
        dynamic_branches: field("dynamic_branches")?,
    })
}

fn stats_to_json(s: &IcbmStats) -> String {
    format!(
        "{{\"hyperblocks\":{},\"cpr_blocks\":{},\"taken_blocks\":{},\"branches_collapsed\":{},\
         \"skipped\":{},\"promoted\":{},\"demoted\":{},\"dce_removed\":{}}}",
        s.hyperblocks,
        s.cpr_blocks,
        s.taken_blocks,
        s.branches_collapsed,
        s.skipped,
        s.promoted,
        s.demoted,
        s.dce_removed
    )
}

fn stats_from_json(j: &Json) -> Result<IcbmStats, String> {
    let field = |name: &str| -> Result<usize, String> {
        j.get(name)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("missing stat {name}"))
    };
    Ok(IcbmStats {
        hyperblocks: field("hyperblocks")?,
        cpr_blocks: field("cpr_blocks")?,
        taken_blocks: field("taken_blocks")?,
        branches_collapsed: field("branches_collapsed")?,
        skipped: field("skipped")?,
        promoted: field("promoted")?,
        demoted: field("demoted")?,
        dce_removed: field("dce_removed")?,
    })
}

/// On-disk artifact format version. Stamped into every serialized entry
/// and checked on load: an artifact written by a different schema (or one
/// predating the stamp, which carried silently-incompatible payloads
/// across releases) is rejected — and, via `CompileCache::disk_load`'s
/// corrupt-entry handling, deleted — instead of being deserialized into
/// the wrong shape.
pub const FORMAT_VERSION: u64 = 1;

/// Serializes an artifact as one JSON document.
pub fn artifact_to_json(a: &StageArtifact) -> String {
    let v = FORMAT_VERSION;
    match a {
        StageArtifact::Func(f) => {
            format!("{{\"v\":{v},\"kind\":\"func\",\"ir\":{}}}", json_string(&f.to_string()))
        }
        StageArtifact::Baseline { func, profile, counts } => format!(
            "{{\"v\":{v},\"kind\":\"baseline\",\"ir\":{},\"profile\":{},\"counts\":{}}}",
            json_string(&func.to_string()),
            profile_to_json(func, profile),
            counts_to_json(counts)
        ),
        StageArtifact::Optimized { func, stats, profile, counts } => format!(
            "{{\"v\":{v},\"kind\":\"optimized\",\"ir\":{},\"stats\":{},\"profile\":{},\"counts\":{}}}",
            json_string(&func.to_string()),
            stats_to_json(stats),
            profile_to_json(func, profile),
            counts_to_json(counts)
        ),
    }
}

/// Parses an artifact serialized by [`artifact_to_json`].
///
/// # Errors
///
/// Returns a description of the first structural problem (the caller
/// treats any error as a cache miss), including a format-version mismatch
/// — entries written by another schema version are never deserialized.
pub fn artifact_from_json(text: &str) -> Result<StageArtifact, String> {
    let j = Json::parse(text).map_err(|e| e.to_string())?;
    match j.get("v").and_then(Json::as_u64) {
        Some(FORMAT_VERSION) => {}
        Some(v) => return Err(format!("artifact format version {v} != {FORMAT_VERSION}")),
        None => return Err("artifact predates the format-version stamp".into()),
    }
    let ir = j.get("ir").and_then(Json::as_str).ok_or("missing ir")?;
    let func = epic_ir::parse_function(ir).map_err(|e| e.to_string())?;
    match j.get("kind").and_then(Json::as_str) {
        Some("func") => Ok(StageArtifact::Func(func)),
        Some("baseline") => {
            let profile = profile_from_json(&func, j.get("profile").ok_or("missing profile")?)?;
            let counts = counts_from_json(j.get("counts").ok_or("missing counts")?)?;
            Ok(StageArtifact::Baseline { func, profile, counts })
        }
        Some("optimized") => {
            let stats = stats_from_json(j.get("stats").ok_or("missing stats")?)?;
            let profile = profile_from_json(&func, j.get("profile").ok_or("missing profile")?)?;
            let counts = counts_from_json(j.get("counts").ok_or("missing counts")?)?;
            Ok(StageArtifact::Optimized { func, stats, profile, counts })
        }
        _ => Err("unknown artifact kind".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CompileError;
    use crate::timing::stage;

    fn sample_func() -> Function {
        epic_workloads::by_name("strcpy").unwrap().func
    }

    fn key(n: u64) -> CacheKey {
        CacheKey { input_fp: n, stage: stage::SUPERBLOCK, config: 7 }
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = CompileCache::new();
        let f = sample_func();
        let fp = f.fingerprint();
        let make = || Ok::<_, CompileError>(StageArtifact::Func(sample_func()));
        let first = cache.get_or_compute(key(1), make).unwrap();
        assert!(!first.hit);
        let second = cache.get_or_compute(key(1), make).unwrap();
        assert!(second.hit);
        assert_eq!(second.artifact.function().fingerprint(), fp);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.to_json().contains("\"hits\":1"));
    }

    #[test]
    fn distinct_stage_or_config_is_a_distinct_entry() {
        let cache = CompileCache::new();
        let make = || Ok::<_, CompileError>(StageArtifact::Func(sample_func()));
        cache.get_or_compute(key(1), make).unwrap();
        let other_cfg = CacheKey { config: 8, ..key(1) };
        assert!(!cache.get_or_compute(other_cfg, make).unwrap().hit);
        let other_stage = CacheKey { stage: stage::UNROLL, ..key(1) };
        assert!(!cache.get_or_compute(other_stage, make).unwrap().hit);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        // One shard gives the exact global FIFO bound.
        let cache = CompileCache::with_capacity_and_shards(2, 1);
        let make = || Ok::<_, CompileError>(StageArtifact::Func(sample_func()));
        for n in 0..3 {
            cache.get_or_compute(key(n), make).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // The oldest entry (0) was evicted; the newest two remain.
        assert!(!cache.get_or_compute(key(0), make).unwrap().hit);
        assert!(cache.get_or_compute(key(2), make).unwrap().hit);
    }

    #[test]
    fn sharded_eviction_bounds_total_residency() {
        let cache = CompileCache::with_capacity_and_shards(16, 4);
        let make = || Ok::<_, CompileError>(StageArtifact::Func(sample_func()));
        for n in 0..64 {
            cache.get_or_compute(key(n), make).unwrap();
        }
        let stats = cache.stats();
        // Each of the 4 shards holds at most its share (16/4 = 4).
        assert!(stats.entries <= 16, "entries {} exceed capacity", stats.entries);
        assert_eq!(stats.evictions, 64 - stats.entries as u64);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let cache = CompileCache::new();
        assert_eq!(cache.shards(), CompileCache::DEFAULT_SHARDS);
        for n in 0..256 {
            let idx = cache.shard_index(&key(n));
            assert!(idx < cache.shards());
            assert_eq!(idx, cache.shard_index(&key(n)), "shard routing must be stable");
        }
    }

    #[test]
    fn route_fingerprint_spreads_and_is_stable() {
        use std::collections::HashSet;
        let buckets = 8;
        let mut seen = HashSet::new();
        for fp in 0..1024u64 {
            let b = super::route_fingerprint(fp, buckets);
            assert!(b < buckets);
            assert_eq!(b, super::route_fingerprint(fp, buckets));
            seen.insert(b);
        }
        // 1024 fingerprints over 8 buckets must touch every bucket.
        assert_eq!(seen.len(), buckets);
        // Degenerate bucket counts still route somewhere valid.
        assert_eq!(super::route_fingerprint(42, 0), 0);
        assert_eq!(super::route_fingerprint(42, 1), 0);
    }

    #[test]
    fn shards_serve_concurrent_probes_without_poisoning() {
        use std::sync::Arc as StdArc;
        let cache = StdArc::new(CompileCache::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = StdArc::clone(&cache);
                std::thread::spawn(move || {
                    for n in 0..32 {
                        // Half the keys are shared across threads, half
                        // are thread-private.
                        let fp = if n % 2 == 0 { n } else { t * 1000 + n };
                        let out = cache
                            .get_or_compute(key(fp), || {
                                Ok::<_, CompileError>(StageArtifact::Func(sample_func()))
                            })
                            .unwrap();
                        assert!(StdArc::strong_count(&out.artifact) >= 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        // 16 shared keys + 4×16 private keys.
        assert_eq!(stats.entries, 16 + 64);
        assert_eq!(stats.hits + stats.misses, 4 * 32);
    }

    #[test]
    fn inflight_dedup_computes_once_per_key() {
        use std::sync::Barrier;
        let cache = Arc::new(CompileCache::new());
        let computes = Arc::new(AtomicU64::new(0));
        let threads = 8u64;
        let barrier = Arc::new(Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let out = cache
                        .get_or_compute(key(77), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open until every other
                            // caller has registered as a waiter, so the
                            // dedup (not scheduling luck) is what the
                            // assertions below observe.
                            let mut spins = 0u64;
                            while cache.stats().inflight_waits < threads - 1 {
                                std::thread::yield_now();
                                spins += 1;
                                assert!(spins < 1_000_000_000, "waiters never arrived");
                            }
                            Ok::<_, CompileError>(StageArtifact::Func(sample_func()))
                        })
                        .unwrap();
                    assert!(Arc::strong_count(&out.artifact) >= 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "singleflight must compute once");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (threads - 1, 1));
        assert_eq!(stats.inflight_waits, threads - 1);
        assert!(stats.to_json().contains("\"inflight_waits\":7"), "{}", stats.to_json());
    }

    #[test]
    fn failed_leader_hands_the_flight_to_a_waiter() {
        use std::sync::mpsc;
        let cache = Arc::new(CompileCache::new());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(key(5), || {
                    entered_tx.send(()).unwrap();
                    // Stay in flight until the main thread has joined as a
                    // waiter, then fail.
                    fail_rx.recv().unwrap();
                    Err(CompileError::Deadline { stage: stage::SUPERBLOCK })
                })
            })
        };
        entered_rx.recv().unwrap();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(key(5), || Ok::<_, CompileError>(StageArtifact::Func(sample_func())))
            })
        };
        // Release the leader once the waiter is blocked on the flight.
        let mut spins = 0u64;
        while cache.stats().inflight_waits < 1 {
            std::thread::yield_now();
            spins += 1;
            assert!(spins < 1_000_000_000, "waiter never blocked");
        }
        fail_tx.send(()).unwrap();
        assert!(leader.join().unwrap().is_err(), "leader's own error propagates");
        let out = waiter.join().unwrap().unwrap();
        assert!(!out.hit, "the waiter recomputed after the leader failed");
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "failed leader + recovering waiter");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn compute_errors_are_not_cached() {
        let cache = CompileCache::new();
        let boom = || {
            Err(CompileError::Deadline { stage: stage::SUPERBLOCK })
        };
        assert!(cache.get_or_compute(key(9), boom).is_err());
        // The failed lookup counted as a miss but left no entry behind.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (1, 0));
        let ok = cache
            .get_or_compute(key(9), || Ok::<_, CompileError>(StageArtifact::Func(sample_func())))
            .unwrap();
        assert!(!ok.hit);
    }

    #[test]
    fn artifacts_round_trip_through_json() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let (profile, counts) = epic_perf::profile_and_count(&w.func, &w.training).unwrap();
        let artifact = StageArtifact::Baseline { func: w.func.clone(), profile, counts };
        let reloaded = artifact_from_json(&artifact_to_json(&artifact)).unwrap();
        let StageArtifact::Baseline { func, profile, counts } = &reloaded else {
            panic!("wrong kind");
        };
        assert_eq!(func.fingerprint(), w.func.fingerprint());
        let StageArtifact::Baseline { profile: orig_profile, counts: orig_counts, .. } =
            &artifact
        else {
            unreachable!()
        };
        assert_eq!(counts, orig_counts);
        // Ids may renumber, but totals are invariant.
        let total = |p: &Profile| p.block_entries.values().sum::<u64>();
        assert_eq!(total(profile), total(orig_profile));
        let executed = |p: &Profile| p.op_executed.values().sum::<u64>();
        assert_eq!(executed(profile), executed(orig_profile));
    }

    #[test]
    fn optimized_artifact_round_trips_stats() {
        let s = IcbmStats {
            hyperblocks: 1,
            cpr_blocks: 2,
            taken_blocks: 3,
            branches_collapsed: 4,
            skipped: 5,
            promoted: 6,
            demoted: 7,
            dce_removed: 8,
        };
        let artifact = StageArtifact::Optimized {
            func: sample_func(),
            stats: s,
            profile: Profile::new(),
            counts: OpCounts {
                static_ops: 0,
                static_branches: 0,
                dynamic_ops: 0,
                dynamic_branches: 0,
            },
        };
        let StageArtifact::Optimized { stats, .. } =
            artifact_from_json(&artifact_to_json(&artifact)).unwrap()
        else {
            panic!("wrong kind");
        };
        assert_eq!(stats, s);
    }

    #[test]
    fn corrupt_json_is_rejected() {
        for bad in ["", "{}", "{\"kind\":\"func\"}", "{\"kind\":\"nope\",\"ir\":\"x\"}"] {
            assert!(artifact_from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn foreign_format_versions_are_rejected() {
        let current = artifact_to_json(&StageArtifact::Func(sample_func()));
        let stamp = format!("\"v\":{FORMAT_VERSION}");
        assert!(current.contains(&stamp), "{current:.60}");
        assert!(artifact_from_json(&current).is_ok());

        // An artifact written by a future (or past) schema version.
        let future = current.replace(&stamp, "\"v\":999");
        let err = artifact_from_json(&future).unwrap_err();
        assert!(err.contains("version"), "{err}");

        // An artifact predating the stamp entirely.
        let unstamped = current.replace(&format!("{stamp},"), "");
        let err = artifact_from_json(&unstamped).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }
}
