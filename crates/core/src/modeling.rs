//! Attack behavior modeling (Section III-A): attack-relevant BB
//! identification, attack-relevant graph construction (Algorithm 1), CST
//! measurement, and flattening into a CST-BBS.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sca_cache::{Cache, CacheConfig, CacheStats, Owner};
use sca_cfg::{enumerate_paths, max_spanning_tree, remove_back_edges, BlockId, Cfg, WeightedEdge};
use sca_cpu::{CpuConfig, Machine, RunError, Trace, Victim};
use sca_isa::{normalize_inst, Inst, Program};

use crate::cst::{Cst, CstBbs, CstStep};

/// A large-enough path weight standing in for the paper's `MAX` (the value
/// given to directly-connected relevant-block pairs).
const MAX_WEIGHT: f64 = 1e18;

/// Configuration of the modeling pipeline.
#[derive(Debug, Clone)]
pub struct ModelingConfig {
    /// Simulated-CPU configuration used to collect runtime data.
    pub cpu: CpuConfig,
    /// Cap on enumerated paths per relevant-block pair (Algorithm 1 path
    /// enumeration can be exponential in pathological CFGs).
    pub path_cap: usize,
    /// Geometry of the CST-replay cache simulator.
    ///
    /// Deliberately *small* (the paper replays blocks through a compact
    /// reference cache simulator, not the full LLC): a basic block touches
    /// tens of lines, so occupancy changes are only measurable against a
    /// cache of comparable capacity. Defaults to 16 sets × 4 ways (64
    /// lines).
    pub cst_cache: CacheConfig,
}

impl Default for ModelingConfig {
    fn default() -> ModelingConfig {
        ModelingConfig {
            cst_cache: CacheConfig::new(16, 4, 64),
            cpu: CpuConfig::default(),
            path_cap: 64,
        }
    }
}

/// Errors from [`build_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The program failed to execute.
    Run(RunError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Run(e) => write!(f, "trace collection failed: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Run(e) => Some(e),
        }
    }
}

impl From<RunError> for ModelError {
    fn from(e: RunError) -> ModelError {
        ModelError::Run(e)
    }
}

/// Everything the modeling pipeline produces. The [`CstBbs`] is the model
/// used for detection; the intermediate artifacts are exposed for the
/// Table-IV accuracy evaluation and for ablation studies
/// (C-INTERMEDIATE: callers get the intermediate results for free).
#[derive(Debug, Clone)]
pub struct ModelingOutcome {
    /// The attack behavior model.
    pub cst_bbs: CstBbs,
    /// The CFG of the program.
    pub cfg: Cfg,
    /// Blocks with nonzero HPC value (after identification step 1).
    pub potential_bbs: Vec<BlockId>,
    /// Blocks surviving the cache-set-overlap filter (step 2).
    pub overlap_bbs: Vec<BlockId>,
    /// All nodes of the attack-relevant graph (the identified
    /// attack-relevant blocks, #IAB in Table IV).
    pub relevant_bbs: Vec<BlockId>,
    /// Edges of the attack-relevant graph.
    pub relevant_edges: Vec<(BlockId, BlockId)>,
    /// The execution trace the model was built from.
    pub trace: Trace,
}

impl ModelingOutcome {
    /// Ground-truth attack-relevant blocks: blocks containing at least one
    /// generator-tagged instruction (#TAB in Table IV).
    pub fn ground_truth_bbs(program: &Program, cfg: &Cfg) -> BTreeSet<BlockId> {
        program.tags().map(|(i, _)| cfg.block_of_inst(i)).collect()
    }
}

/// Per-block HPC value: the sum over the block's instruction addresses of
/// the 11 counted Table-I events (Section III-A.1).
fn block_hpc_values(program: &Program, cfg: &Cfg, trace: &Trace) -> Vec<u64> {
    cfg.blocks()
        .iter()
        .map(|b| b.inst_addrs(program).map(|a| trace.hpc_value_at(a)).sum())
        .collect()
}

/// Per-block accessed LLC set indices (including flushed addresses).
fn block_sets(
    program: &Program,
    cfg: &Cfg,
    trace: &Trace,
    llc: &CacheConfig,
) -> Vec<BTreeSet<usize>> {
    cfg.blocks()
        .iter()
        .map(|b| {
            b.inst_addrs(program)
                .flat_map(|a| trace.accesses_at(a).iter().map(|&m| llc.set_index(m)))
                .collect()
        })
        .collect()
}

/// Everything `build_model` computes *before* CST replay: the trace and
/// the attack-relevant graph.
#[derive(Debug)]
pub(crate) struct TraceGraph {
    pub(crate) cfg: Cfg,
    pub(crate) trace: Trace,
    pub(crate) potential: Vec<BlockId>,
    pub(crate) overlap: Vec<BlockId>,
    pub(crate) relevant: Vec<BlockId>,
    pub(crate) edges: Vec<(BlockId, BlockId)>,
}

/// Build the attack behavior model of `program` run against `victim`.
///
/// # Errors
///
/// Returns [`ModelError::Run`] if trace collection fails (e.g. the program
/// is empty). A program with *no* attack-relevant blocks is not an error;
/// it yields an empty [`CstBbs`], which no attack model resembles.
pub fn build_model(
    program: &Program,
    victim: &Victim,
    config: &ModelingConfig,
) -> Result<ModelingOutcome, ModelError> {
    // Step 0: runtime data collection (HPC + PT substitutes). The machine
    // itself emits the `pipeline.execute` span.
    let trace = Machine::new(config.cpu.clone()).run(program, victim)?;
    let tg = graph_from_trace(program, trace, config);
    Ok(finish_model(program, config, tg, None))
}

/// Steps 1–5 of the pipeline on an already-collected trace: per-block
/// aggregation, relevant-block identification, and attack-relevant graph
/// construction (Algorithm 1). Pure in `(program, trace, config)`, so a
/// trace snapshotted from an in-progress [`sca_cpu::Execution`] yields
/// exactly the graph a batch run cut off at the same prefix yields —
/// the foundation of [`crate::stream::StreamingModeler`]'s prefix
/// identity.
pub(crate) fn graph_from_trace(
    program: &Program,
    trace: Trace,
    config: &ModelingConfig,
) -> TraceGraph {
    // `pipeline.collect` covers turning the raw trace into per-block
    // aggregates.
    let (cfg, hpc, sets) = {
        let mut sp = sca_telemetry::span("pipeline.collect");
        let cfg = Cfg::build(program);
        let hpc = block_hpc_values(program, &cfg, &trace);
        let sets = block_sets(program, &cfg, &trace, &config.cpu.hierarchy.llc);
        sp.attr("blocks", cfg.len());
        sp.attr("hpc_total", trace.totals.hpc_value());
        sp.attr("set_trace_len", trace.set_trace.len());
        (cfg, hpc, sets)
    };

    // Steps 1-2: relevant-BB identification.
    let (potential, overlap) = {
        let mut sp = sca_telemetry::span("pipeline.model.relevant_bb");

        // Step 1: potential attack-relevant blocks — nonzero HPC value.
        let potential: Vec<BlockId> = cfg.ids().filter(|b| hpc[b.0] > 0).collect();

        // Step 2: cache-set-overlap filtering — keep only blocks touching a
        // cache set that at least one *other* block also touches.
        let mut set_users: HashMap<usize, u32> = HashMap::new();
        for b in &potential {
            for &s in &sets[b.0] {
                *set_users.entry(s).or_insert(0) += 1;
            }
        }
        let overlap: Vec<BlockId> = potential
            .iter()
            .copied()
            .filter(|b| sets[b.0].iter().any(|s| set_users[s] >= 2))
            .collect();

        sp.attr("potential", potential.len());
        sp.attr("kept", overlap.len());
        sp.attr("dropped", cfg.len() - overlap.len());
        (potential, overlap)
    };

    // Steps 3-5: Algorithm 1 — attack-relevant graph construction.
    let (relevant, edges) = {
        let mut sp = sca_telemetry::span("pipeline.model.graph");
        let (relevant, edges) = attack_relevant_graph(&cfg, &hpc, &overlap, config.path_cap);
        sp.attr("nodes", relevant.len());
        sp.attr("edges", edges.len());
        (relevant, edges)
    };

    TraceGraph {
        cfg,
        trace,
        potential,
        overlap,
        relevant,
        edges,
    }
}

/// Steps 6-7: CST measurement per relevant block and flattening by
/// first-execution timestamp (ties and never-executed restored blocks
/// fall back to address order). Pure in `(program, config.cst_cache, tg)`.
pub(crate) fn finish_model(
    program: &Program,
    config: &ModelingConfig,
    tg: TraceGraph,
    memo: Option<&ReplayMemo>,
) -> ModelingOutcome {
    let cst_bbs = model_from_blocks_memo(
        program,
        &tg.cfg,
        &tg.trace,
        &tg.relevant,
        &config.cst_cache,
        memo,
    );
    ModelingOutcome {
        cst_bbs,
        cfg: tg.cfg,
        potential_bbs: tg.potential,
        overlap_bbs: tg.overlap,
        relevant_bbs: tg.relevant,
        relevant_edges: tg.edges,
        trace: tg.trace,
    }
}

/// Algorithm 1: build the attack-relevant graph.
///
/// Returns the graph's nodes (sorted) and edges. Nodes include every block
/// in `relevant` plus any block on a restored most-probable path between
/// two relevant blocks.
fn attack_relevant_graph(
    cfg: &Cfg,
    hpc: &[u64],
    relevant: &[BlockId],
    path_cap: usize,
) -> (Vec<BlockId>, Vec<(BlockId, BlockId)>) {
    if relevant.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if relevant.len() == 1 {
        return (vec![relevant[0]], Vec::new());
    }

    // Line 1: make the CFG loop-free.
    let dag = {
        let _sp = sca_telemetry::span("pipeline.model.graph.back_edges");
        remove_back_edges(cfg)
    };
    let relevant_set: HashSet<BlockId> = relevant.iter().copied().collect();

    // Lines 3-5: for each ordered pair, enumerate paths avoiding other
    // relevant blocks and score them by mean intermediate HPC value.
    let mut paths: Vec<Vec<BlockId>> = Vec::new();
    let mut edges: Vec<WeightedEdge> = Vec::new();
    for &vi in relevant {
        for &vj in relevant {
            if vi == vj {
                continue;
            }
            for p in enumerate_paths(&dag, vi, vj, &relevant_set, path_cap) {
                let weight = if p.len() == 2 {
                    MAX_WEIGHT
                } else {
                    let inner = &p[1..p.len() - 1];
                    inner.iter().map(|b| hpc[b.0] as f64).sum::<f64>() / inner.len() as f64
                };
                edges.push(WeightedEdge {
                    a: vi,
                    b: vj,
                    weight,
                    payload: paths.len(),
                });
                paths.push(p);
            }
        }
    }

    // Line 7: maximum spanning tree over the weighted path graph.
    let chosen = {
        let mut sp = sca_telemetry::span("pipeline.model.graph.mst");
        sp.attr("candidate_edges", edges.len());
        max_spanning_tree(cfg.len(), &edges)
    };

    // Line 8+: restore the labeled paths of the chosen edges.
    let mut nodes: BTreeSet<BlockId> = relevant.iter().copied().collect();
    let mut graph_edges: BTreeSet<(BlockId, BlockId)> = BTreeSet::new();
    for idx in chosen {
        let p = &paths[edges[idx].payload];
        for pair in p.windows(2) {
            nodes.insert(pair[0]);
            nodes.insert(pair[1]);
            graph_edges.insert((pair[0], pair[1]));
        }
    }

    (
        nodes.into_iter().collect(),
        graph_edges.into_iter().collect(),
    )
}

/// Measure the CST of one block (Section III-A.3): start from a cache full
/// of non-attacker data (`IO = 1, AO = 0`), feed the block's accessed
/// memory addresses, observe the occupancy change.
fn measure_cst(
    insts_with_accesses: &[(Inst, Vec<u64>)],
    cache_cfg: &CacheConfig,
) -> (Cst, CacheStats) {
    let mut cache = Cache::new(*cache_cfg);
    cache.prefill(Owner::Other);
    cache.reset_stats();
    let before = cache.state();
    for (inst, accesses) in insts_with_accesses {
        match inst {
            Inst::Clflush { .. } => {
                for &a in accesses {
                    cache.displace(a);
                }
            }
            Inst::Load { .. } | Inst::Store { .. } => {
                for &a in accesses {
                    cache.access(a, Owner::Attacker, matches!(inst, Inst::Store { .. }));
                }
            }
            _ => {}
        }
    }
    let after = cache.state();
    (Cst { before, after }, cache.stats())
}

/// A memo of per-block CST replays, keyed by the replayed access sequence
/// and the full replay-cache configuration.
///
/// [`measure_cst`] is a pure function of (a) the per-instruction kind and
/// access list it replays and (b) the replay cache's configuration
/// (geometry, policy, seed, partitioning) — nothing else reaches the
/// simulator. The memo key is a byte-exact encoding of both, so a hit
/// returns the identical `(Cst, CacheStats)` the replay would have
/// produced. A [`crate::stream::StreamingModeler`] re-models every
/// prefix of one run, so most blocks replay identically from one
/// increment to the next, which is where the savings come from.
/// Collisions are handled by comparing the full key bytes, never the
/// hash alone.
#[derive(Debug, Default)]
pub(crate) struct ReplayMemo {
    map: Mutex<HashMap<u64, MemoBucket>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One hash bucket: (full key bytes, memoized replay result) pairs.
type MemoBucket = Vec<(Vec<u8>, (Cst, CacheStats))>;

impl ReplayMemo {
    /// Replays served from the memo / replays actually simulated.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The byte-exact memo key: replay-cache configuration, then one
    /// record per instruction (kind tag + access addresses). Only the
    /// fields [`measure_cst`] actually reads are encoded — and all of
    /// them are.
    fn key(insts_with_accesses: &[(Inst, Vec<u64>)], cache_cfg: &CacheConfig) -> Vec<u8> {
        let mut key = Vec::with_capacity(64 + insts_with_accesses.len() * 16);
        key.extend_from_slice(&(cache_cfg.sets as u64).to_le_bytes());
        key.extend_from_slice(&(cache_cfg.ways as u64).to_le_bytes());
        key.extend_from_slice(&cache_cfg.line_size.to_le_bytes());
        key.push(cache_cfg.policy as u8);
        key.extend_from_slice(&cache_cfg.seed.to_le_bytes());
        key.extend_from_slice(&(cache_cfg.reserved_victim_ways as u64).to_le_bytes());
        for (inst, accesses) in insts_with_accesses {
            // The replay distinguishes exactly four instruction shapes.
            key.push(match inst {
                Inst::Clflush { .. } => 1,
                Inst::Load { .. } => 2,
                Inst::Store { .. } => 3,
                _ => 0,
            });
            key.extend_from_slice(&(accesses.len() as u64).to_le_bytes());
            for a in accesses {
                key.extend_from_slice(&a.to_le_bytes());
            }
        }
        key
    }

    /// Measure (or recall) one block's CST; the flag says whether the
    /// memo served it.
    fn measure(
        &self,
        insts_with_accesses: &[(Inst, Vec<u64>)],
        cache_cfg: &CacheConfig,
    ) -> ((Cst, CacheStats), bool) {
        let key = ReplayMemo::key(insts_with_accesses, cache_cfg);
        let hash = fnv1a(&key);
        {
            let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(bucket) = map.get(&hash) {
                if let Some((_, v)) = bucket.iter().find(|(k, _)| *k == key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (*v, true);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = measure_cst(insts_with_accesses, cache_cfg);
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = map.entry(hash).or_default();
        if !bucket.iter().any(|(k, _)| *k == key) {
            bucket.push((key, v));
        }
        (v, false)
    }
}

/// FNV-1a over raw bytes: stable across runs, platforms, and Rust
/// versions (unlike [`std::hash::DefaultHasher`], whose output is
/// explicitly unspecified), which on-disk cache addressing needs.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Build a CST-BBS directly from a chosen block set, bypassing
/// Algorithm 1's graph construction (used by ablation studies comparing
/// the attack-relevant graph against naive block selections).
pub fn model_from_blocks(
    program: &Program,
    cfg: &Cfg,
    trace: &Trace,
    blocks: &[BlockId],
    cst_cache: &CacheConfig,
) -> CstBbs {
    model_from_blocks_memo(program, cfg, trace, blocks, cst_cache, None)
}

/// [`model_from_blocks`] with an optional replay memo shared across
/// models (the streaming modeler passes its own in).
pub(crate) fn model_from_blocks_memo(
    program: &Program,
    cfg: &Cfg,
    trace: &Trace,
    blocks: &[BlockId],
    cst_cache: &CacheConfig,
    memo: Option<&ReplayMemo>,
) -> CstBbs {
    let mut sp = sca_telemetry::span("pipeline.model.cst_replay");
    let mut stats = CacheStats::default();
    // Addresses fed through loads/stores, counted independently of the
    // replay cache so its hit+miss bookkeeping is cross-checkable.
    let mut replayed = 0u64;
    let mut memoized = 0u64;
    let mut steps = Vec::with_capacity(blocks.len());
    for &b in blocks {
        let block = cfg.block(b);
        let insts = &program.insts()[block.insts.clone()];
        let accesses: Vec<(Inst, Vec<u64>)> = block
            .insts
            .clone()
            .map(|idx| {
                let addr = program.addr_of(idx);
                (program.insts()[idx], trace.accesses_at(addr).to_vec())
            })
            .collect();
        replayed += accesses
            .iter()
            .filter(|(i, _)| matches!(i, Inst::Load { .. } | Inst::Store { .. }))
            .map(|(_, a)| a.len() as u64)
            .sum::<u64>();
        let (cst, block_stats) = match memo {
            Some(m) => {
                let (v, hit) = m.measure(&accesses, cst_cache);
                memoized += u64::from(hit);
                v
            }
            None => measure_cst(&accesses, cst_cache),
        };
        stats.merge(&block_stats);
        let first_seen = block
            .inst_addrs(program)
            .filter_map(|a| trace.first_seen_at(a))
            .min()
            .unwrap_or(u64::MAX);
        steps.push(CstStep {
            bb_addr: block.start_addr(program),
            norm_insts: insts.iter().map(normalize_inst).collect(),
            cst,
            first_seen,
        });
    }
    steps.sort_by_key(|s| (s.first_seen, s.bb_addr));
    if sp.is_recording() {
        sp.attr("blocks", blocks.len());
        sp.attr("cache_hits", stats.hits);
        sp.attr("cache_misses", stats.misses);
        sp.attr("cache_flushes", stats.flushes);
        sp.attr("replayed_accesses", replayed);
        sp.attr("replays_memoized", memoized);
        sca_telemetry::counter("cst_replay.cache_hits", stats.hits);
        sca_telemetry::counter("cst_replay.cache_misses", stats.misses);
        sca_telemetry::counter("cst_replay.cache_flushes", stats.flushes);
        sca_telemetry::counter("cst.replays_memoized", memoized);
    }
    CstBbs::new(steps)
}

/// Summary counters for the Table-IV evaluation of one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BbIdentificationStats {
    /// Total basic blocks (#BB).
    pub total: usize,
    /// Ground-truth attack-relevant blocks (#TAB).
    pub ground_truth: usize,
    /// Identified attack-relevant blocks (#IAB).
    pub identified: usize,
    /// Ground-truth blocks among the identified (#ITAB).
    pub identified_truth: usize,
}

impl BbIdentificationStats {
    /// Compute the Table-IV counters for one modeled program.
    pub fn compute(program: &Program, outcome: &ModelingOutcome) -> BbIdentificationStats {
        let truth = ModelingOutcome::ground_truth_bbs(program, &outcome.cfg);
        let identified: BTreeSet<BlockId> = outcome.relevant_bbs.iter().copied().collect();
        BbIdentificationStats {
            total: outcome.cfg.len(),
            ground_truth: truth.len(),
            identified: identified.len(),
            identified_truth: truth.intersection(&identified).count(),
        }
    }

    /// Identification accuracy `#ITAB / #TAB` (1.0 when there is no ground
    /// truth).
    pub fn accuracy(&self) -> f64 {
        if self.ground_truth == 0 {
            1.0
        } else {
            self.identified_truth as f64 / self.ground_truth as f64
        }
    }

    /// Merge counters across programs (for per-family rows).
    pub fn merge(&mut self, other: &BbIdentificationStats) {
        self.total += other.total;
        self.ground_truth += other.ground_truth;
        self.identified += other.identified;
        self.identified_truth += other.identified_truth;
    }
}

/// Convenience: build models for a whole batch serially, returning
/// name-keyed **per-program** results — one failing variant no longer
/// aborts the rest of the batch; each program carries its own
/// `Result`. This is the serial reference the parallel
/// [`crate::builder::ModelBuilder`] is byte-exactness-checked against.
pub fn build_models<'a>(
    programs: impl IntoIterator<Item = (&'a Program, &'a Victim)>,
    config: &ModelingConfig,
) -> BTreeMap<String, Result<ModelingOutcome, ModelError>> {
    programs
        .into_iter()
        .map(|(p, v)| (p.name().to_string(), build_model(p, v, config)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_attacks::benign::{self, Kind};
    use sca_attacks::poc::{self, PocParams};

    fn model_of(s: &sca_attacks::Sample) -> ModelingOutcome {
        build_model(&s.program, &s.victim, &ModelingConfig::default()).expect("model")
    }

    #[test]
    fn fr_model_is_nonempty_and_covers_ground_truth() {
        let s = poc::flush_reload_iaik(&PocParams::default());
        let out = model_of(&s);
        assert!(!out.cst_bbs.is_empty());
        let stats = BbIdentificationStats::compute(&s.program, &out);
        assert!(stats.ground_truth > 0);
        assert!(
            stats.accuracy() >= 0.8,
            "ground-truth coverage too low: {stats:?}"
        );
        assert!(
            stats.identified < stats.total,
            "some irrelevant blocks must be eliminated: {stats:?}"
        );
    }

    #[test]
    fn identification_shrinks_block_set_progressively() {
        let s = poc::prime_probe_iaik(&PocParams::default());
        let out = model_of(&s);
        assert!(out.potential_bbs.len() <= out.cfg.len());
        assert!(out.overlap_bbs.len() <= out.potential_bbs.len());
    }

    #[test]
    fn flush_blocks_have_io_decreasing_cst() {
        let s = poc::flush_reload_iaik(&PocParams::default());
        let out = model_of(&s);
        // at least one step must show IO decreasing (the flush step)
        assert!(
            out.cst_bbs
                .steps()
                .iter()
                .any(|st| st.cst.after.io < st.cst.before.io),
            "no step decreases IO"
        );
        // and at least one step must show AO increasing (the reload step)
        assert!(
            out.cst_bbs
                .steps()
                .iter()
                .any(|st| st.cst.after.ao > st.cst.before.ao),
            "no step increases AO"
        );
    }

    #[test]
    fn steps_are_ordered_by_first_execution() {
        let s = poc::flush_reload_iaik(&PocParams::default());
        let out = model_of(&s);
        let times: Vec<u64> = out.cst_bbs.steps().iter().map(|s| s.first_seen).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn modeling_is_deterministic() {
        let s = poc::spectre_fr_v1(&PocParams::default());
        let a = model_of(&s);
        let b = model_of(&s);
        assert_eq!(a.cst_bbs, b.cst_bbs);
    }

    #[test]
    fn benign_programs_produce_smaller_or_dissimilar_models() {
        let s = benign::generate(Kind::Leetcode, 3);
        let out = build_model(&s.program, &s.victim, &ModelingConfig::default()).expect("model");
        // benign programs have no ground-truth tags
        let stats = BbIdentificationStats::compute(&s.program, &out);
        assert_eq!(stats.ground_truth, 0);
        assert_eq!(stats.accuracy(), 1.0);
    }

    #[test]
    fn relevant_graph_edges_connect_relevant_nodes() {
        let s = poc::flush_reload_iaik(&PocParams::default());
        let out = model_of(&s);
        let nodes: HashSet<BlockId> = out.relevant_bbs.iter().copied().collect();
        for (a, b) in &out.relevant_edges {
            assert!(nodes.contains(a) && nodes.contains(b));
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let s = poc::flush_reload_iaik(&PocParams::default());
        let out = model_of(&s);
        assert_eq!(crate::similarity_score(&out.cst_bbs, &out.cst_bbs), 1.0);
    }

    #[test]
    fn empty_program_is_a_run_error() {
        let p = sca_isa::ProgramBuilder::new("e").build();
        let r = build_model(&p, &Victim::None, &ModelingConfig::default());
        assert!(matches!(r, Err(ModelError::Run(_))));
    }
}
