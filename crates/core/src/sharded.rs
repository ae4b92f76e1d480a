//! Sharded serving: IVF-on-top-of-graphs for datasets past the
//! last-level cache (and past RAM, with mapped stores).
//!
//! A [`ShardedIndex`] partitions the vectors with balanced k-means
//! ([`crate::kmeans::balanced_kmeans`], trained on a stride sample, then
//! one capacity-capped assignment round over the full dataset), builds an
//! independent proximity graph per shard, and at query time ranks shards
//! by query-to-centroid distance and searches only the nearest `nprobe`
//! of them — the classic inverted-file pattern with a graph traversal
//! inside each cell. Per-shard top-`k` lists merge through one bounded
//! neighbor heap with local→global id translation.
//!
//! Why shard a graph index at all: a monolithic graph's beam search
//! scatters reads across the entire dataset, so past the LLC almost every
//! hop is a cache (or page) miss. A shard confines the traversal to a
//! working set `shards×` smaller — when a shard's rows fit in cache the
//! per-hop cost drops, and with mapped stores the untouched shards never
//! fault in at all. The price is recall: the true neighbors of a query
//! near a partition boundary may live in a shard that was not probed.
//! `nprobe` trades that risk back — `nprobe = shards` searches every
//! shard and is exactly the merged union of all per-shard searches.
//!
//! The query loop is not sharding's own: a [`ShardedIndex`] is a
//! [`Partitioned`] index behind a [`CentroidRouter`], and probes, merges,
//! carries the budget and fans out exactly as every partitioned index
//! does (ELPIS is the same type over its leaves). The planned probes
//! either run sequentially on the caller or fan out across the resident
//! [`crate::fanout::FanoutPool`] (when
//! `--fanout-workers`/[`crate::fanout::set_fanout_workers`] asks for more
//! than one executor). Both paths merge per-shard results in
//! ranked-centroid order and are observationally identical — same
//! neighbors, same distance bits, same counter totals.
//!
//! Each shard is a full [`PrebuiltIndex`], so the entire serving ladder
//! (freeze → quantize → reorder) applies per shard unchanged. Sharded
//! state persists through [`crate::persist`] as a shard table (centroids
//! and per-shard global id lists) plus per-shard store/graph sections
//! in the mapped layout; see [`ShardedIndex::save`].
//!
//! Set-up — build, persist, load, every ladder step — runs
//! [`ShardedParams::threads`] shards at a time on [`crate::par`]. Shards
//! share nothing, so the width changes neither a file byte nor an answer,
//! only wall time and how many shards are resident at once.

use crate::distance::{l2_sq, DistCounter, Space};
use crate::graph::FlatGraph;
use crate::index::{AnnIndex, PrebuiltIndex};
use crate::kmeans;
use crate::neighbor::{BoundedMaxHeap, Neighbor};
use crate::par::par_map;
use crate::partition::{Partitioned, Router};
use crate::persist::{self, PersistError, ShardTable};
use crate::seed::{RandomSeeds, SeedProvider};
use crate::store::VectorStore;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// The routing table: the file that makes a directory loadable ([`commit_dir`]).
const TABLE_FILE: &str = "shards.gass";

/// Partitioning parameters for [`ShardedIndex::build_with`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedParams {
    /// Number of partitions (clamped to the dataset size; shards left
    /// empty by the balanced assignment are dropped).
    pub shards: usize,
    /// Default shards searched per query (clamped to `1..=shards`;
    /// adjustable later via [`ShardedIndex::set_nprobe`]).
    pub nprobe: usize,
    /// Balanced k-means refinement rounds over the training sample.
    pub kmeans_iters: usize,
    /// Training sample cap: k-means sees every `ceil(n / train_sample)`-th
    /// row, the full dataset only joins for the final assignment round.
    pub train_sample: usize,
    /// RNG seed for the k-means initialization.
    pub seed: u64,
    /// Shards set up concurrently (`0` = all cores). Output is identical
    /// at every width; [`ShardedIndex::build_to_dir`] keeps
    /// `min(threads, shards)` shards resident, so pass `1` where one shard
    /// is all the memory there is.
    pub threads: usize,
}

impl ShardedParams {
    /// `shards` partitions with the defaults the extension benches use:
    /// probe a quarter of the shards, 10 Lloyd rounds over at most 64Ki
    /// training rows.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        Self {
            shards,
            nprobe: shards.div_ceil(4),
            kmeans_iters: 10,
            train_sample: 65_536,
            seed: 42,
            threads: 0,
        }
    }

    /// Overrides the default probe count.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.clamp(1, self.shards);
        self
    }

    /// Overrides the k-means seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the set-up width (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Routes by query-to-centroid distance: every centroid evaluation is
/// counted, ties go to the lower shard number, and no shard is pruned (a
/// centroid distance bounds nothing inside its cell).
pub struct CentroidRouter {
    /// Aligned `shards × dim` store of partition centroids.
    centroids: VectorStore,
}

impl Router for CentroidRouter {
    fn rank(&self, query: &[f32], counter: &DistCounter) -> Vec<(f32, usize)> {
        let mut order: Vec<(f32, usize)> = (0..self.centroids.len())
            .map(|s| {
                counter.bump();
                (l2_sq(query, self.centroids.get(s as u32)), s)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order
    }

    fn rank_cost(&self) -> usize {
        self.centroids.len()
    }

    fn prunes(&self) -> bool {
        false
    }

    fn name(&self) -> String {
        format!("Sharded({}x)", self.centroids.len())
    }

    fn heap_bytes(&self) -> usize {
        self.centroids.heap_bytes()
    }
}

/// A balanced-k-means-partitioned collection of per-shard graph indexes
/// with centroid-routed `nprobe` search — see the module docs.
pub type ShardedIndex = Partitioned<PrebuiltIndex, CentroidRouter>;

impl Partitioned<PrebuiltIndex, CentroidRouter> {
    /// Partitions `store` and builds one graph per shard through `build`,
    /// which receives the shard number and the shard's (shard-local)
    /// store and returns its traversal graph and seed provider. Shards
    /// build [`ShardedParams::threads`] at a time; `build` itself may also
    /// parallelize internally.
    ///
    /// # Panics
    /// Panics if `store` is empty or a `build` result disagrees with its
    /// shard's store.
    pub fn build_with<F>(
        store: &VectorStore,
        params: &ShardedParams,
        counter: &DistCounter,
        build: F,
    ) -> Self
    where
        F: Fn(usize, &VectorStore) -> (FlatGraph, Box<dyn SeedProvider>) + Sync,
    {
        let (centroid_rows, shard_ids) = partition(store, params, counter);
        let centroids =
            VectorStore::from_rows(store.dim(), centroid_rows.iter().map(Vec::as_slice))
                .to_aligned();
        let finish = |s: usize, sub, graph, seeds| {
            let index = PrebuiltIndex::new(sub, graph, seeds, format!("shard-{s}"));
            Ok::<_, Infallible>((index, shard_ids[s].clone()))
        };
        let Ok(shards) = build_shards(store, params, &shard_ids, &build, finish);
        Self::new(shards, CentroidRouter { centroids }, params.nprobe, params.threads)
    }

    /// Builds the sharded state straight to `dir`, [`ShardedParams::threads`]
    /// shards at a time: each worker persists its shard and drops it before
    /// taking the next, so peak heap is `min(threads, shards)` shards plus
    /// the (possibly mapped) source store — one shard at `with_threads(1)`.
    /// This is the build path for tiers past RAM: pair it with a mapped
    /// source store and reload the result with [`Self::load`], which maps
    /// the per-shard stores back in on fault.
    ///
    /// Layout and commit protocol match [`Self::save`] exactly; on failure
    /// the first error in shard order is returned, workers stop taking new
    /// shards, and `dir` holds no `shards.gass`.
    pub fn build_to_dir<F>(
        store: &VectorStore,
        params: &ShardedParams,
        counter: &DistCounter,
        dir: &Path,
        build: F,
    ) -> Result<(), PersistError>
    where
        F: Fn(usize, &VectorStore) -> (FlatGraph, Box<dyn SeedProvider>) + Sync,
    {
        begin_dir(dir)?;
        let (centroid_rows, shard_ids) = partition(store, params, counter);
        build_shards(store, params, &shard_ids, &build, |s, sub, graph, _| {
            save_shard(dir, s, &sub, &graph)
        })?;
        let table = ShardTable {
            nprobe: params.nprobe.clamp(1, shard_ids.len()),
            dim: store.dim(),
            centroids: centroid_rows.into_iter().flatten().collect(),
            shard_ids,
        };
        commit_dir(dir, &table)
    }

    /// The partition centroids (`num_shards` rows).
    pub fn centroids(&self) -> &VectorStore {
        &self.router.centroids
    }

    /// Re-aligns every shard's store rows to the SIMD stride (forwarded
    /// [`PrebuiltIndex::align_store`]; part of the serving configuration).
    pub fn align_store(&mut self) {
        self.for_each_shard_mut(PrebuiltIndex::align_store);
    }

    /// Reassembles the full dataset in global id order by gathering every
    /// shard's rows — the inverse of the partition. Used where a consumer
    /// needs the base vectors (exact ground truth, re-partitioning).
    ///
    /// # Panics
    /// Panics after [`AnnIndex::reorder`]: reordered shard stores are in
    /// permuted local order and no longer gatherable by original id.
    pub fn gather_store(&self) -> VectorStore {
        assert!(
            !self.parts.iter().any(|s| s.index.is_reordered()),
            "gather_store requires pre-reorder shard stores"
        );
        let mut flat = vec![0.0f32; self.total * self.dim];
        for shard in &self.parts {
            let store = shard.index.store();
            for (local, &global) in shard.to_global.iter().enumerate() {
                let dst = global as usize * self.dim;
                flat[dst..dst + self.dim].copy_from_slice(store.get(local as u32));
            }
        }
        VectorStore::from_flat(self.dim, flat)
    }

    /// Writes the sharded state under directory `dir`: `shards.gass` (the
    /// routing table) plus per-shard `shard-NNN.store.gass` (mapped
    /// layout, so huge tiers reload without heap residency) and
    /// `shard-NNN.graph.gass`. The table is written last and renamed into
    /// place ([`commit_dir`]): a directory that has one is complete.
    ///
    /// Persists the **pre-ladder** state, mirroring the CLI's convention
    /// for monolithic indexes: freeze/quantize/reorder are cheap,
    /// deterministic re-applications on load, and seed structures are
    /// rebuilt rather than shipped.
    ///
    /// # Errors
    /// Returns an `InvalidInput` I/O error, before touching `dir`, if a
    /// shard has been frozen (its build graph has moved into CSR, and a
    /// reorder would also have permuted its store rows).
    pub fn save(&self, dir: &Path) -> Result<(), PersistError> {
        if self.parts.iter().any(|s| s.index.is_frozen()) {
            return Err(PersistError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "save sharded state before freezing or reordering (the ladder re-applies on load)",
            )));
        }
        begin_dir(dir)?;
        for (s, shard) in self.parts.iter().enumerate() {
            save_shard(dir, s, shard.index.store(), shard.index.graph())?;
        }
        let table = ShardTable {
            nprobe: self.nprobe(),
            dim: self.dim,
            centroids: (0..self.centroids().len() as u32)
                .flat_map(|s| self.centroids().get(s).iter().copied())
                .collect(),
            shard_ids: self.parts.iter().map(|s| s.to_global.clone()).collect(),
        };
        commit_dir(dir, &table)
    }

    /// Reloads sharded state saved by [`Self::save`]. Shard stores come
    /// back through [`persist::open_store`] — memory-mapped when enabled,
    /// parsed onto the heap otherwise — and each shard is served through
    /// a [`PrebuiltIndex`] with K-sampled random seeds, exactly like the
    /// CLI's monolithic load path.
    pub fn load(dir: &Path) -> Result<Self, PersistError> {
        Self::load_with(dir, 0)
    }

    /// [`Self::load`] opening (and later laddering) `threads` shards at a
    /// time; the first error in shard order wins.
    pub(crate) fn load_with(dir: &Path, threads: usize) -> Result<Self, PersistError> {
        let table = persist::load_shard_table(&dir.join(TABLE_FILE))?;
        let dim = table.dim;
        let centroid_count = table.centroids.len() / dim.max(1);
        if centroid_count != table.shard_ids.len()
            || centroid_count * dim != table.centroids.len()
        {
            return Err(PersistError::Truncated);
        }
        let centroids = VectorStore::from_flat(dim, table.centroids).to_aligned();
        let ids = &table.shard_ids;
        let opened = par_map(threads, ids.len(), |s| {
            let (store_path, graph_path) = shard_paths(dir, s);
            let store = persist::open_store(&store_path)?;
            let graph = persist::load_flat_graph(&graph_path)?;
            if store.len() != ids[s].len() || store.dim() != dim {
                return Err(PersistError::Truncated);
            }
            Ok((store, graph))
        });
        let mut shards = Vec::with_capacity(ids.len());
        for (s, (ids, opened)) in table.shard_ids.into_iter().zip(opened).enumerate() {
            let (store, graph) = opened?;
            // Per-query-keyed draws: coalesced bucketing visits shards in
            // a different order than the sequential loop, and only an
            // order-independent provider keeps the two bit-identical.
            let seeds = Box::new(RandomSeeds::per_query(store.len(), 7));
            shards.push((PrebuiltIndex::new(store, graph, seeds, format!("shard-{s}")), ids));
        }
        Ok(Self::new(shards, CentroidRouter { centroids }, table.nprobe, threads))
    }
}

/// The shard-worker loop both build paths share: subset, `build` and
/// `finish` every shard, [`ShardedParams::threads`] at a time. A worker
/// holds one shard at a time — whatever `finish` does not return is
/// dropped before its next. Results come back in shard order; after a
/// failure no worker starts another shard and the first error in shard
/// order wins.
fn build_shards<R, E, F, G>(
    store: &VectorStore,
    params: &ShardedParams,
    shard_ids: &[Vec<u32>],
    build: &F,
    finish: G,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize, &VectorStore) -> (FlatGraph, Box<dyn SeedProvider>) + Sync,
    G: Fn(usize, VectorStore, FlatGraph, Box<dyn SeedProvider>) -> Result<R, E> + Sync,
{
    let failed = AtomicBool::new(false);
    let done = par_map(params.threads, shard_ids.len(), |s| {
        if failed.load(Ordering::Relaxed) {
            return None;
        }
        let sub = store.subset(&shard_ids[s]);
        let (graph, seeds) = build(s, &sub);
        let result = finish(s, sub, graph, seeds);
        if result.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        Some(result)
    });
    done.into_iter().flatten().collect()
}

/// Shard `s`'s store and graph files under `dir`.
fn shard_paths(dir: &Path, s: usize) -> (PathBuf, PathBuf) {
    (dir.join(format!("shard-{s:03}.store.gass")), dir.join(format!("shard-{s:03}.graph.gass")))
}

fn save_shard(
    dir: &Path,
    s: usize,
    store: &VectorStore,
    graph: &FlatGraph,
) -> Result<(), PersistError> {
    let (store_path, graph_path) = shard_paths(dir, s);
    persist::save_store_mapped(store, &store_path)?;
    persist::save_flat_graph(graph, &graph_path)
}

/// Opens `dir` for a new set of shard files: creates it and retracts the
/// table of whatever it held, so that from here to [`commit_dir`] the
/// directory does not load.
fn begin_dir(dir: &Path) -> Result<(), PersistError> {
    std::fs::create_dir_all(dir)?;
    match std::fs::remove_file(dir.join(TABLE_FILE)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// Commits a shard directory whose shard files are all written: removes
/// the `shard-NNN.*` files of shards a previous occupant had beyond
/// `table`'s, then writes the table beside its final name and renames it
/// into place — the table appears whole or not at all. (Covers a killed or
/// failing build, not power loss: nothing is fsynced.)
fn commit_dir(dir: &Path, table: &ShardTable) -> Result<(), PersistError> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let shard_no = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|rest| rest.split('.').next())
            .and_then(|digits| digits.parse::<usize>().ok());
        if shard_no.is_some_and(|s| s >= table.shard_ids.len()) {
            std::fs::remove_file(dir.join(name))?;
        }
    }
    let tmp = dir.join(format!("{TABLE_FILE}.tmp"));
    persist::save_shard_table(table, &tmp)?;
    Ok(std::fs::rename(tmp, dir.join(TABLE_FILE))?)
}

/// Balanced partition shared by the in-memory and to-disk build paths:
/// train on a stride sample, then one capacity-capped assignment round
/// over the full dataset (capacity exactly `ceil(n/k)`, so no shard
/// exceeds its fair share). Shards the capped greedy round starved are
/// dropped rather than carried as unroutable centroids.
fn partition(
    store: &VectorStore,
    params: &ShardedParams,
    counter: &DistCounter,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
    assert!(!store.is_empty(), "cannot shard an empty store");
    let total = store.len();
    let k = params.shards.min(total);
    let step = total.div_ceil(params.train_sample.max(1)).max(1);
    let train: Vec<u32> = (0..total as u32).step_by(step).collect();
    let clustering =
        kmeans::balanced_kmeans(store, &train, k, params.kmeans_iters, params.seed, counter);
    let all: Vec<u32> = (0..total as u32).collect();
    let mut assignment = vec![0usize; total];
    let cap = total.div_ceil(clustering.centroids.len());
    kmeans::balanced_assign_round(
        store,
        &all,
        &clustering.centroids,
        cap,
        counter,
        &mut assignment,
    );
    let mut shard_ids: Vec<Vec<u32>> = vec![Vec::new(); clustering.centroids.len()];
    for (pos, &c) in assignment.iter().enumerate() {
        shard_ids[c].push(pos as u32);
    }
    clustering.centroids.into_iter().zip(shard_ids).filter(|(_, ids)| !ids.is_empty()).unzip()
}

/// Builds a sharded index whose shards use the same graph construction as
/// the CLI's `--method` dispatch is free to provide; here as a
/// convenience for tests and benches: a Vamana-style graph via the
/// workspace's default prebuilt path is *not* constructible from core
/// (methods live above core), so this helper builds each shard as a
/// brute-force k-NN graph — exact, deterministic, and adequate for the
/// observational-equivalence tests. Real builds inject their method
/// through [`ShardedIndex::build_with`].
pub fn build_knn_sharded(
    store: &VectorStore,
    params: &ShardedParams,
    degree: usize,
    counter: &DistCounter,
) -> ShardedIndex {
    ShardedIndex::build_with(store, params, counter, |_, sub| knn_shard(sub, degree, counter))
}

/// One shard of [`build_knn_sharded`]: the exact `degree`-NN graph of `sub`.
fn knn_shard(
    sub: &VectorStore,
    degree: usize,
    counter: &DistCounter,
) -> (FlatGraph, Box<dyn SeedProvider>) {
    let n = sub.len();
    let mut adj = crate::graph::AdjacencyGraph::new(n);
    let space = Space::new(sub, counter);
    for v in 0..n as u32 {
        let mut heap = BoundedMaxHeap::new(degree.min(n.saturating_sub(1)).max(1));
        for u in 0..n as u32 {
            if u != v {
                heap.push(Neighbor::new(u, space.dist(v, u)));
            }
        }
        adj.set_neighbors(v, heap.into_sorted().into_iter().map(|nb| nb.id).collect());
    }
    let graph = FlatGraph::from_adjacency(&adj, None);
    (graph, Box::new(RandomSeeds::per_query(n, 7)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QueryParams;
    use crate::quant::CodecSpec;
    use crate::search::SearchResult;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// A directory of this test's own under `temp_dir()`, removed on drop
    /// (a stale `shard-003.*` from an older run must not meet a `read_dir`
    /// byte-compare, and tests run concurrently).
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let unique = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("gass_sharded_{tag}_{}_{unique}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }

        /// File name → bytes of everything in the directory.
        fn files(&self) -> BTreeMap<String, Vec<u8>> {
            std::fs::read_dir(&self.0)
                .unwrap()
                .map(|entry| {
                    let name = entry.unwrap().file_name().into_string().unwrap();
                    let bytes = std::fs::read(self.0.join(&name)).unwrap();
                    (name, bytes)
                })
                .collect()
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Counts builder closures in flight; the guard it hands out leaves
    /// again on drop, a panic's unwind included.
    #[derive(Default)]
    struct Gauge {
        live: AtomicUsize,
        high_water: AtomicUsize,
        entered: AtomicUsize,
    }

    struct InFlight<'a>(&'a Gauge);

    impl Gauge {
        fn enter(&self) -> InFlight<'_> {
            self.entered.fetch_add(1, Ordering::SeqCst);
            let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.high_water.fetch_max(live, Ordering::SeqCst);
            InFlight(self)
        }
    }

    impl Drop for InFlight<'_> {
        fn drop(&mut self) {
            self.0.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// `n` points on no particular structure: with `n` a multiple of the
    /// shard count the capped assignment fills every shard exactly.
    fn scattered(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = VectorStore::new(dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| rng.random_range(-4.0f32..4.0)).collect();
            store.push(&row);
        }
        store
    }

    fn blobs(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = VectorStore::new(dim);
        for i in 0..n {
            let center = (i % 4) as f32 * 10.0;
            let row: Vec<f32> =
                (0..dim).map(|_| center + rng.random_range(-1.0f32..1.0)).collect();
            store.push(&row);
        }
        store
    }

    #[test]
    fn partitions_are_balanced_and_cover_everything() {
        let store = blobs(200, 8, 1);
        let counter = DistCounter::default();
        let idx = build_knn_sharded(&store, &ShardedParams::new(4), 8, &counter);
        let cap = 200usize.div_ceil(idx.num_shards());
        let mut seen = [false; 200];
        for s in 0..idx.num_shards() {
            let ids = idx.shard_ids(s);
            assert!(ids.len() <= cap, "shard {s} over capacity: {}", ids.len());
            for &id in ids {
                assert!(!std::mem::replace(&mut seen[id as usize], true), "id {id} twice");
            }
        }
        assert!(seen.iter().all(|&s| s), "some id unassigned");
    }

    #[test]
    fn full_probe_equals_merged_per_shard_searches() {
        let store = blobs(160, 6, 2);
        let counter = DistCounter::default();
        let idx = build_knn_sharded(&store, &ShardedParams::new(4), 10, &counter);
        idx.set_nprobe(idx.num_shards());
        let params = QueryParams::new(5, 20);
        let query: Vec<f32> = vec![5.0; 6];
        let res = idx.search(&query, &params, &counter);
        // Reference: search every shard directly and merge by hand.
        let mut heap = BoundedMaxHeap::new(params.k);
        for s in 0..idx.num_shards() {
            let r = idx.shard(s).search(&query, &params, &counter);
            for n in r.neighbors {
                heap.push(Neighbor::new(idx.shard_ids(s)[n.id as usize], n.dist));
            }
        }
        let want = heap.into_sorted();
        assert_eq!(
            res.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>(),
            want.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn coalesced_matches_sequential() {
        let store = blobs(120, 6, 3);
        let counter = DistCounter::default();
        let mut idx =
            build_knn_sharded(&store, &ShardedParams::new(3).with_nprobe(2), 8, &counter);
        idx.freeze();
        idx.quantize(crate::quant::CodecSpec::Sq8);
        let params = QueryParams::new(4, 16);
        let queries: Vec<Vec<f32>> =
            (0..7).map(|i| (0..6).map(|d| (i * 7 + d) as f32 * 0.3).collect()).collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let coalesced = idx.search_coalesced(&refs, &params, &counter);
        let sequential: Vec<SearchResult> =
            refs.iter().map(|q| idx.search(q, &params, &counter)).collect();
        for (c, s) in coalesced.iter().zip(&sequential) {
            assert_eq!(
                c.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>(),
                s.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>()
            );
        }
    }

    /// Fan-out at several executors against a reference that never takes
    /// the fan path: the plan probed shard-by-shard through the public
    /// per-shard API and merged by hand in ranked order. Neighbors,
    /// distance bits, and distance-counter totals must all agree.
    #[test]
    fn fanout_probing_is_observationally_sequential() {
        let store = blobs(180, 6, 7);
        let counter = DistCounter::default();
        let idx = build_knn_sharded(&store, &ShardedParams::new(4).with_nprobe(3), 8, &counter);
        let params = QueryParams::new(4, 16);
        let query: Vec<f32> = (0..6).map(|d| d as f32 * 1.7).collect();

        let c_ref = DistCounter::new();
        let mut plan = idx.router().rank(&query, &c_ref);
        plan.truncate(idx.nprobe());
        let mut heap = BoundedMaxHeap::new(params.k);
        for &(_, s) in &plan {
            for n in idx.shard(s).search(&query, &params, &c_ref).neighbors {
                heap.push(Neighbor::new(idx.shard_ids(s)[n.id as usize], n.dist));
            }
        }
        let want = heap.into_sorted();

        for workers in [2, 4] {
            crate::fanout::set_fanout_enabled(true);
            crate::fanout::set_fanout_workers(workers);
            let c_fan = DistCounter::new();
            let got = idx.search(&query, &params, &c_fan);
            assert_eq!(
                got.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>(),
                want.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>(),
                "workers={workers}"
            );
            assert_eq!(c_fan.get(), c_ref.get(), "counter totals at workers={workers}");
        }
        crate::fanout::set_fanout_workers(1);
    }

    #[test]
    fn build_to_dir_matches_in_memory_build_then_save() {
        let store = blobs(100, 4, 9);
        let counter = DistCounter::default();
        let params = ShardedParams::new(3);
        let (dir_mem, dir_disk) = (TestDir::new("mem_save"), TestDir::new("disk_build"));
        build_knn_sharded(&store, &params, 6, &counter).save(&dir_mem.0).unwrap();
        ShardedIndex::build_to_dir(&store, &params, &counter, &dir_disk.0, |_, sub| {
            knn_shard(sub, 6, &counter)
        })
        .unwrap();
        for entry in std::fs::read_dir(&dir_mem.0).unwrap() {
            let name = entry.unwrap().file_name();
            let a = std::fs::read(dir_mem.0.join(&name)).unwrap();
            let b = std::fs::read(dir_disk.0.join(&name)).unwrap();
            assert_eq!(a, b, "{name:?} differs between build paths");
        }
    }

    #[test]
    fn gather_store_inverts_the_partition() {
        let store = blobs(70, 5, 11);
        let counter = DistCounter::default();
        let idx = build_knn_sharded(&store, &ShardedParams::new(4), 6, &counter);
        let back = idx.gather_store();
        assert_eq!(back.len(), store.len());
        for i in 0..store.len() as u32 {
            assert_eq!(back.get(i), store.get(i), "row {i} differs");
        }
    }

    /// Saving a frozen index is an error, returned before the directory is
    /// touched: no table (nor any shard file) is written.
    #[test]
    fn save_rejects_frozen_shards() {
        let store = blobs(60, 4, 8);
        let mut idx = build_knn_sharded(&store, &ShardedParams::new(2), 5, &DistCounter::new());
        idx.freeze();
        let dir = TestDir::new("frozen_save");
        let err = idx.save(&dir.0).expect_err("a frozen index must not save");
        assert!(err.to_string().contains("before freezing or reordering"), "{err}");
        assert!(!dir.0.join(TABLE_FILE).exists(), "no table file may be written");
        assert!(!dir.0.exists() || std::fs::read_dir(&dir.0).unwrap().next().is_none());
    }

    #[test]
    fn save_load_roundtrip_is_byte_stable() {
        let store = blobs(90, 5, 4);
        let counter = DistCounter::default();
        let idx = build_knn_sharded(&store, &ShardedParams::new(3), 6, &counter);
        let (dir, dir2) = (TestDir::new("roundtrip"), TestDir::new("roundtrip_2"));
        idx.save(&dir.0).unwrap();
        let back = ShardedIndex::load(&dir.0).unwrap();
        assert_eq!(back.num_shards(), idx.num_shards());
        assert_eq!(back.num_vectors(), idx.num_vectors());
        back.save(&dir2.0).unwrap();
        for entry in std::fs::read_dir(&dir.0).unwrap() {
            let name = entry.unwrap().file_name();
            let a = std::fs::read(dir.0.join(&name)).unwrap();
            let b = std::fs::read(dir2.0.join(&name)).unwrap();
            assert_eq!(a, b, "{name:?} differs after a save/load/save cycle");
        }
        // Loaded index answers, and full-probe answers are exact merges.
        back.set_nprobe(back.num_shards());
        let params = QueryParams::new(3, 12);
        let res = back.search(&[5.0; 5], &params, &counter);
        assert_eq!(res.neighbors.len(), 3);
    }

    /// The tentpole's contract for the build half: the width decides when
    /// a shard is built, never what is written. Every width writes the
    /// directory `build_with(..).save(..)` writes, counts the same distances,
    /// and the bytes are the ones the serial loop of the parent commit wrote.
    #[test]
    fn build_to_dir_is_byte_identical_at_every_width() {
        let store = scattered(240, 6, 21);
        let params = ShardedParams::new(6).with_nprobe(2).with_seed(5);
        let c_mem = DistCounter::new();
        let dir_mem = TestDir::new("width_mem");
        build_knn_sharded(&store, &params, 6, &c_mem).save(&dir_mem.0).unwrap();
        let want = dir_mem.files();
        assert_eq!(want.len(), 1 + 2 * 6, "table + store and graph per shard");
        for width in [1, 2, 8] {
            let counter = DistCounter::new();
            let dir = TestDir::new("width_disk");
            let params = params.with_threads(width);
            ShardedIndex::build_to_dir(&store, &params, &counter, &dir.0, |_, sub| {
                knn_shard(sub, 6, &counter)
            })
            .unwrap();
            assert!(dir.files() == want, "width {width} wrote different files");
            assert_eq!(counter.get(), c_mem.get(), "distance count at width {width}");
        }
        // FNV-1a over (name, bytes) in name order, recorded by running this
        // store/params/builder through the parent commit's serial loop.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (name, bytes) in &want {
            for &b in name.as_bytes().iter().chain(bytes) {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, PARENT_DIR_HASH, "shard directory bytes moved: {hash:#018x}");
    }

    const PARENT_DIR_HASH: u64 = 0x7d78_d646_f0f9_6a60;

    /// The other half: open and ladder a directory at widths 1 / 2 / 8 and
    /// fifty queries cannot tell which one they are talking to.
    #[test]
    fn load_and_ladder_answer_identically_at_every_width() {
        let store = scattered(360, 8, 33);
        let counter = DistCounter::new();
        let dir = TestDir::new("ladder");
        build_knn_sharded(&store, &ShardedParams::new(6).with_nprobe(3), 8, &counter)
            .save(&dir.0)
            .unwrap();
        let queries = scattered(50, 8, 34);
        for codec in [CodecSpec::Sq8, CodecSpec::Pq { m: Some(4) }] {
            let answers = |width: usize| {
                let mut idx = ShardedIndex::load_with(&dir.0, width).unwrap();
                idx.align_store();
                idx.freeze();
                idx.quantize(codec);
                idx.reorder(crate::reorder::ReorderStrategy::Rcm);
                assert!(idx.is_frozen() && idx.is_quantized() && idx.is_reordered());
                let c = DistCounter::new();
                let params = QueryParams::new(5, 24);
                let found: Vec<_> = (0..queries.len() as u32)
                    .map(|q| {
                        let res = idx.search(queries.get(q), &params, &c);
                        let hits: Vec<(u32, u32)> =
                            res.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                        (hits, res.stats)
                    })
                    .collect();
                (found, c.get(), format!("{:?}", idx.stats()))
            };
            let serial = answers(1);
            for width in [2, 8] {
                assert!(answers(width) == serial, "{codec:?} at width {width}");
            }
        }
    }

    /// Never more than `min(threads, shards)` shards in flight — the memory
    /// bound of `build_to_dir`. Each worker meets the others at a barrier
    /// inside the builder, so the bound is also reached, not only kept.
    #[test]
    fn build_to_dir_holds_at_most_threads_shards_at_once() {
        let store = scattered(240, 4, 8);
        for (width, workers) in [(1, 1), (2, 2), (3, 3), (8, 6)] {
            let gauge = Gauge::default();
            let together = Barrier::new(workers);
            let counter = DistCounter::new();
            let dir = TestDir::new("high_water");
            let params = ShardedParams::new(6).with_threads(width);
            ShardedIndex::build_to_dir(&store, &params, &counter, &dir.0, |_, sub| {
                let _here = gauge.enter();
                together.wait();
                knn_shard(sub, 4, &counter)
            })
            .unwrap();
            assert_eq!(gauge.entered.load(Ordering::SeqCst), 6);
            assert_eq!(gauge.high_water.load(Ordering::SeqCst), workers, "width {width}");
        }
    }

    #[test]
    fn a_panicking_builder_propagates_after_every_worker_is_joined() {
        let store = scattered(240, 4, 9);
        for width in [1, 2, 8] {
            let gauge = Gauge::default();
            let counter = DistCounter::new();
            let dir = TestDir::new("panic");
            let params = ShardedParams::new(6).with_threads(width);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ShardedIndex::build_to_dir(&store, &params, &counter, &dir.0, |s, sub| {
                    let _here = gauge.enter();
                    assert!(s != 2, "builder gave up on shard {s}");
                    knn_shard(sub, 4, &counter)
                })
            }));
            let payload = outcome.expect_err("the builder's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "builder gave up on shard 2");
            assert_eq!(gauge.live.load(Ordering::SeqCst), 0, "a worker outlived the call");
            assert!(!dir.0.join(TABLE_FILE).exists(), "width {width} left a table behind");
        }
    }

    #[test]
    fn a_failed_shard_write_is_an_err_and_commits_nothing() {
        let store = scattered(240, 4, 10);
        let counter = DistCounter::new();
        for width in [1, 2, 8] {
            let gauge = Gauge::default();
            let dir = TestDir::new("write_err");
            let params = ShardedParams::new(6).with_threads(width);
            let build = |dir: &Path| {
                ShardedIndex::build_to_dir(&store, &params, &counter, dir, |_, sub| {
                    let _here = gauge.enter();
                    knn_shard(sub, 4, &counter)
                })
            };
            // A committed directory first: the failed rebuild must retract it.
            build(&dir.0).unwrap();
            assert!(dir.0.join(TABLE_FILE).exists());
            let (blocked, _) = shard_paths(&dir.0, 1);
            std::fs::remove_file(&blocked).unwrap();
            std::fs::create_dir(&blocked).unwrap();
            assert!(matches!(build(&dir.0), Err(PersistError::Io(_))), "width {width}");
            assert_eq!(gauge.live.load(Ordering::SeqCst), 0, "a worker outlived the call");
            assert!(!dir.0.join(TABLE_FILE).exists(), "width {width} left a table behind");
            assert!(ShardedIndex::load(&dir.0).is_err());
            if width == 1 {
                // The serial loop stops where the parent's did: shards 0 and 1.
                assert_eq!(gauge.entered.load(Ordering::SeqCst), 6 + 2);
            }
            // A directory that cannot exist: no builder runs at all.
            let before = gauge.entered.load(Ordering::SeqCst);
            let (file, _) = shard_paths(&dir.0, 0);
            assert!(matches!(build(&file.join("sub")), Err(PersistError::Io(_))));
            assert_eq!(gauge.entered.load(Ordering::SeqCst), before);
        }
    }

    /// Re-building into a directory that held more shards leaves exactly
    /// the new build's files: no stale `shard-NNN.*`, no `.tmp`.
    #[test]
    fn rebuilding_with_fewer_shards_removes_the_stale_files() {
        let store = scattered(240, 4, 12);
        let counter = DistCounter::new();
        let build = |dir: &TestDir, shards: usize| {
            let params = ShardedParams::new(shards);
            ShardedIndex::build_to_dir(&store, &params, &counter, &dir.0, |_, sub| {
                knn_shard(sub, 4, &counter)
            })
            .unwrap();
        };
        let (reused, fresh) = (TestDir::new("reused"), TestDir::new("fresh"));
        build(&reused, 6);
        build(&reused, 3);
        build(&fresh, 3);
        assert_eq!(reused.files().len(), 1 + 2 * 3);
        assert!(reused.files() == fresh.files());
        // `save` follows the same protocol.
        build(&reused, 6);
        ShardedIndex::load(&fresh.0).unwrap().save(&reused.0).unwrap();
        assert!(reused.files() == fresh.files());
    }
}
