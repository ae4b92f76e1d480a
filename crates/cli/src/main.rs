//! `gass` — command-line interface to the GASS library.
//!
//! ```text
//! gass generate --dataset deep --n 20000 --seed 42 --out deep.store.gass
//! gass build    --method hnsw --store deep.store.gass --out deep.hnsw.gass
//! gass query    --store deep.store.gass --graph deep.hnsw.gass \
//!               --queries q.store.gass --k 10 --beam 80
//! gass info     --file deep.hnsw.gass
//! gass help
//! ```
//!
//! Saved graphs are served through `PrebuiltIndex` with K-sampled random
//! seeds (seed structures are method-specific and are not persisted; KS
//! is the universal strategy from the paper's taxonomy).

mod args;

use args::Args;
use gass_core::distance::DistCounter;
use gass_core::graph::{FlatGraph, GraphView};
use gass_core::index::{AnnIndex, PrebuiltIndex, QueryParams};
use gass_core::persist;
use gass_core::seed::RandomSeeds;
use gass_core::store::VectorStore;
use gass_data::DatasetKind;
use gass_graphs as graphs;
use std::path::Path;
use std::process::ExitCode;

const HELP: &str = "\
gass — graph-based vector search (GASS reproduction)

USAGE: gass <command> [--key value]...

COMMANDS:
  generate  --dataset <deep|sift|gist|imagenet|sald|seismic|t2i|pow0|pow5|pow50>
            --n <count> [--seed <u64>] [--format <packed|mapped>] --out <file>
            Generate a synthetic dataset analog and save it. --format
            mapped writes the page-aligned mmap layout (rows padded to the
            SIMD stride) that loads by page fault instead of a heap copy;
            the default is packed.

  build     --method <hnsw|vamana|nsg|ssg|kgraph|efanna|dpg|ngt|sptag-kdt|
                      sptag-bkt|hcnng|nsw|ii-rnd|ii-nond>
            --store <file> --out <path> [--seed <u64>] [--threads <t>]
            [--shards <N>] [--nprobe <K>]
            Build a graph index over a saved store and save the graph.
            --threads 0 uses all cores; 1 forces the serial path; absent
            keeps each method's default (serial for the incremental-
            insertion methods, all cores for the rest).
            With --shards N, partition the store with balanced k-means and
            build one --method graph per shard; --out becomes a directory
            holding the shard table (centroids + id lists) and per-shard
            mapped stores and graphs. --nprobe K (default ceil(N/4)) sets
            how many shards `query`/`serve` search per query. --threads T
            builds min(T, N) shards at a time (absent: one per core) and
            hands each shard's builder T / min(T, N): the directory is
            byte-identical at any T whose builders stay serial, and peak
            memory is that many shards — --threads 1 keeps it at one.

  query     --store <file> --graph <file> --queries <file>
            | --sharded <dir> --queries <file> [--nprobe <K>]
              [--fanout-workers <1>]
            [--k <10>] [--beam <80>] [--seeds <16>]
            [--layout <packed|aligned>] [--graph-layout <flat|csr>]
            [--simd <on|off>] [--prefetch <on|off>]
            [--quant <sq8|sq4|pq|none>] [--pq-m <m>] [--rerank-factor <4>]
            [--reorder <none|bfs|rcm>]
            [--term <fixed|saturation[:p]|distratio[:e]>] [--max-dists <n>]
            Answer k-NN queries from a saved graph; reports recall against
            exact ground truth and distance calculations per query.
            The fast-path flags default to the serving configuration
            (aligned store, CSR graph, SIMD kernels, software prefetch);
            results are identical under every combination — only speed
            changes.
            --quant walks the compression ladder: sq8 traverses on 8-bit
            scalar-quantized codes (1 byte/dim), sq4 on 4-bit codes
            (2 dims/byte), pq on product-quantized codes (m subquantizers
            x 16 centroids, 4-bit codes scanned through per-query LUTs;
            --pq-m must divide the dimensionality, default m ~ dim/6).
            Every rung re-scores a rerank-factor*k candidate pool at full
            precision (approximate: recall can dip; raise --rerank-factor
            to recover it — the coarser the codec, the deeper the pool
            needed). --quant none (the default) is exact serving.
            --reorder relabels the frozen CSR, vectors, and codes with a
            locality-preserving permutation (implies --graph-layout csr);
            results are identical under every strategy — only speed
            changes. Absent means none.
            --term picks the per-query termination policy: fixed (the
            default) expands until the beam is exhausted — bit-identical
            to every earlier release; saturation:p stops once the top-k
            heap has been unchanged for p consecutive expansions
            (default p=8); distratio:e stops once the best unexpanded
            candidate is farther than (1+e)x the current k-th result
            (default e=0.2). --max-dists n additionally caps the
            distance computations spent per query (0 = unlimited).
            Adaptive policies trade a little recall for fewer distance
            computations; quantized rungs still re-score their candidate
            pool exactly. Absent, the policy is fixed with no budget.
            With --sharded, queries route through the shard table: rank
            shards by query-to-centroid distance, search the nearest
            --nprobe (overriding the table's default), and merge the
            per-shard top-k. Recall trades against speed through --nprobe;
            --nprobe N over N shards is exactly the merged union of all
            per-shard searches. --fanout-workers W runs each query's
            probes on W executors (0 = all cores; 1, the default, keeps
            the sequential loop); answers are identical at every W — only
            latency changes.

  serve     --store <file> [--graph <file>] [--method <hnsw|...>]
            | --sharded <dir> [--nprobe <K>] [--fanout-workers <1>]
            [--host <127.0.0.1>] [--port <0>] [--workers <0>]
            [--max-batch <16>] [--max-wait-us <200>] [--queue-depth <1024>]
            [--seed <u64>] [--threads <t>]
            [--quant <sq8|sq4|pq|none>] [--pq-m <m>] [--rerank-factor <4>]
            [--reorder <none|bfs|rcm>]
            [--term <fixed|saturation[:p]|distratio[:e]>] [--max-dists <n>]
            Serve k-NN queries over TCP (length-prefixed binary frames).
            With --graph, serves the saved graph; without it, builds
            --method (default hnsw) over the store in-process first.
            --port 0 binds an ephemeral port; the bound address is printed
            as `listening on <addr>` once the server is ready. Concurrent
            requests are coalesced into micro-batches (closed at
            --max-batch jobs or --max-wait-us, whichever first) — batching
            changes throughput, never answers. Admission control
            fast-rejects queries beyond --queue-depth with `overloaded`
            instead of queueing without bound. --workers 0 uses all cores.
            --quant/--reorder absent serve exact, unreordered. --term/
            --max-dists force a server-side termination policy onto every
            query (see `query`); absent, each query runs fixed with no
            budget. Queries carrying a
            deadline are additionally budget-clamped mid-search when the
            remaining deadline cannot cover a mean query's distance
            computations. Stop with a Shutdown frame (the server
            drains admitted queries, then exits) or Ctrl-C.
            With --sharded, serves a `build --shards` directory through
            centroid-routed nprobe search; shard stores saved in the
            mapped layout fault in per page, so untouched shards cost no
            resident memory.
            --fanout-workers W fans each query's probes out across W
            executors (identical answers, lower single-query latency).

  info      --file <file>
            Describe a saved store (packed or mapped), graph, or shard
            table.

  help      Show this text.
";

fn dataset_of(name: &str) -> Result<DatasetKind, String> {
    Ok(match name {
        "deep" => DatasetKind::Deep,
        "sift" => DatasetKind::Sift,
        "gist" => DatasetKind::Gist,
        "imagenet" => DatasetKind::ImageNet,
        "sald" => DatasetKind::Sald,
        "seismic" => DatasetKind::Seismic,
        "t2i" => DatasetKind::TextToImage,
        "pow0" => DatasetKind::RandPow(0),
        "pow5" => DatasetKind::RandPow(5),
        "pow50" => DatasetKind::RandPow(50),
        other => return Err(format!("unknown dataset `{other}`")),
    })
}

/// The methods `build` can persist (the composite ELPIS/LSHAPG/HVS carry
/// method-specific routing state beyond one flat graph).
const BUILDABLE_METHODS: &[&str] = &[
    "hnsw",
    "vamana",
    "nsg",
    "ssg",
    "kgraph",
    "efanna",
    "dpg",
    "ngt",
    "sptag-kdt",
    "sptag-bkt",
    "hcnng",
    "nsw",
    "ii-rnd",
    "ii-nond",
];

/// Builds `method` and extracts its frozen graph for persistence.
///
/// `threads = None` keeps each method's default (serial insertion for
/// HNSW/II, auto-parallel refinement for the batch-computed methods);
/// `Some(t)` forces `t` workers everywhere the method supports them, with
/// `Some(0)` meaning "all available cores".
fn build_graph(
    method: &str,
    store: VectorStore,
    seed: u64,
    threads: Option<usize>,
) -> Result<FlatGraph, String> {
    use gass_core::nd::NdStrategy;
    let adj_to_flat = |g: &gass_core::AdjacencyGraph| FlatGraph::from_adjacency(g, None);
    // Incremental-insertion methods change their (still correct) output when
    // parallelised, so they stay serial unless asked; the refinement-style
    // methods are bit-identical at any thread count and default to all cores.
    let t_serial = threads.unwrap_or(1);
    let t_auto = threads.unwrap_or(0);
    Ok(match method {
        "hnsw" => {
            let p =
                graphs::HnswParams { seed, threads: t_serial, ..graphs::HnswParams::small() };
            graphs::HnswIndex::build(store, p).base_graph().clone()
        }
        "vamana" => {
            let p = graphs::VamanaParams {
                seed,
                threads: t_serial,
                ..graphs::VamanaParams::small()
            };
            graphs::vamana::build(store, p).graph().clone()
        }
        "nsg" => {
            let p = graphs::NsgParams {
                seed,
                threads: t_auto,
                base: graphs::EfannaParams {
                    seed,
                    threads: t_auto,
                    ..graphs::NsgParams::small().base
                },
                ..graphs::NsgParams::small()
            };
            graphs::nsg::build(store, p).graph().clone()
        }
        "ssg" => {
            let p = graphs::SsgParams {
                seed,
                threads: t_auto,
                base: graphs::EfannaParams {
                    seed,
                    threads: t_auto,
                    ..graphs::SsgParams::small().base
                },
                ..graphs::SsgParams::small()
            };
            graphs::ssg::build(store, p).graph().clone()
        }
        "kgraph" => {
            let p =
                graphs::KGraphParams { seed, threads: t_auto, ..graphs::KGraphParams::small() };
            graphs::kgraph::build(store, p).graph().clone()
        }
        "efanna" => {
            let p =
                graphs::EfannaParams { seed, threads: t_auto, ..graphs::EfannaParams::small() };
            graphs::efanna::build(store, p).graph().clone()
        }
        "dpg" => {
            let p = graphs::DpgParams { seed, threads: t_auto, ..graphs::DpgParams::small() };
            adj_to_flat(graphs::dpg::build(store, p).graph())
        }
        "ngt" => {
            let p = graphs::NgtParams { seed, ..graphs::NgtParams::small() };
            adj_to_flat(graphs::ngt::build(store, p).graph())
        }
        "sptag-kdt" => {
            let p = graphs::SptagParams {
                seed,
                ..graphs::SptagParams::small(graphs::SptagVariant::Kdt)
            };
            graphs::sptag::build(store, p).graph().clone()
        }
        "sptag-bkt" => {
            let p = graphs::SptagParams {
                seed,
                ..graphs::SptagParams::small(graphs::SptagVariant::Bkt)
            };
            graphs::sptag::build(store, p).graph().clone()
        }
        "hcnng" => {
            let p =
                graphs::HcnngParams { seed, threads: t_auto, ..graphs::HcnngParams::small() };
            adj_to_flat(graphs::hcnng::build(store, p).graph())
        }
        "nsw" => {
            let p = graphs::NswParams { seed, ..graphs::NswParams::small() };
            adj_to_flat(graphs::nsw::build(store, p).graph())
        }
        "ii-rnd" => {
            let p = graphs::IiParams {
                seed,
                threads: t_serial,
                ..graphs::IiParams::small(NdStrategy::Rnd)
            };
            graphs::baseline::build(store, p).graph().clone()
        }
        "ii-nond" => {
            let p = graphs::IiParams {
                seed,
                threads: t_serial,
                ..graphs::IiParams::small(NdStrategy::NoNd)
            };
            graphs::baseline::build(store, p).graph().clone()
        }
        other => {
            return Err(format!(
                "unknown or non-persistable method `{other}` \
                 (ELPIS/LSHAPG/HVS are composite; serve them in-process)"
            ))
        }
    })
}

/// Loads the graph file at `path` for serving over `store`: a graph built
/// over another store is a named error naming both counts, not a panic.
fn load_graph_for(store: &VectorStore, path: &str) -> Result<FlatGraph, String> {
    let graph = persist::load_flat_graph(Path::new(path)).map_err(|e| e.to_string())?;
    if graph.num_nodes() != store.len() {
        return Err(format!(
            "graph has {} nodes but the store has {} vectors",
            graph.num_nodes(),
            store.len()
        ));
    }
    Ok(graph)
}

fn run(args: Args) -> Result<(), String> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "generate" => {
            let kind = dataset_of(args.require("dataset").map_err(|e| e.to_string())?)?;
            let n: usize = args.get_or("n", 10_000).map_err(|e| e.to_string())?;
            let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
            let out = args.require("out").map_err(|e| e.to_string())?;
            let format: String =
                args.get_or("format", "packed".into()).map_err(|e| e.to_string())?;
            let store = kind.generate_base(n, seed);
            match format.as_str() {
                "packed" => {
                    persist::save_store(&store, Path::new(out)).map_err(|e| e.to_string())?
                }
                "mapped" => persist::save_store_mapped(&store, Path::new(out))
                    .map_err(|e| e.to_string())?,
                other => return Err(format!("unknown --format `{other}`")),
            }
            println!(
                "wrote {} ({} x {}d, {format}, {} bytes)",
                out,
                store.len(),
                store.dim(),
                std::fs::metadata(out).map(|m| m.len()).unwrap_or(0)
            );
            Ok(())
        }
        "build" => {
            let method = args.require("method").map_err(|e| e.to_string())?;
            let store_path = args.require("store").map_err(|e| e.to_string())?;
            let out = args.require("out").map_err(|e| e.to_string())?;
            let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
            let threads: Option<usize> = args.get_opt("threads").map_err(|e| e.to_string())?;
            let shards: Option<usize> = args.get_opt("shards").map_err(|e| e.to_string())?;
            let nprobe: Option<usize> = args.get_opt("nprobe").map_err(|e| e.to_string())?;
            if nprobe.is_some() && shards.is_none() {
                return Err("--nprobe requires --shards".to_string());
            }
            if !BUILDABLE_METHODS.contains(&method) {
                return Err(format!(
                    "unknown or non-persistable method `{method}` \
                     (ELPIS/LSHAPG/HVS are composite; serve them in-process)"
                ));
            }
            let store =
                persist::open_store(Path::new(store_path)).map_err(|e| e.to_string())?;
            let t = std::time::Instant::now();
            match shards {
                Some(k) => {
                    if k == 0 {
                        return Err("--shards must be at least 1".to_string());
                    }
                    let mut params = gass_core::ShardedParams::new(k).with_seed(seed);
                    if let Some(np) = nprobe {
                        if np == 0 {
                            return Err("--nprobe must be at least 1".to_string());
                        }
                        params = params.with_nprobe(np);
                    }
                    // --threads T goes to the shard level first: shards
                    // share nothing, so that level is byte-identical at any
                    // width and scales linearly, which batch-parallel
                    // insertion inside one shard is not. What is left over,
                    // T / width, goes to each shard's builder. Without the
                    // flag the builders keep their own defaults.
                    let total = gass_core::effective_threads(threads.unwrap_or(0));
                    let width = total.min(k);
                    let inner = threads.map(|_| (total / width).max(1));
                    params = params.with_threads(width);
                    let counter = DistCounter::new();
                    gass_core::ShardedIndex::build_to_dir(
                        &store,
                        &params,
                        &counter,
                        Path::new(out),
                        |s, sub| {
                            let t_shard = std::time::Instant::now();
                            let graph = build_graph(method, sub.clone(), seed, inner)
                                .expect("method validated above");
                            eprintln!(
                                "shard {s}: built {method} over {} vectors in {:.2}s",
                                sub.len(),
                                t_shard.elapsed().as_secs_f64()
                            );
                            let n = sub.len();
                            let seeds: Box<dyn gass_core::SeedProvider> =
                                Box::new(RandomSeeds::per_query(n, 7));
                            (graph, seeds)
                        },
                    )
                    .map_err(|e| e.to_string())?;
                    println!(
                        "built {method} x {k} shards over {} vectors in {:.2}s \
                         (nprobe {}, {width} shards at a time)",
                        store.len(),
                        t.elapsed().as_secs_f64(),
                        params.nprobe.min(k),
                    );
                    println!("wrote {out}/ (shard table + per-shard stores and graphs)");
                }
                None => {
                    let graph = build_graph(method, store, seed, threads)?;
                    println!(
                        "built {method} over {} nodes in {:.2}s ({} edges, avg degree {:.1})",
                        graph.num_nodes(),
                        t.elapsed().as_secs_f64(),
                        graph.num_edges(),
                        graph.avg_degree()
                    );
                    persist::save_flat_graph(&graph, Path::new(out))
                        .map_err(|e| e.to_string())?;
                    println!("wrote {out}");
                }
            }
            Ok(())
        }
        "query" => {
            // Parse and validate every flag before touching the (possibly
            // large) input files, so bad invocations fail fast with a
            // clear message.
            let k: usize = args.get_or("k", 10).map_err(|e| e.to_string())?;
            let beam: usize = args.get_or("beam", 80).map_err(|e| e.to_string())?;
            let seeds: usize = args.get_or("seeds", 16).map_err(|e| e.to_string())?;
            let layout: String =
                args.get_or("layout", "aligned".into()).map_err(|e| e.to_string())?;
            let graph_layout: String =
                args.get_or("graph-layout", "csr".into()).map_err(|e| e.to_string())?;
            let quant: String =
                args.get_or("quant", "none".into()).map_err(|e| e.to_string())?;
            let pq_m: Option<usize> = args.get_opt("pq-m").map_err(|e| e.to_string())?;
            let reorder: Option<gass_core::ReorderStrategy> =
                match args.get_opt::<String>("reorder").map_err(|e| e.to_string())? {
                    Some(v) => Some(v.parse().map_err(|e: String| format!("--reorder: {e}"))?),
                    None => None,
                };
            let rerank: usize = args.get_or("rerank-factor", 4).map_err(|e| e.to_string())?;
            if rerank == 0 {
                return Err(
                    "--rerank-factor must be at least 1: quantized serving re-scores a \
                     rerank-factor*k candidate pool at full precision, and an empty pool \
                     would return no results"
                        .to_string(),
                );
            }
            // Absent --term/--max-dists keep `QueryParams::new`'s fixed
            // policy with no budget.
            let term: Option<gass_core::TerminationPolicy> =
                match args.get_opt::<String>("term").map_err(|e| e.to_string())? {
                    Some(v) => Some(v.parse().map_err(|e: String| format!("--term: {e}"))?),
                    None => None,
                };
            let max_dists: Option<usize> =
                args.get_opt("max-dists").map_err(|e| e.to_string())?;
            // Codec family resolves here; the --pq-m divisibility check
            // needs the store's dimensionality and runs after loading.
            let family: Option<gass_core::CodecSpec> = match quant.as_str() {
                "none" => None,
                name => Some(name.parse().map_err(|e: String| format!("--quant: {e}"))?),
            };
            if pq_m.is_some() && !matches!(family, Some(gass_core::CodecSpec::Pq { .. })) {
                return Err("--pq-m requires --quant pq".to_string());
            }
            if !matches!(layout.as_str(), "aligned" | "packed") {
                return Err(format!("unknown --layout `{layout}`"));
            }
            if !matches!(graph_layout.as_str(), "csr" | "flat") {
                return Err(format!("unknown --graph-layout `{graph_layout}`"));
            }
            let sharded_dir: Option<String> =
                args.get_opt("sharded").map_err(|e| e.to_string())?;
            let nprobe: Option<usize> = args.get_opt("nprobe").map_err(|e| e.to_string())?;
            if nprobe.is_some() && sharded_dir.is_none() {
                return Err("--nprobe requires --sharded".to_string());
            }
            if nprobe == Some(0) {
                return Err("--nprobe must be at least 1".to_string());
            }
            let fanout: Option<usize> =
                args.get_opt("fanout-workers").map_err(|e| e.to_string())?;
            if fanout.is_some() && sharded_dir.is_none() {
                return Err("--fanout-workers requires --sharded".to_string());
            }
            if let Some(w) = fanout {
                gass_core::set_fanout_workers(w);
            }
            let queries = persist::open_store(Path::new(
                args.require("queries").map_err(|e| e.to_string())?,
            ))
            .map_err(|e| e.to_string())?;
            // Either one monolithic store+graph pair, or a `build --shards`
            // directory. Exact ground truth needs the base vectors either
            // way; the sharded path gathers them back out of the shards.
            // Both check the query dimension before computing it.
            let same_dim = |dim: usize| {
                if queries.dim() == dim {
                    Ok(())
                } else {
                    Err(format!("query dim {} != store dim {dim}", queries.dim()))
                }
            };
            let (mut index, truth): (Box<dyn AnnIndex>, Vec<Vec<gass_core::Neighbor>>) =
                match &sharded_dir {
                    Some(dir) => {
                        if args.get_opt::<String>("store").map_err(|e| e.to_string())?.is_some()
                            || args
                                .get_opt::<String>("graph")
                                .map_err(|e| e.to_string())?
                                .is_some()
                        {
                            return Err(
                                "--sharded replaces --store/--graph (the directory holds \
                                 both per shard)"
                                    .to_string(),
                            );
                        }
                        let mut idx = gass_core::ShardedIndex::load(Path::new(dir))
                            .map_err(|e| e.to_string())?;
                        if let Some(np) = nprobe {
                            idx.set_nprobe(np);
                        }
                        same_dim(idx.dim())?;
                        let base = idx.gather_store();
                        let truth = gass_data::ground_truth(&base, &queries, k);
                        if layout == "aligned" {
                            idx.align_store();
                        }
                        (Box::new(idx), truth)
                    }
                    None => {
                        let store = persist::open_store(Path::new(
                            args.require("store").map_err(|e| e.to_string())?,
                        ))
                        .map_err(|e| e.to_string())?;
                        same_dim(store.dim())?;
                        let graph = load_graph_for(
                            &store,
                            args.require("graph").map_err(|e| e.to_string())?,
                        )?;
                        let n = store.len();
                        let truth = gass_data::ground_truth(&store, &queries, k);
                        let mut idx = PrebuiltIndex::new(
                            store,
                            graph,
                            Box::new(RandomSeeds::new(n, 7)),
                            "loaded",
                        );
                        if layout == "aligned" {
                            idx.align_store();
                        }
                        (Box::new(idx), truth)
                    }
                };
            // A bad --pq-m fails with a clear message here rather than a
            // panic deep in the encoder.
            let spec: Option<gass_core::CodecSpec> = match (family, pq_m) {
                (Some(gass_core::CodecSpec::Pq { .. }), Some(want)) => {
                    let dim = index.dim();
                    if want == 0 || !dim.is_multiple_of(want) {
                        return Err(format!(
                            "--pq-m {want} must be a nonzero divisor of the store \
                             dimensionality {dim} (each of the m subquantizers encodes \
                             dim/m dimensions)"
                        ));
                    }
                    Some(gass_core::CodecSpec::Pq { m: Some(want) })
                }
                (f, _) => f,
            };
            let simd: Option<String> = args.get_opt("simd").map_err(|e| e.to_string())?;
            let prefetch: Option<String> =
                args.get_opt("prefetch").map_err(|e| e.to_string())?;
            let on_off = |key: &str, v: &str| match v {
                "on" => Ok(true),
                "off" => Ok(false),
                other => Err(format!("--{key} must be `on` or `off`, got `{other}`")),
            };
            // Absent flags leave the defaults (both on) in charge.
            if let Some(v) = &simd {
                gass_core::set_simd_enabled(on_off("simd", v)?);
            }
            if let Some(v) = &prefetch {
                gass_core::set_prefetch_enabled(on_off("prefetch", v)?);
            }
            if graph_layout == "csr" {
                index.freeze();
            }
            if let Some(spec) = spec {
                index.quantize(spec);
            }
            if let Some(strategy) = reorder {
                index.reorder(strategy);
            }
            let counter = DistCounter::new();
            let mut params =
                QueryParams::new(k, beam).with_seed_count(seeds).with_rerank_factor(rerank);
            if let Some(t) = term {
                params = params.with_term(t);
            }
            if let Some(d) = max_dists {
                params = params.with_max_dists(d);
            }
            let t = std::time::Instant::now();
            let mut recall = 0.0;
            for (qi, row) in truth.iter().enumerate() {
                let res = index.search(queries.get(qi as u32), &params, &counter);
                recall += gass_eval::recall_at_k(row, &res.neighbors, k);
            }
            let nq = truth.len().max(1);
            println!(
                "queries={} k={k} L={beam}  kernel={} store={layout} graph={graph_layout} \
                 prefetch={} quant={} reorder={} term={} max-dists={}",
                nq,
                gass_core::simd_backend(),
                if gass_core::prefetch_enabled() { "on" } else { "off" },
                spec.map_or_else(|| "none".to_string(), |s| s.to_string()),
                reorder.unwrap_or_default(),
                params.term,
                params.max_dists,
            );
            println!(
                "recall@{k}={:.4}  dists/query={} (u8={} f32={})  ms/query={:.3}",
                recall / nq as f64,
                counter.get() / nq as u64,
                counter.get_u8() / nq as u64,
                counter.get_f32() / nq as u64,
                t.elapsed().as_secs_f64() * 1e3 / nq as f64
            );
            Ok(())
        }
        "serve" => {
            // Serving-config flags first: bad invocations must fail before
            // any index is built or loaded.
            let host: String =
                args.get_or("host", "127.0.0.1".into()).map_err(|e| e.to_string())?;
            let port: u16 = args.get_or("port", 0).map_err(|e| e.to_string())?;
            let workers: usize = args.get_or("workers", 0).map_err(|e| e.to_string())?;
            let max_batch: usize = args.get_or("max-batch", 16).map_err(|e| e.to_string())?;
            let max_wait_us: u64 =
                args.get_or("max-wait-us", 200).map_err(|e| e.to_string())?;
            let queue_depth: usize =
                args.get_or("queue-depth", 1024).map_err(|e| e.to_string())?;
            if max_batch == 0 {
                return Err("--max-batch must be at least 1".to_string());
            }
            if queue_depth == 0 {
                return Err(
                    "--queue-depth must be at least 1 (admission control needs room to \
                     admit anything)"
                        .to_string(),
                );
            }
            let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
            let threads: Option<usize> = args.get_opt("threads").map_err(|e| e.to_string())?;
            let rerank: usize = args.get_or("rerank-factor", 4).map_err(|e| e.to_string())?;
            if rerank == 0 {
                return Err("--rerank-factor must be at least 1".to_string());
            }
            // Quant/reorder mirror `query`.
            let quant: String =
                args.get_or("quant", "none".into()).map_err(|e| e.to_string())?;
            let pq_m: Option<usize> = args.get_opt("pq-m").map_err(|e| e.to_string())?;
            let family: Option<gass_core::CodecSpec> = match quant.as_str() {
                "none" => None,
                name => Some(name.parse().map_err(|e: String| format!("--quant: {e}"))?),
            };
            if pq_m.is_some() && !matches!(family, Some(gass_core::CodecSpec::Pq { .. })) {
                return Err("--pq-m requires --quant pq".to_string());
            }
            let reorder: Option<gass_core::ReorderStrategy> =
                match args.get_opt::<String>("reorder").map_err(|e| e.to_string())? {
                    Some(v) => Some(v.parse().map_err(|e: String| format!("--reorder: {e}"))?),
                    None => None,
                };
            // --term/--max-dists force a server-side termination policy on
            // every query; absent both, every query runs the
            // `QueryParams::new` default, fixed with no budget.
            let term_policy: Option<gass_core::TerminationPolicy> =
                match args.get_opt::<String>("term").map_err(|e| e.to_string())? {
                    Some(v) => Some(v.parse().map_err(|e: String| format!("--term: {e}"))?),
                    None => None,
                };
            let term_max_dists: Option<usize> =
                args.get_opt("max-dists").map_err(|e| e.to_string())?;
            let term: Option<gass_core::Termination> =
                if term_policy.is_some() || term_max_dists.is_some() {
                    Some(gass_core::Termination {
                        policy: term_policy.unwrap_or_default(),
                        max_dists: term_max_dists.unwrap_or(0),
                    })
                } else {
                    None
                };

            let sharded_dir: Option<String> =
                args.get_opt("sharded").map_err(|e| e.to_string())?;
            let nprobe: Option<usize> = args.get_opt("nprobe").map_err(|e| e.to_string())?;
            if nprobe.is_some() && sharded_dir.is_none() {
                return Err("--nprobe requires --sharded".to_string());
            }
            if nprobe == Some(0) {
                return Err("--nprobe must be at least 1".to_string());
            }
            let fanout: Option<usize> =
                args.get_opt("fanout-workers").map_err(|e| e.to_string())?;
            if fanout.is_some() && sharded_dir.is_none() {
                return Err("--fanout-workers requires --sharded".to_string());
            }
            if let Some(w) = fanout {
                gass_core::set_fanout_workers(w);
            }

            let (mut index, label): (Box<dyn AnnIndex>, String) = match &sharded_dir {
                Some(dir) => {
                    if args.get_opt::<String>("store").map_err(|e| e.to_string())?.is_some()
                        || args.get_opt::<String>("graph").map_err(|e| e.to_string())?.is_some()
                    {
                        return Err(
                            "--sharded replaces --store/--graph (the directory holds both \
                             per shard)"
                                .to_string(),
                        );
                    }
                    let mut idx = gass_core::ShardedIndex::load(Path::new(dir))
                        .map_err(|e| e.to_string())?;
                    if let Some(np) = nprobe {
                        idx.set_nprobe(np);
                    }
                    let label = format!(
                        "sharded ({} shards, nprobe {})",
                        idx.num_shards(),
                        idx.nprobe()
                    );
                    idx.align_store();
                    (Box::new(idx), label)
                }
                None => {
                    let store_path = args.require("store").map_err(|e| e.to_string())?;
                    let store = persist::open_store(Path::new(store_path))
                        .map_err(|e| e.to_string())?;
                    let graph_path: Option<String> =
                        args.get_opt("graph").map_err(|e| e.to_string())?;
                    let (graph, label) = match graph_path {
                        Some(p) => (load_graph_for(&store, &p)?, "loaded".to_string()),
                        None => {
                            let method: String = args
                                .get_or("method", "hnsw".into())
                                .map_err(|e| e.to_string())?;
                            eprintln!("building {method} over {} vectors...", store.len());
                            (build_graph(&method, store.clone(), seed, threads)?, method)
                        }
                    };
                    let n = store.len();
                    let mut idx = PrebuiltIndex::new(
                        store,
                        graph,
                        Box::new(RandomSeeds::per_query(n, 7)),
                        "serve",
                    );
                    idx.align_store();
                    (Box::new(idx), label)
                }
            };
            let n = index.num_vectors();
            let dim = index.dim();
            let spec: Option<gass_core::CodecSpec> = match (family, pq_m) {
                (Some(gass_core::CodecSpec::Pq { .. }), Some(want)) => {
                    if want == 0 || !dim.is_multiple_of(want) {
                        return Err(format!(
                            "--pq-m {want} must be a nonzero divisor of the store \
                             dimensionality {dim}"
                        ));
                    }
                    Some(gass_core::CodecSpec::Pq { m: Some(want) })
                }
                (f, _) => f,
            };
            // Always the serving configuration: aligned store, frozen CSR.
            index.freeze();
            if let Some(spec) = spec {
                index.quantize(spec);
            }
            if let Some(strategy) = reorder {
                index.reorder(strategy);
            }
            let cfg = gass_serve::ServeConfig {
                host,
                port,
                workers,
                max_batch,
                max_wait_us,
                queue_depth,
                term,
            };
            let handle = gass_serve::serve(std::sync::Arc::from(index), cfg)
                .map_err(|e| format!("bind failed: {e}"))?;
            println!(
                "serving {label} (n={n}, dim={dim}) quant={} reorder={} \
                 workers={workers} max_batch={max_batch} max_wait_us={max_wait_us} \
                 queue_depth={queue_depth}",
                spec.map_or_else(|| "none".to_string(), |s| s.to_string()),
                reorder.unwrap_or_default(),
            );
            // The readiness line clients wait for; flush so piped readers
            // (the e2e test) see it immediately.
            println!("listening on {}", handle.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            while !handle.is_shutting_down() {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            handle.join();
            println!("server drained and exited");
            Ok(())
        }
        "info" => {
            let file = args.require("file").map_err(|e| e.to_string())?;
            let path = Path::new(file);
            // A `build --shards` directory: describe through its table.
            if path.is_dir() {
                let table = persist::load_shard_table(&path.join("shards.gass"))
                    .map_err(|e| format!("{file}: not a sharded index directory ({e})"))?;
                let total: usize = table.shard_ids.iter().map(Vec::len).sum();
                println!(
                    "{file}: sharded index, {} shards x {}d, {} vectors total, nprobe {}",
                    table.shard_ids.len(),
                    table.dim,
                    total,
                    table.nprobe
                );
                return Ok(());
            }
            // Mapped sections describe themselves from the fixed header
            // without reading the (possibly huge) row data.
            match persist::peek_kind(path) {
                Ok(persist::KIND_MSTORE) => {
                    let store = persist::open_store(path).map_err(|e| e.to_string())?;
                    println!(
                        "{file}: vector store (mapped layout), {} x {}d",
                        store.len(),
                        store.dim()
                    );
                    return Ok(());
                }
                Ok(persist::KIND_SHARDS) => {
                    let table = persist::load_shard_table(path).map_err(|e| e.to_string())?;
                    let total: usize = table.shard_ids.iter().map(Vec::len).sum();
                    println!(
                        "{file}: shard table, {} shards x {}d, {} vectors total, nprobe {}",
                        table.shard_ids.len(),
                        table.dim,
                        total,
                        table.nprobe
                    );
                    return Ok(());
                }
                _ => {}
            }
            let raw = std::fs::read(file).map_err(|e| e.to_string())?;
            if let Ok(store) = persist::decode_store(bytes_of(&raw)) {
                println!("{file}: vector store, {} x {}d", store.len(), store.dim());
                return Ok(());
            }
            match persist::decode_flat_graph(bytes_of(&raw)) {
                Ok(graph) => {
                    println!(
                        "{file}: flat graph, {} nodes, {} edges, avg degree {:.1}, max degree {}",
                        graph.num_nodes(),
                        graph.num_edges(),
                        graph.avg_degree(),
                        graph.max_degree()
                    );
                    Ok(())
                }
                Err(e) => Err(format!("{file}: not a GASS artifact ({e})")),
            }
        }
        other => Err(format!("unknown command `{other}` (try `gass help`)")),
    }
}

fn bytes_of(raw: &[u8]) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(raw)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
