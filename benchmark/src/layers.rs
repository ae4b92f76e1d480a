//! The traced run (`--trace 1`): per-layer metrics, attributed from
//! outside.
//!
//! Every number here comes from timing (or counting around) calls into a
//! layer's public functions on the workload's own data. What the workload's
//! configuration does not build — codecs on `deep-flat`, shards on
//! `gist-pq`, a server on `deep-sharded` — is built here, outside the
//! end-to-end path, so every layer reports on every workload and a layer
//! the workload does not use can be seen *not* to move its end-to-end
//! numbers. The `--seconds` budget is split over the timed sections by the
//! `SHARE_*` constants; micro-probes run fixed iteration counts.

use crate::calib::Calib;
use crate::client::{query_request, Conn, Reply};
use crate::measure::{
    engine_round, inproc_round, latency_us, ns_u32, timed_setup, window, Reference, RoundJob,
    RoundOut, WindowOut,
};
use crate::paths::{route, Decomposed, PathScratch};
use crate::run::{check_floor, run_tag, Report};
use crate::stats::{mean, median, quantile_sorted};
use crate::trace::{Name, Tracer, NO_QUERY};
use crate::workload::{
    build_hnsw, build_shards, hnsw_params, load_shards, prebuilt_from, Data, Engine, Server,
    Spec, TempDir, BUILD_SEED, K, NPROBE, QUEUE_DEPTH, SHARDS,
};
use crate::Args;
use gass_core::distance::{l2_sq, l2_sq_batch, l2_sq_batch_scalar};
use gass_core::graph::{CsrGraph, GraphView};
use gass_core::index::{AnnIndex, PrebuiltIndex, QueryParams};
use gass_core::neighbor::{BoundedMaxHeap, Neighbor};
use gass_core::quant::PreparedQuery;
use gass_core::{
    compute_permutation, kmeans, mean_edge_span, persist, CodecSpec, DistCounter, FanoutPool,
    ReorderStrategy, ShardedIndex, TerminationPolicy, VectorStore,
};
use gass_graphs::HnswIndex;
use gass_serve::protocol::{decode_request, encode_request};
use gass_serve::{execute_coalesced, BatchQueue};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Shares of `--seconds` given to the timed sections.
const SHARE_MAIN: f64 = 0.30;
const SHARE_REORDER: f64 = 0.08;
const SHARE_COALESCED: f64 = 0.06;
const SHARE_FANOUT: f64 = 0.06;
const SHARE_TAX: f64 = 0.15;
const SHARE_OPEN: f64 = 0.10;
const SHARE_SHED: f64 = 0.04;

/// Open-loop arrival rate of `serve.lat_*`, requests per second.
const OPEN_RATE: f64 = 1000.0;
/// Admission bound of the overload probe: small, so shedding starts within
/// milliseconds of the backlog forming.
const SHED_QUEUE_DEPTH: usize = 64;
/// The adaptive policy the `term` probe compares with `Fixed` on workloads
/// whose own policy is `Fixed` (`serve-mixed`'s committed policy).
const PROBE_TERM: TerminationPolicy = TerminationPolicy::DistRatio { eps: 0.05 };
/// Queries per noise level in the easy/hard termination probe.
const NOISY_QUERIES: usize = 256;
/// Jobs per `execute_coalesced` call and queries per `search_coalesced`
/// call: the server's `max_batch`.
const BATCH: usize = 16;

fn persist_err(e: persist::PersistError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Median over `reps` repetitions of the mean nanoseconds one call of `f`
/// takes in a loop of `iters`.
fn ns_per_call(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// The query set cut into consecutive groups of [`BATCH`] (a trailing
/// partial group is left out).
fn query_groups(queries: &VectorStore) -> Vec<Vec<&[f32]>> {
    (0..queries.len() / BATCH)
        .map(|g| (0..BATCH).map(|j| queries.get((g * BATCH + j) as u32)).collect())
        .collect()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// What every probe needs.
struct Ctx<'a> {
    args: &'a Args,
    spec: &'a Spec,
    data: &'a Data,
    out: &'a Path,
    seconds: f64,
    calib: Calib,
    counter: DistCounter,
    tr: Tracer,
    report: Report,
    started: Instant,
}

impl Ctx<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.push(name, value, unit);
    }

    /// Where the traced run's wall time goes (it has no bound of its own
    /// but must fit the per-run cap).
    fn section(&mut self, name: &str) {
        println!("stamp section={name} wall_s={}", self.started.elapsed().as_secs_f64());
    }

    fn window(
        &mut self,
        share: f64,
        modes: usize,
        mut round: impl FnMut(usize, &mut Tracer, &mut Vec<u32>) -> io::Result<RoundOut>,
    ) -> io::Result<WindowOut> {
        let tr = &mut self.tr;
        let w = window(
            self.seconds * share,
            modes,
            &mut self.calib,
            self.spec.calib_queries,
            |mode, lat| round(mode, tr, lat),
        )?;
        self.report.count(w.attempted, w.failed);
        Ok(w)
    }
}

pub fn run_traced(args: &Args, out: &Path) -> io::Result<Report> {
    let started = Instant::now();
    let spec = &args.spec;
    let data = Data::generate(spec, args.n, args.queries, args.seed);
    let calib = Calib::new(data.base.dim(), data.base.to_flat_vec());
    let mut cx = Ctx {
        args,
        spec,
        data: &data,
        out,
        seconds: args.seconds,
        calib,
        counter: DistCounter::new(),
        tr: Tracer::new(true),
        report: Report::new(),
        started,
    };
    cx.put("data.gen_s", data.gen_s, "s");
    cx.put("data.truth_s", data.truth_s, "s");

    cx.section("data");
    let main = main_workload(&mut cx)?;
    cx.section("workload");
    let hnsw = build_probes(&mut cx);
    cx.section("build");
    let f32_ns = distance_probes(&mut cx);
    let aux = quant_and_term_probes(&mut cx, &hnsw, &main, f32_ns)?;
    cx.section("quant+term");
    persist_probes(&mut cx, &hnsw)?;
    sharded_probes(&mut cx, &main)?;
    cx.section("persist+sharded");
    serve_probes(&mut cx, &aux)?;
    cx.section("serve");
    drop(main);

    let path = out.join(format!("trace-{}.json", spec.name));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"n\":{},\"queries\":{}",
        spec.name, args.seed, args.n, args.queries
    );
    cx.tr.write_json(&path, &header)?;
    println!(
        "stamp trace={} spans={} calib.sink={}",
        path.display(),
        cx.tr.len(),
        cx.calib.sink()
    );
    Ok(cx.report)
}

/// The workload itself, traced: its set-up, its reference pass, and a
/// window that alternates untraced and traced rounds.
struct Main {
    engine: Engine,
    reference: Reference,
    /// Mean time a query spends inside `search.beam` spans, nanoseconds.
    beam_ns_per_query: f64,
}

fn main_workload(cx: &mut Ctx) -> io::Result<Main> {
    let (spec, data) = (cx.spec, cx.data);
    let params = spec.params();
    let tag = run_tag(cx.args, 0);
    let (mut engine, took) =
        timed_setup(spec, &data.base, cx.out, &tag, &mut cx.calib, &mut cx.tr)?;
    cx.put("raw.setup_s", took.wall_s, "s");

    let reference = Reference::build(engine.index(), &params, data);
    cx.report.count(reference.attempted, reference.failed);
    check_floor(cx.args, &reference, &mut cx.report);
    cx.put(
        "quant.u8_dists_per_query",
        reference.u8_dists as f64 / reference.len() as f64,
        "count",
    );
    cx.put(
        "quant.f32_dists_per_query",
        reference.f32_dists as f64 / reference.len() as f64,
        "count",
    );

    // Mode 0 is what the untraced run measures; mode 1 is the same round
    // with every layer call inside a span.
    let counter = cx.counter.clone();
    let job = RoundJob {
        params: &params,
        count: spec.round_queries,
        data,
        reference: &reference,
        counter: &counter,
    };
    let mut w = cx.window(SHARE_MAIN, 2, |mode, tr, lat| {
        tr.set_on(mode == 1);
        let r = engine_round(&mut engine, &job, mode == 1, tr, lat);
        tr.set_on(true);
        r
    })?;
    let raw_qps = median(&w.series[0].qps);
    let (p50, p99) = latency_us(&mut w.series[0].lat_ns);
    cx.put("raw.qps", raw_qps, "1/s");
    cx.put("raw.lat_p50_us", p50, "us");
    cx.put("raw.lat_p99_us", p99, "us");
    cx.put("host.calib_qps", median(&w.calib), "1/s");
    cx.put("trace.overhead_ratio", median(&w.series[1].qps) / raw_qps, "ratio");

    // One decomposed pass in process gives the seed / search (/ sharded)
    // split; on `serve-mixed` it is the index behind the server.
    let path = match &engine {
        Engine::Hnsw(idx) => Decomposed::Hnsw(idx),
        Engine::Sharded { index, .. } => Decomposed::sharded(index),
        Engine::Served { index, .. } => Decomposed::prebuilt(index),
    };
    let from = cx.tr.len();
    layer_pass(cx, &path, &params, &reference);
    let queries = reference.len() as f64;
    let seed = cx.tr.totals(Name::SeedSelect, from);
    let beam = cx.tr.totals(Name::SearchBeam, from);
    // A sharded query selects seeds and searches once per probe.
    cx.put("seed.select_us", seed.dur_ns as f64 / 1e3 / queries, "us");
    cx.put("seed.dists_per_query", seed.count as f64 / queries, "count");
    cx.put("search.us_per_query", beam.dur_ns as f64 / 1e3 / queries, "us");
    cx.put("search.ns_per_dist", beam.dur_ns as f64 / beam.count.max(1) as f64, "ns");
    cx.put("search.hops_per_query", reference.hops as f64 / queries, "count");
    drop(path);
    let beam_ns_per_query = beam.dur_ns as f64 / queries;
    Ok(Main { engine, reference, beam_ns_per_query })
}

/// Every query once through the decomposed path with spans on; answers
/// must be the reference's.
fn layer_pass(cx: &mut Ctx, path: &Decomposed, params: &QueryParams, reference: &Reference) {
    let mut ps = PathScratch::new();
    let mut lat = Vec::new();
    let (counter, tr) = (&cx.counter, &mut cx.tr);
    let r = inproc_round(reference.len(), cx.data, reference, &mut lat, |i, q| {
        path.query(q, i as u32, params, counter, tr, &mut ps).neighbors
    });
    cx.report.count(r.attempted, r.failed);
}

/// `graphs::hnsw`, `nd`, `par`: construction. Returns the monolithic HNSW
/// the other probes share.
fn build_probes(cx: &mut Ctx) -> HnswIndex {
    let base = &cx.data.base;
    let n = base.len() as f64;
    let (hnsw, t1) = timed(|| build_hnsw(base, &mut cx.tr));
    cx.put("build.index_s", t1, "s");
    cx.put("build.inserts_per_s", n / t1, "1/s");
    cx.put("build.dists_per_insert", hnsw.build_report().dist_calcs as f64 / n, "count");
    let (_, t2) = timed(|| HnswIndex::build(base.clone(), hnsw_params(BUILD_SEED, 2)));
    cx.put("build.t2_speedup", t1 / t2, "ratio");

    let stats = hnsw.stats();
    cx.put("graph.avg_degree", stats.avg_degree, "count");
    let (csr, freeze_s) = timed(|| CsrGraph::from_view(hnsw.base_graph()));
    cx.put("graph.freeze_s", freeze_s, "s");
    cx.put(
        "graph.bytes_per_vector",
        (hnsw.base_graph().heap_bytes() + csr.heap_bytes()) as f64 / n,
        "B",
    );
    let aligned = base.to_aligned();
    cx.put("store.bytes_per_vector", aligned.heap_bytes() as f64 / n, "B");

    // reorder: the permutation, applying it, and what it does to edge span.
    let entries: Vec<u32> = hnsw.hierarchy().entry_node().into_iter().collect();
    let (map, compute_s) = timed(|| compute_permutation(&csr, ReorderStrategy::Rcm, &entries));
    let ((permuted, _rows), apply_s) = timed(|| (csr.permute(&map), aligned.permute(&map)));
    cx.put("reorder.compute_s", compute_s, "s");
    cx.put("reorder.apply_s", apply_s, "s");
    cx.put(
        "reorder.edge_span_ratio",
        mean_edge_span(&permuted) / mean_edge_span(&csr),
        "ratio",
    );
    hnsw
}

/// `distance`: the f32 kernels at this workload's dimension, over its rows.
/// Returns the batch kernel's cost per distance, nanoseconds.
fn distance_probes(cx: &mut Ctx) -> f64 {
    let (base, queries) = (&cx.data.base, &cx.data.queries);
    let (n, nq) = (base.len(), queries.len());
    let row = |i: usize| base.get(((i * 7919) % n) as u32);
    let iters = 200_000 / base.dim().max(1) * 16;
    let single = ns_per_call(5, iters, |i| {
        black_box(l2_sq(queries.get((i % nq) as u32), row(i)));
    });
    let batch = ns_per_call(5, iters / 4, |i| {
        let q = queries.get((i % nq) as u32);
        black_box(l2_sq_batch(q, [row(4 * i), row(4 * i + 1), row(4 * i + 2), row(4 * i + 3)]));
    });
    let scalar = ns_per_call(5, iters / 4, |i| {
        let q = queries.get((i % nq) as u32);
        black_box(l2_sq_batch_scalar(
            q,
            [row(4 * i), row(4 * i + 1), row(4 * i + 2), row(4 * i + 3)],
        ));
    });
    cx.put("distance.l2_sq_ns", single, "ns");
    cx.put("distance.l2_sq_batch_ns", batch, "ns");
    cx.put("distance.simd_ratio", scalar / batch, "ratio");
    batch / 4.0
}

/// The quantised `PrebuiltIndex` over the monolithic graph (what `gass
/// serve` wraps), its reference under the adaptive policy, and the codec
/// it carries.
struct Aux {
    index: Arc<PrebuiltIndex>,
    term: TerminationPolicy,
    reference: Reference,
}

/// `quant` and `term`, plus `search.coalesced_ratio`, `engine` and
/// `search.overhead_ratio` which need the quantised index.
fn quant_and_term_probes(
    cx: &mut Ctx,
    hnsw: &HnswIndex,
    main: &Main,
    f32_ns: f64,
) -> io::Result<Aux> {
    let (spec, data) = (cx.spec, cx.data);
    let (base, queries) = (&data.base, &data.queries);
    let n = base.len();
    let nq = queries.len();

    // Codec construction and kernels.
    let (pq, pq_s) = timed(|| CodecSpec::Pq { m: None }.build(base));
    let (sq8, sq8_s) = timed(|| CodecSpec::Sq8.build(base));
    let sq4 = CodecSpec::Sq4.build(base);
    cx.put("quant.pq_train_s", pq_s, "s");
    cx.put("quant.sq8_encode_s", sq8_s, "s");
    let mut prepared = PreparedQuery::default();
    let prepare_ns = ns_per_call(5, nq.min(500), |i| {
        pq.prepare_into(queries.get((i % nq) as u32), &mut prepared);
    });
    cx.put("quant.pq_prepare_us", prepare_ns / 1e3, "us");
    let mut code_ns = [0.0f64; 3];
    for (slot, codec) in code_ns.iter_mut().zip([&pq, &sq8, &sq4]) {
        codec.prepare_into(queries.get(0), &mut prepared);
        *slot = ns_per_call(5, 100_000, |i| {
            let ids = [0usize, 1, 2, 3].map(|j| ((4 * i + j) * 7919 % n) as u32);
            black_box(codec.dist_prepared_batch(&prepared, ids));
        }) / 4.0;
    }
    cx.put("quant.pq_scan_ns", code_ns[0], "ns");
    cx.put("quant.sq8_dist_ns", code_ns[1], "ns");
    cx.put("quant.sq4_dist_ns", code_ns[2], "ns");
    let codec_spec = spec.probe_codec();
    let workload_codec = if matches!(codec_spec, CodecSpec::Pq { .. }) { &pq } else { &sq8 };
    cx.put("quant.code_bytes_per_vector", workload_codec.heap_bytes() as f64 / n as f64, "B");

    // Time inside `search.beam` against what its distance evaluations cost
    // in the batch kernels alone: the rest is traversal bookkeeping.
    let u8_ns =
        if matches!(codec_spec, CodecSpec::Pq { .. }) { code_ns[0] } else { code_ns[1] };
    let kernel_ns = (main.reference.f32_dists as f64 * f32_ns
        + main.reference.u8_dists as f64 * u8_ns)
        / main.reference.len() as f64;
    cx.put("search.overhead_ratio", main.beam_ns_per_query / kernel_ns, "ratio");
    drop((pq, sq8, sq4));

    // Recall of the workload's codec against full precision, same beam.
    let term = if spec.term == TerminationPolicy::Fixed { PROBE_TERM } else { spec.term };
    let fixed = spec.params_with(TerminationPolicy::Fixed);
    let adaptive = spec.params_with(term);
    let mut index = prebuilt_from(base, hnsw, "aux");
    index.align_store();
    index.freeze();
    let full = Reference::build(&index, &fixed, data);
    index.quantize(codec_spec);
    let coded = Reference::build(&index, &fixed, data);
    let reference = Reference::build(&index, &adaptive, data);
    for r in [&full, &coded, &reference] {
        cx.report.count(r.attempted, r.failed);
    }
    cx.put("quant.recall_delta", coded.recall() - full.recall(), "ratio");
    cx.put("term.dists_ratio", reference.dists_per_query() / coded.dists_per_query(), "ratio");
    cx.put("term.recall_delta", reference.recall() - coded.recall(), "ratio");
    let counter = DistCounter::new();
    for (name, sigma2) in
        [("term.easy_dists_per_query", 0.01f32), ("term.hard_dists_per_query", 0.1)]
    {
        let noisy = gass_data::noisy_queries(base, NOISY_QUERIES, sigma2, cx.args.seed);
        counter.reset();
        for (_, q) in noisy.iter() {
            black_box(index.search(q, &adaptive, &counter));
        }
        cx.put(name, counter.get() as f64 / NOISY_QUERIES as f64, "count");
    }

    // `search_coalesced` on 16-query groups against 16 `search` calls.
    let groups = query_groups(queries);
    let group_round = |coalesced: bool, lat: &mut Vec<u32>| {
        let mut failed = 0u64;
        let t0 = Instant::now();
        for (g, group) in groups.iter().enumerate() {
            let t = Instant::now();
            let results = if coalesced {
                index.search_coalesced(group, &adaptive, &counter)
            } else {
                group.iter().map(|q| index.search(q, &adaptive, &counter)).collect()
            };
            lat.push(ns_u32(t.elapsed()));
            for (j, r) in results.iter().enumerate() {
                failed += u64::from(!reference.matches(g * BATCH + j, &r.neighbors));
            }
        }
        let done = (groups.len() * BATCH) as u64;
        RoundOut {
            qps: done as f64 / t0.elapsed().as_secs_f64().max(1e-9),
            attempted: done,
            failed,
        }
    };
    let w = cx.window(SHARE_COALESCED, 2, |mode, _, lat| Ok(group_round(mode == 1, lat)))?;
    cx.put(
        "search.coalesced_ratio",
        median(&w.series[0].qps) / median(&w.series[1].qps),
        "ratio",
    );

    // `engine`: one 16-job batch through `execute_coalesced`.
    let jobs: Vec<(Vec<f32>, QueryParams)> =
        (0..BATCH).map(|j| (queries.get(j as u32).to_vec(), adaptive)).collect();
    let batch_ns = ns_per_call(5, 50, |_| {
        black_box(execute_coalesced(&index, &jobs, &counter));
    });
    cx.put("engine.us_per_query_b16", batch_ns / 1e3 / BATCH as f64, "us");

    Ok(Aux { index: Arc::new(index), term, reference })
}

/// `persist` and `mmap`: the monolithic state to disk and back.
fn persist_probes(cx: &mut Ctx, hnsw: &HnswIndex) -> io::Result<()> {
    let dir = TempDir::create(cx.out.join(format!("persist-{}", run_tag(cx.args, 0))))?;
    let base = &cx.data.base;
    let (store_path, graph_path, mapped_path) = (
        dir.path().join("store.gass"),
        dir.path().join("graph.gass"),
        dir.path().join("mapped.gass"),
    );
    let (saved, save_s) = timed(|| {
        persist::save_store(base, &store_path)?;
        persist::save_flat_graph(hnsw.base_graph(), &graph_path)
    });
    saved.map_err(persist_err)?;
    let (loaded, load_s) = timed(|| {
        let store = persist::load_store(&store_path)?;
        let graph = persist::load_flat_graph(&graph_path)?;
        Ok::<_, persist::PersistError>((store, graph))
    });
    let (store, graph) = loaded.map_err(persist_err)?;
    if store.len() != base.len() || graph.num_nodes() != base.len() {
        cx.report.broken.push("persist round trip changed the vector count".to_string());
    }
    cx.put("persist.save_s", save_s, "s");
    cx.put("persist.load_s", load_s, "s");

    persist::save_store_mapped(base, &mapped_path).map_err(persist_err)?;
    let (mapped, open_s) = timed(|| persist::open_store_mapped(&mapped_path));
    let mapped = mapped.map_err(persist_err)?;
    cx.put("mmap.open_s", open_s, "s");
    // The first pass over a fresh mapping takes the page faults.
    let touch = |s: &VectorStore| -> f64 { s.iter().map(|(_, row)| f64::from(row[0])).sum() };
    let (a, first_s) = timed(|| touch(&mapped));
    let (b, second_s) = timed(|| touch(&mapped));
    if a != b || !mapped.is_mapped() {
        cx.report.broken.push("mapped store is not a stable live mapping".to_string());
    }
    cx.put("mmap.first_pass_ratio", first_s / second_s.max(1e-9), "ratio");
    Ok(())
}

/// `sharded`, `kmeans`, `fanout`, and `reorder.qps_ratio` (RCM against no
/// reordering on the same shard files).
fn sharded_probes(cx: &mut Ctx, main: &Main) -> io::Result<()> {
    let (spec, data) = (cx.spec, cx.data);
    let base = &data.base;
    // Shard geometry is `deep-sharded`'s everywhere; beam and rerank are
    // the workload's own.
    let params = spec.params_with(TerminationPolicy::Fixed);

    // kmeans: the partition `build_to_dir` runs first, timed on its own.
    let counter = DistCounter::new();
    let (_, partition_s) = timed(|| {
        let ids: Vec<u32> = (0..base.len() as u32).collect();
        let c = kmeans::balanced_kmeans(base, &ids, SHARDS.min(base.len()), 10, 42, &counter);
        let mut assignment = vec![0usize; base.len()];
        let cap = base.len().div_ceil(c.centroids.len());
        kmeans::balanced_assign_round(base, &ids, &c.centroids, cap, &counter, &mut assignment);
    });
    cx.put("sharded.partition_s", partition_s, "s");

    // On `deep-sharded` the workload's own files and index serve; elsewhere
    // they are built here.
    let own_dir;
    let own_index;
    let (dir, rcm): (&Path, &ShardedIndex) = match &main.engine {
        Engine::Sharded { index, dir } => {
            let t = cx.tr.totals(Name::ShardedBuild, 0);
            cx.put("sharded.build_s", t.dur_ns as f64 / 1e9, "s");
            (dir.path(), index)
        }
        _ => {
            own_dir =
                TempDir::create(cx.out.join(format!("shards-probe-{}", run_tag(cx.args, 0))))?;
            let (built, build_s) = timed(|| {
                cx.tr.span(Name::ShardedBuild, NO_QUERY, |_| {
                    (build_shards(base, own_dir.path(), &counter), 0)
                })
            });
            built?;
            cx.put("sharded.build_s", build_s, "s");
            own_index = load_shards(own_dir.path(), ReorderStrategy::Rcm, &mut cx.tr)?;
            (own_dir.path(), &own_index)
        }
    };
    rcm.set_nprobe(NPROBE);
    let plain = load_shards(dir, ReorderStrategy::None, &mut cx.tr)?;
    plain.set_nprobe(NPROBE);

    let sizes: Vec<f64> =
        (0..rcm.num_shards()).map(|s| rcm.shard_ids(s).len() as f64).collect();
    cx.put(
        "sharded.size_skew",
        sizes.iter().cloned().fold(0.0, f64::max) / mean(&sizes),
        "ratio",
    );

    // Routing loss: recall with every shard probed minus recall at nprobe.
    let reference = Reference::build(rcm, &params, data);
    rcm.set_nprobe(rcm.num_shards());
    let everywhere = Reference::build(rcm, &params, data);
    rcm.set_nprobe(NPROBE);
    for r in [&reference, &everywhere] {
        cx.report.count(r.attempted, r.failed);
    }
    cx.put("sharded.routing_recall_loss", everywhere.recall() - reference.recall(), "ratio");

    // Route / probe / merge from the decomposed path.
    let from = cx.tr.len();
    layer_pass(cx, &Decomposed::sharded(rcm), &params, &reference);
    let queries = reference.len() as f64;
    for (metric, name) in [
        ("sharded.route_us", Name::ShardedRoute),
        ("sharded.probe_us", Name::ShardedProbe),
        ("sharded.merge_us", Name::ShardedMerge),
    ] {
        let t = cx.tr.totals(name, from);
        // Per call: a query routes once and probes / merges `nprobe` times.
        cx.put(metric, t.mean_dur_us(), "us");
        if name == Name::ShardedProbe {
            cx.put("sharded.probes_per_query", t.spans as f64 / queries, "count");
        }
    }

    // RCM against no reordering, interleaved.
    let counter = cx.counter.clone();
    let w = cx.window(SHARE_REORDER, 2, |mode, _, lat| {
        let index = if mode == 0 { rcm } else { &plain };
        Ok(inproc_round(spec.round_queries, data, &reference, lat, |_, q| {
            index.search(q, &params, &counter).neighbors
        }))
    })?;
    cx.put("reorder.qps_ratio", median(&w.series[0].qps) / median(&w.series[1].qps), "ratio");

    // fanout: one query's probes on two executors against the plain loop.
    // The pool is this function's own, so its worker is joined on return.
    let pool = FanoutPool::new(2);
    let mut w = cx.window(SHARE_FANOUT, 2, |mode, _, lat| {
        Ok(inproc_round(spec.round_queries.min(500), data, &reference, lat, |_, q| {
            let plan = route(rcm, q, &counter);
            let probe = |rank: usize| rcm.shard(plan[rank]).search(q, &params, &counter);
            let results: Vec<_> = if mode == 1 {
                pool.map(vec![(0..plan.len()).collect()], plan.len(), probe)
                    .into_iter()
                    .map(|r| r.expect("every planned probe ran"))
                    .collect()
            } else {
                (0..plan.len()).map(probe).collect()
            };
            let mut heap = BoundedMaxHeap::new(K);
            for (&s, res) in plan.iter().zip(results) {
                for nb in res.neighbors {
                    heap.push(Neighbor::new(rcm.shard_ids(s)[nb.id as usize], nb.dist));
                }
            }
            heap.into_sorted()
        }))
    })?;
    let (w1, _) = latency_us(&mut w.series[0].lat_ns);
    let (w2, _) = latency_us(&mut w.series[1].lat_ns);
    cx.put("fanout.w2_p50_ratio", w2 / w1, "ratio");
    Ok(())
}

/// `protocol`, `queue`, `server`, `client`, and the load generator's own
/// lateness.
fn serve_probes(cx: &mut Ctx, aux: &Aux) -> io::Result<()> {
    let (spec, data) = (cx.spec, cx.data);
    let queries = &data.queries;
    let nq = queries.len();
    let params = spec.params_with(aux.term);

    // protocol: one query request through the encoder and the decoder.
    let payload = encode_request(&query_request(queries.get(0), &params));
    let encode_ns = ns_per_call(5, 20_000, |i| {
        black_box(encode_request(&query_request(queries.get((i % nq) as u32), &params)));
    });
    let decode_ns = ns_per_call(5, 20_000, |_| {
        black_box(decode_request(black_box(&payload)).is_ok());
    });
    cx.put("protocol.encode_ns", encode_ns, "ns");
    cx.put("protocol.decode_ns", decode_ns, "ns");

    // queue: a batch of 16 pushed then popped, per job.
    let queue: BatchQueue<u64> = BatchQueue::new(QUEUE_DEPTH, 1);
    let mut popped = Vec::with_capacity(BATCH);
    let queue_ns = ns_per_call(5, 5_000, |i| {
        for j in 0..BATCH {
            let _ = queue.push((i * BATCH + j) as u64);
        }
        queue.pop_batch(0, BATCH, Duration::ZERO, &mut popped);
        black_box(popped.len());
    });
    cx.put("queue.push_pop_ns", queue_ns / BATCH as f64, "ns");

    let index: Arc<dyn AnnIndex> = aux.index.clone();
    let server = Server::start(index.clone(), aux.term, QUEUE_DEPTH)?;
    let mut conn = Conn::connect(server.handle().addr())?;
    let mut rtt: Vec<f64> = (0..200)
        .map(|_| timed(|| conn.ping()))
        .map(|(r, s)| r.map(|()| s * 1e6))
        .collect::<io::Result<_>>()?;
    rtt.sort_by(f64::total_cmp);
    cx.put("serve.ping_rtt_us", quantile_sorted(&rtt, 0.5), "us");

    // The serving tax: the same queries over the wire and through
    // `search_coalesced` in process, interleaved.
    let counter = cx.counter.clone();
    let reference = &aux.reference;
    let groups = query_groups(queries);
    let count = groups.len() * BATCH;
    let w = cx.window(SHARE_TAX, 2, |mode, tr, lat| {
        let mut failed = 0u64;
        let t0 = Instant::now();
        if mode == 0 {
            tr.set_on(false);
            let sent = conn.pipelined(
                count,
                &params,
                |i| queries.get(i as u32),
                tr,
                |i, reply, took| {
                    failed += u64::from(!reference.matches_wire(i, &reply));
                    lat.push(ns_u32(took));
                },
            );
            tr.set_on(true);
            sent?;
        } else {
            for (g, group) in groups.iter().enumerate() {
                for (j, r) in
                    aux.index.search_coalesced(group, &params, &counter).iter().enumerate()
                {
                    failed += u64::from(!reference.matches(g * BATCH + j, &r.neighbors));
                }
            }
        }
        let qps = count as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        Ok(RoundOut { qps, attempted: count as u64, failed })
    })?;
    let served_qps = median(&w.series[0].qps);
    cx.put("serve.tax_ratio", served_qps / median(&w.series[1].qps), "ratio");
    let closed = server.handle().stats();
    // The server's own percentiles come from a log-bucketed histogram and
    // read exactly the same run after run; its mean is exact.
    cx.put("serve.server_mean_us", closed.lat_mean_us, "us");
    cx.put("queue.mean_batch", closed.mean_batch, "count");

    // Open loop at a fixed rate, timed from each request's due time.
    let open_count = ((OPEN_RATE * cx.seconds * SHARE_OPEN) as usize).max(50);
    let open =
        conn.open_loop(open_count, OPEN_RATE, &params, |i| queries.get((i % nq) as u32))?;
    let mut lat_ns: Vec<u32> = Vec::with_capacity(open.replies.len());
    let mut failed = 0u64;
    for (i, (took, reply)) in open.replies.iter().enumerate() {
        failed += u64::from(!reference.matches_wire(i % nq, reply));
        lat_ns.push(ns_u32(*took));
    }
    cx.report.count(open_count as u64, failed + (open_count - open.replies.len()) as u64);
    let (p50, p99) = latency_us(&mut lat_ns);
    cx.put("serve.lat_p50_us", p50, "us");
    cx.put("serve.lat_p99_us", p99, "us");
    let mut late: Vec<u32> = open.late.iter().map(|&d| ns_u32(d)).collect();
    cx.put("loadgen.late_p99_us", latency_us(&mut late).1, "us");

    let stats = server.settled_stats().unwrap_or_else(|why| {
        cx.report.broken.push(why);
        server.handle().stats()
    });
    cx.put("serve.completed", stats.completed as f64, "count");
    cx.put("serve.overloaded", stats.overloaded as f64, "count");
    cx.put("serve.expired", stats.expired as f64, "count");
    drop(conn);
    drop(server);

    // Overload: twice the closed-loop capacity into a short queue. Refusals
    // are the designed outcome here, so they are a ratio, not failures; any
    // answer that does come back must still be right.
    let shed_server = Server::start(index, aux.term, SHED_QUEUE_DEPTH)?;
    let mut shed_conn = Conn::connect(shed_server.handle().addr())?;
    let rate = 2.0 * served_qps;
    let shed_count = ((rate * cx.seconds * SHARE_SHED) as usize).max(200);
    let shed =
        shed_conn.open_loop(shed_count, rate, &params, |i| queries.get((i % nq) as u32))?;
    let (mut refused, mut wrong) = (0u64, 0u64);
    for (i, (_, reply)) in shed.replies.iter().enumerate() {
        match reply {
            Reply::Refused => refused += 1,
            answered => wrong += u64::from(!reference.matches_wire(i % nq, answered)),
        }
    }
    let answered = shed.replies.len() as u64 - refused;
    cx.report.count(answered, wrong);
    match shed_server.settled_stats() {
        Ok(s) if s.overloaded == refused => {}
        Ok(s) => cx.report.broken.push(format!(
            "server counted {} overloaded, the client was refused {refused} times",
            s.overloaded
        )),
        Err(why) => cx.report.broken.push(why),
    }
    cx.put("queue.shed_ratio_2x", refused as f64 / shed.replies.len().max(1) as f64, "ratio");
    Ok(())
}
