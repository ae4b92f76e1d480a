//! Figure 17: implementation impact — the same graphs under different
//! engineering choices, standing in for the paper's original-vs-ParlayANN
//! comparison:
//!
//! * graph layout: flat contiguous slots (ParlayANN/hnswlib style) vs
//!   adjacency lists vs the frozen CSR serving form;
//! * priority queue: single sorted linear buffer (the paper's normalized
//!   choice) vs the original two-heap scheme;
//! * distance kernel: runtime-dispatched SIMD vs the scalar reference;
//! * vector layout: cache-line-aligned padded store vs packed;
//! * software prefetch of pending candidates: on vs off;
//! * graph reordering: the RCM relabeling of the CSR + aligned store,
//!   translated back to original ids;
//! * compressed serving: the SQ8 / SQ4 / PQ codec ladder with exact
//!   rerank.
//!
//! The scalar/prefetch rows ablate one serving-path optimization each from
//! the full `csr+aligned` configuration; recall and distance counts are
//! identical for every such variant (the optimizations are
//! layout/kernel-only), so wall-clock is the entire story. The final
//! codec rows traverse on quantized codes with an exact rerank — an
//! *approximation*, excluded from the identical-counts reading: their
//! recall may dip and their counts include the rerank.
//!
//! Paper shape: the optimized layouts win at low/mid recall where
//! traversal overhead dominates; the gap closes at high recall where
//! distance computation dominates.
//!
//! ```sh
//! cargo run --release -p gass-bench --bin fig17_impl_opt
//! ```

use gass_bench::{beam_search_two_heaps, beam_sweep, num_queries, results_dir, tiers};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, CsrGraph, GraphView};
use gass_core::search::{beam_search, SearchScratch};
use gass_core::visited::VisitedSet;
use gass_data::DatasetKind;
use gass_eval::{recall_at_k, Table};
use gass_graphs::{HnswIndex, HnswParams};

fn main() {
    let n = tiers()[1].n;
    let k = 10;
    let (base, queries) = DatasetKind::Deep.generate(n, num_queries(), 171);
    let truth = gass_data::ground_truth(&base, &queries, k);
    println!("Figure 17: implementation ablations on HNSW's base graph, n={n}\n");

    let index = HnswIndex::build(
        base.clone(),
        HnswParams { m: 12, ef_construction: 96, seed: 3, threads: 1 },
    );
    let flat = index.base_graph();
    // Rebuild the same edges as adjacency lists, and freeze them as CSR.
    let mut lists = AdjacencyGraph::new(n);
    for u in 0..n as u32 {
        lists.set_neighbors(u, flat.neighbors(u).to_vec());
    }
    let csr = CsrGraph::from_view(flat);
    let aligned_store = index.store().to_aligned();
    // The RCM relabeling of the serving pair (CSR + aligned store), seeded
    // from the hierarchy's entry point like the library path. Traversal
    // runs in the new id space; results translate back.
    let entry_seed: Vec<u32> = index.hierarchy().entry_node().into_iter().collect();
    let rcm =
        gass_core::compute_permutation(&csr, gass_core::ReorderStrategy::Rcm, &entry_seed);
    let (rcm_csr, rcm_store) = (csr.permute(&rcm), aligned_store.permute(&rcm));
    // Code stores for the quantization ablation rows (built once each;
    // the encodes are deterministic). One ladder rung per codec, with the
    // rerank sweep deepening as the code rate drops: SQ8 keeps 8 bits/dim,
    // SQ4 4 bits/dim, PQ at m = dim/6 just 0.67 bits/dim.
    let codecs: Vec<(gass_core::CodecSpec, Box<dyn gass_core::CodecStore>, Vec<usize>)> =
        gass_core::CodecSpec::ALL
            .into_iter()
            .map(|spec| {
                let reranks = match spec {
                    gass_core::CodecSpec::Pq { .. } => vec![8, 16],
                    _ => vec![2, 4],
                };
                (spec.resolve(base.dim()), spec.build(&aligned_store), reranks)
            })
            .collect();

    let counter = DistCounter::new();
    let space = Space::new(index.store(), &counter);
    let space_aligned = Space::new(&aligned_store, &counter);
    let mut scratch = SearchScratch::new(n, 512);
    let mut visited = VisitedSet::new(n);

    let mut table =
        Table::new(vec!["variant", "L", "recall", "ms_per_query", "dist_calcs_per_query"]);

    for l in beam_sweep() {
        // Entry seeds via the hierarchy (shared by all variants; its cost
        // is excluded from the timed section so the ablation isolates the
        // traversal engine).
        let entries: Vec<u32> = (0..queries.len() as u32)
            .map(|qi| index.hierarchy().descend(space, queries.get(qi)).unwrap_or(0))
            .collect();

        let mut run =
            |label: &str, f: &mut dyn FnMut(&[f32], u32) -> Vec<gass_core::Neighbor>| {
                counter.reset();
                let t = std::time::Instant::now();
                let mut recall = 0.0;
                for (qi, tr) in truth.iter().enumerate() {
                    let found = f(queries.get(qi as u32), entries[qi]);
                    recall += recall_at_k(tr, &found, k);
                }
                let secs = t.elapsed().as_secs_f64();
                table.row(vec![
                    label.to_string(),
                    l.to_string(),
                    format!("{:.4}", recall / truth.len() as f64),
                    format!("{:.3}", secs * 1e3 / truth.len() as f64),
                    (counter.get() / truth.len() as u64).to_string(),
                ]);
            };

        run("flat+linear (Opt)", &mut |q, e| {
            beam_search(flat, space, q, &[e], k, l, &mut scratch).neighbors
        });
        run("lists+linear", &mut |q, e| {
            beam_search(&lists, space, q, &[e], k, l, &mut scratch).neighbors
        });
        run("flat+two-heaps (original)", &mut |q, e| {
            beam_search_two_heaps(flat, space, q, &[e], k, l, &mut visited)
        });
        // Serving path (frozen CSR + aligned store), then ablate one
        // serving optimization per row. Recall and distance counts match
        // every row above: these change layout and kernels, not logic.
        run("csr+aligned (serving)", &mut |q, e| {
            beam_search(&csr, space_aligned, q, &[e], k, l, &mut scratch).neighbors
        });
        gass_core::set_simd_enabled(false);
        run("serving, scalar kernel", &mut |q, e| {
            beam_search(&csr, space_aligned, q, &[e], k, l, &mut scratch).neighbors
        });
        gass_core::set_simd_enabled(true);
        gass_core::set_prefetch_enabled(false);
        run("serving, no prefetch", &mut |q, e| {
            beam_search(&csr, space_aligned, q, &[e], k, l, &mut scratch).neighbors
        });
        gass_core::set_prefetch_enabled(true);
        // Reordering ablation: same traversal, relabeled layout. Results
        // translate back to original ids, so recall and distance counts
        // match the serving row exactly; only cache behavior changes.
        let space_r = Space::new(&rcm_store, &counter);
        run("serving, reorder=rcm", &mut |q, e| {
            let mut found =
                beam_search(&rcm_csr, space_r, q, &[rcm.to_new(e)], k, l, &mut scratch)
                    .neighbors;
            for nb in &mut found {
                nb.id = rcm.to_old(nb.id);
            }
            found
        });
        // Quantization ablation: code-space traversal with exact rerank on
        // top of the serving configuration, one rung per codec. Unlike
        // every row above, these rows are *approximate* — traversal runs
        // on codes, so recall and distance counts are allowed to differ;
        // the rerank factor trades f32 re-scores for recall recovery and
        // the sweep deepens as the code rate drops.
        for (spec, qstore, reranks) in &codecs {
            for &rerank in reranks {
                let space_quant = space_aligned
                    .with_quant(Some(gass_core::QuantView::new(qstore.as_ref(), rerank)));
                run(&format!("serving, {spec} rerank={rerank}"), &mut |q, e| {
                    beam_search(&csr, space_quant, q, &[e], k, l, &mut scratch).neighbors
                });
            }
        }
        eprintln!("done: L={l}");
    }

    table.emit(&results_dir(), "fig17_impl_opt").expect("write results");
    println!(
        "Read as Fig. 17: at equal L all exact variants see identical \
         recall and distance counts; wall-clock separates the engineering. \
         The flat layout should lead at small L; the gap narrows as L \
         grows. The serving rows isolate the kernel (SIMD vs scalar), the \
         store layout, and the prefetch contribution; the scalar-kernel \
         ablation should dominate at high L where distance work does. The \
         codec-ladder rows are approximate (quantized traversal + exact \
         rerank) and trade a recall dip — growing as the code rate drops \
         from sq8 to sq4 to pq — for bandwidth."
    );
}
