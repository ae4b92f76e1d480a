//! Structural verification of the taxonomy (paper Figure 3): each
//! method's built index must exhibit the paradigms the taxonomy assigns
//! to it.

use gass::prelude::*;
use gass_core::graph::GraphView;

fn deep(n: usize, seed: u64) -> VectorStore {
    gass::data::synth::deep_like(n, seed)
}

#[test]
fn hnsw_exhibits_ii_and_sn() {
    let idx = gass::graphs::HnswIndex::build(deep(500, 1), gass::graphs::HnswParams::small());
    // SN: a non-trivial hierarchy exists and thins geometrically.
    assert!(idx.hierarchy().num_layers() >= 1);
    assert!(idx.hierarchy().layer_len(0) < 500);
    // ND: base degree bounded by 2M.
    assert!(idx.stats().max_degree <= 2 * idx.params().m);
}

#[test]
fn nsw_exhibits_ii_without_nd() {
    let idx = gass::graphs::nsw::build(deep(500, 2), gass::graphs::NswParams::small());
    // No pruning: hub degrees exceed M by a lot.
    assert!(idx.stats().max_degree > 2 * 12, "NSW hubs missing: {}", idx.stats().max_degree);
}

#[test]
fn dpg_is_undirected_and_diversified() {
    let idx = gass::graphs::dpg::build(deep(400, 3), gass::graphs::DpgParams::small());
    let g = idx.graph();
    for u in 0..g.num_nodes() as u32 {
        for &v in g.neighbors(u) {
            assert!(g.neighbors(v).contains(&u), "DPG edge {u}->{v} not symmetric");
        }
    }
}

#[test]
fn nsg_is_connected_from_its_medoid() {
    let idx = gass::graphs::nsg::build(deep(400, 4), gass::graphs::NsgParams::small());
    let g = idx.graph();
    let mut seen = vec![false; g.num_nodes()];
    let mut q = std::collections::VecDeque::from([idx.entries()[0]]);
    seen[idx.entries()[0] as usize] = true;
    while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                q.push_back(v);
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "NSG connectivity repair failed");
}

#[test]
fn vamana_respects_its_degree_bound() {
    let idx = gass::graphs::vamana::build(deep(400, 5), gass::graphs::VamanaParams::small());
    assert!(idx.stats().max_degree <= 24);
    // RRND with alpha > 1 keeps denser neighborhoods than plain RND would:
    // mean degree should be a healthy fraction of R.
    assert!(idx.stats().avg_degree > 6.0, "Vamana too sparse: {}", idx.stats().avg_degree);
}

#[test]
fn elpis_partitions_cover_the_dataset() {
    let idx = gass::graphs::elpis::build(deep(700, 6), gass::graphs::ElpisParams::small());
    assert!(idx.num_shards() >= 2, "DC method must partition");
    assert_eq!(idx.num_vectors(), 700);
}

#[test]
fn hcnng_is_a_merged_mst_union() {
    let idx = gass::graphs::hcnng::build(deep(400, 7), gass::graphs::HcnngParams::small());
    let g = idx.graph();
    // Undirected (MST edges added both ways) and sparse (MST degree cap ×
    // number of clusterings bounds the degree).
    for u in 0..g.num_nodes() as u32 {
        for &v in g.neighbors(u) {
            assert!(g.neighbors(v).contains(&u));
        }
    }
    assert!(g.max_degree() <= 3 * 16, "degree beyond MST-cap × clusterings");
}

#[test]
fn kgraph_lists_are_exactly_k_sized() {
    let idx = gass::graphs::kgraph::build(
        deep(300, 8),
        gass::graphs::KGraphParams { k: 15, ..gass::graphs::KGraphParams::small() },
    );
    let g = idx.graph();
    for u in 0..g.num_nodes() as u32 {
        assert_eq!(g.neighbors(u).len(), 15, "node {u} list size");
    }
}

#[test]
fn sptag_variants_share_graph_recipe_but_not_seeds() {
    let base = deep(600, 9);
    let kdt = gass::graphs::sptag::build(
        base.clone(),
        gass::graphs::SptagParams::small(gass::graphs::SptagVariant::Kdt),
    );
    let bkt = gass::graphs::sptag::build(
        base,
        gass::graphs::SptagParams::small(gass::graphs::SptagVariant::Bkt),
    );
    // Same divisions and refinement -> identical graphs; different seed
    // structures -> different aux footprints.
    assert_eq!(kdt.stats().edges, bkt.stats().edges);
    assert_ne!(kdt.stats().aux_bytes, bkt.stats().aux_bytes);
}

#[test]
fn lshapg_and_ieh_carry_hash_structures() {
    let base = deep(400, 10);
    let lshapg = gass::graphs::lshapg::build(base.clone(), gass::graphs::LshapgParams::small());
    let ieh = gass::graphs::ieh::build(base, gass::graphs::IehParams::small());
    assert!(lshapg.stats().aux_bytes > 0);
    assert!(ieh.stats().aux_bytes > 0);
    assert!(lshapg.seed_provider().index().num_tables() >= 1);
}

#[test]
fn hvs_pyramid_replaces_random_levels() {
    let params = gass::graphs::HvsParams::small();
    let base = deep(500, 11);
    // The pyramid `hvs::build` installs: same parameters, same seed.
    let counter = DistCounter::new();
    let space = gass_core::Space::new(&base, &counter);
    let pyramid = gass::graphs::VoronoiPyramid::build(space, &params, params.seed ^ 0xb5);
    let idx = gass::graphs::hvs::build(base, params);
    assert_eq!(pyramid.num_levels(), 3);
    assert!(idx.stats().aux_bytes > 0);
    assert_eq!(idx.stats().aux_bytes, pyramid.heap_bytes());
}
