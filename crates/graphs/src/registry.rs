//! Method registry: build any of the evaluated methods by name, with
//! parameter presets scaled to the dataset tier. This is what the figure
//! harnesses iterate over.

use crate::baseline::{self, IiParams};
use crate::common::BuildReport;
use crate::dpg::DpgParams;
use crate::efanna::EfannaParams;
use crate::elpis::{self, ElpisParams};
use crate::hcnng::HcnngParams;
use crate::hnsw::{self, HnswParams};
use crate::kgraph::KGraphParams;
use crate::lshapg::{self, LshapgParams};
use crate::ngt::NgtParams;
use crate::nsg::NsgParams;
use crate::nsw::NswParams;
use crate::sptag::{SptagParams, SptagVariant};
use crate::ssg::SsgParams;
use crate::vamana::VamanaParams;
use crate::{dpg, efanna, hcnng, kgraph, ngt, nsg, nsw, sptag, ssg, vamana};
use gass_core::index::AnnIndex;
use gass_core::nd::NdStrategy;
use gass_core::store::VectorStore;

/// Every method in the paper's evaluation (Section 4.1 "Algorithms").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MethodKind {
    /// HNSW (Malkov & Yashunin).
    Hnsw,
    /// NSG (Fu et al.).
    Nsg,
    /// SSG (Fu et al.) — NSG's MOND-based successor.
    Ssg,
    /// Vamana / DiskANN graph.
    Vamana,
    /// DPG (Li et al.).
    Dpg,
    /// EFANNA (Fu & Cai).
    Efanna,
    /// HCNNG (Munoz et al.).
    Hcnng,
    /// KGraph (Dong).
    KGraph,
    /// NGT (Yahoo Japan).
    Ngt,
    /// SPTAG with K-D-tree seeds.
    SptagKdt,
    /// SPTAG with balanced-k-means-tree seeds.
    SptagBkt,
    /// ELPIS (Azizi et al.).
    Elpis,
    /// LSHAPG (Zhao et al.).
    Lshapg,
    /// NSW (Malkov et al. 2014) — predecessor included for the taxonomy.
    Nsw,
    /// The paper's instrumented II baseline with the given ND strategy.
    Baseline(NdStrategy),
}

impl MethodKind {
    /// The twelve methods of the paper's evaluation.
    pub fn all_sota() -> Vec<MethodKind> {
        vec![
            MethodKind::Hnsw,
            MethodKind::Nsg,
            MethodKind::Ssg,
            MethodKind::Vamana,
            MethodKind::Dpg,
            MethodKind::Efanna,
            MethodKind::Hcnng,
            MethodKind::KGraph,
            MethodKind::Ngt,
            MethodKind::SptagKdt,
            MethodKind::SptagBkt,
            MethodKind::Elpis,
            MethodKind::Lshapg,
        ]
    }

    /// The subset that scales to the largest tiers in the paper
    /// (Figures 14 and 16: only HNSW, ELPIS and Vamana built 100GB+
    /// indexes in time/memory budget).
    pub fn scalable() -> Vec<MethodKind> {
        vec![MethodKind::Hnsw, MethodKind::Elpis, MethodKind::Vamana]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            MethodKind::Hnsw => "HNSW".into(),
            MethodKind::Nsg => "NSG".into(),
            MethodKind::Ssg => "SSG".into(),
            MethodKind::Vamana => "Vamana".into(),
            MethodKind::Dpg => "DPG".into(),
            MethodKind::Efanna => "EFANNA".into(),
            MethodKind::Hcnng => "HCNNG".into(),
            MethodKind::KGraph => "KGraph".into(),
            MethodKind::Ngt => "NGT".into(),
            MethodKind::SptagKdt => "SPTAG-KDT".into(),
            MethodKind::SptagBkt => "SPTAG-BKT".into(),
            MethodKind::Elpis => "ELPIS".into(),
            MethodKind::Lshapg => "LSHAPG".into(),
            MethodKind::Nsw => "NSW".into(),
            MethodKind::Baseline(nd) => format!("II+{}", nd.label()),
        }
    }
}

/// A built method plus its construction report (the figure harnesses need
/// both).
pub struct BuiltMethod {
    /// The index, behind the common interface.
    pub index: Box<dyn AnnIndex>,
    /// Construction cost.
    pub build: BuildReport,
}

/// Builds `kind` on `store` with parameter presets scaled by `n`
/// (degree/beam grow mildly with the tier, mirroring how the paper tunes
/// per dataset size). Uses each method's default construction threading.
pub fn build_method(kind: MethodKind, store: VectorStore, seed: u64) -> BuiltMethod {
    build_method_with_threads(kind, store, seed, None)
}

/// [`build_method`] with an explicit construction-thread override.
/// `None` keeps each method's own default: serial for the
/// incremental-insertion methods (HNSW, Vamana, the II baseline) whose
/// parallel builds change the algorithm, automatic (all cores) for the
/// methods whose parallel builds are bit-identical to serial. `Some(t)`
/// forces `t` threads everywhere a method has a knob (NGT, SPTAG and NSW
/// construct serially regardless).
pub fn build_method_with_threads(
    kind: MethodKind,
    store: VectorStore,
    seed: u64,
    threads: Option<usize>,
) -> BuiltMethod {
    let n = store.len();
    // Per-method defaults when no override is given (see the doc above).
    let t_serial = threads.unwrap_or(1);
    let t_auto = threads.unwrap_or(0);
    // Tier-scaled knobs.
    let degree = if n < 2_000 {
        16
    } else if n < 20_000 {
        24
    } else {
        32
    };
    let build_l = (degree * 4).max(64);
    match kind {
        MethodKind::Hnsw => {
            let idx = hnsw::build(
                store,
                HnswParams { m: degree / 2, ef_construction: build_l, seed, threads: t_serial },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Nsg => {
            let idx = nsg::build(
                store,
                NsgParams {
                    max_degree: degree,
                    build_l,
                    base: EfannaParams { seed, threads: t_auto, ..EfannaParams::small() },
                    seed,
                    threads: t_auto,
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Ssg => {
            let idx = ssg::build(
                store,
                SsgParams {
                    max_degree: degree,
                    base: EfannaParams { seed, threads: t_auto, ..EfannaParams::small() },
                    seed,
                    threads: t_auto,
                    ..SsgParams::small()
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Vamana => {
            let idx = vamana::build(
                store,
                VamanaParams {
                    max_degree: degree,
                    build_l,
                    alpha: 1.3,
                    seed,
                    threads: t_serial,
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Dpg => {
            let idx = dpg::build(
                store,
                DpgParams {
                    base_k: degree,
                    target_degree: degree / 2,
                    nd: NdStrategy::mond_default(),
                    iters: 10,
                    seed,
                    threads: t_auto,
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Efanna => {
            let idx = efanna::build(
                store,
                EfannaParams { k: degree, seed, threads: t_auto, ..EfannaParams::small() },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Hcnng => {
            let idx = hcnng::build(
                store,
                HcnngParams { seed, threads: t_auto, ..HcnngParams::small() },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::KGraph => {
            let idx = kgraph::build(
                store,
                KGraphParams { k: degree, seed, threads: t_auto, ..KGraphParams::small() },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Ngt => {
            let idx = ngt::build(
                store,
                NgtParams { base_k: degree, max_degree: degree, seed, ..NgtParams::small() },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::SptagKdt => {
            let idx = sptag::build(
                store,
                SptagParams { seed, ..SptagParams::small(SptagVariant::Kdt) },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::SptagBkt => {
            let idx = sptag::build(
                store,
                SptagParams { seed, ..SptagParams::small(SptagVariant::Bkt) },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Elpis => {
            let leaf = (n / 8).clamp(128, 4096);
            let idx = elpis::build(
                store,
                ElpisParams {
                    leaf_size: leaf,
                    // Leaf graphs stay serial: they are small, and the
                    // leaf-level fan-out supplies the parallelism.
                    hnsw: HnswParams {
                        m: degree / 3,
                        ef_construction: build_l / 2,
                        seed,
                        threads: 1,
                    },
                    threads: t_auto,
                    // The paper tunes nprobes per dataset; at our tiers
                    // the EAPCA lower-bound filter does the pruning and a
                    // generous cap keeps recall robust on embedding-style
                    // data whose neighbors straddle leaf boundaries.
                    nprobe: 8,
                    ..ElpisParams::small()
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Lshapg => {
            let idx = lshapg::build(
                store,
                LshapgParams {
                    hnsw: HnswParams {
                        m: degree / 2,
                        ef_construction: build_l,
                        seed,
                        threads: t_serial,
                    },
                    // Looser routing slack than the method's default: the
                    // paper observes LSHAPG's probabilistic routing prunes
                    // promising neighbors and needs compensation.
                    gamma: 2.5,
                    ..LshapgParams::small()
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Nsw => {
            let idx =
                nsw::build(store, NswParams { m: degree / 2, ef_construction: build_l, seed });
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
        MethodKind::Baseline(nd) => {
            let idx = baseline::build(
                store,
                IiParams {
                    max_degree: degree,
                    beam_width: build_l,
                    nd,
                    build_seeds: 8,
                    seed,
                    threads: t_serial,
                },
            );
            let build = idx.build_report();
            BuiltMethod { index: Box::new(idx), build }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::QueryParams;
    use gass_core::DistCounter;
    use gass_data::synth::deep_like;

    /// The serving configurations every registry invariant is checked
    /// under: full precision, then each codec installed in place on the
    /// same built index.
    const CODECS: [Option<gass_core::CodecSpec>; 4] = [
        None,
        Some(gass_core::CodecSpec::Sq8),
        Some(gass_core::CodecSpec::Sq4),
        Some(gass_core::CodecSpec::Pq { m: None }),
    ];

    fn codec_name(codec: Option<gass_core::CodecSpec>) -> &'static str {
        codec.map_or("none", |c| c.name())
    }

    #[test]
    fn every_method_builds_and_answers() {
        let base = deep_like(400, 1);
        for kind in MethodKind::all_sota() {
            let mut built = build_method(kind, base.clone(), 7);
            assert_eq!(built.index.num_vectors(), 400, "{}", kind.name());
            assert!(built.build.dist_calcs > 0, "{}", kind.name());
            for codec in CODECS {
                if let Some(spec) = codec {
                    built.index.quantize(spec);
                }
                let name = format!("{} {}", kind.name(), codec_name(codec));
                let counter = DistCounter::new();
                let res = built.index.search(
                    base.get(11),
                    &QueryParams::new(5, 48).with_seed_count(8),
                    &counter,
                );
                assert!(!res.neighbors.is_empty(), "{name}");
                assert!(counter.get() > 0, "{name}");
                // The query vector is a dataset member; any healthy method
                // finds it at moderate beam width on easy data.
                assert_eq!(res.neighbors[0].id, 11, "{name} failed to find the exact member");
            }
        }
    }

    #[test]
    fn every_method_freezes_with_identical_results() {
        // Acceptance-level invariant: freezing into CSR changes the memory
        // layout only — same neighbors, same distances, same number of
        // distance evaluations, for every registry method and codec.
        // Stochastic seed providers (KS) advance an RNG per query, so the
        // fair comparison is two identically built indexes — one frozen —
        // queried in lockstep: identical RNG streams, identical everything
        // except the graph layout.
        let base = deep_like(300, 2);
        let queries = deep_like(6, 9);
        let params = QueryParams::new(5, 32).with_seed_count(8);
        for kind in MethodKind::all_sota() {
            let mut plain = build_method(kind, base.clone(), 7);
            let mut frozen = build_method(kind, base.clone(), 7);
            assert!(!frozen.index.is_frozen(), "{} born frozen", kind.name());
            frozen.index.freeze();
            assert!(frozen.index.is_frozen(), "{} did not freeze", kind.name());
            frozen.index.freeze(); // idempotent
            for codec in CODECS {
                if let Some(spec) = codec {
                    plain.index.quantize(spec);
                    frozen.index.quantize(spec);
                }
                let name = format!("{} {}", kind.name(), codec_name(codec));
                let (cp, cf) = (DistCounter::new(), DistCounter::new());
                for q in 0..queries.len() as u32 {
                    let rp = plain.index.search(queries.get(q), &params, &cp);
                    let rf = frozen.index.search(queries.get(q), &params, &cf);
                    assert_eq!(rp.neighbors, rf.neighbors, "{name} q{q}");
                    assert_eq!(rp.stats, rf.stats, "{name} q{q}");
                }
                assert_eq!(
                    cp.get(),
                    cf.get(),
                    "{name} dist-call totals differ between layouts"
                );
            }
        }
    }

    #[test]
    fn every_method_reorders_with_identical_results() {
        // Tentpole invariant: relabeling the frozen serving state with any
        // strategy is invisible to callers — same neighbor ids (original
        // label space), same distances, same traversal stats, same counted
        // distance evaluations, at full precision and under every codec
        // encoded after the relabeling. As with freezing, stochastic
        // seeders make the fair comparison two identically built indexes
        // queried in lockstep.
        let base = deep_like(300, 6);
        let queries = deep_like(6, 13);
        let params = QueryParams::new(5, 32).with_seed_count(8);
        for strategy in gass_core::ReorderStrategy::ALL {
            for kind in MethodKind::all_sota() {
                let mut frozen = build_method(kind, base.clone(), 7);
                frozen.index.freeze();
                let mut reordered = build_method(kind, base.clone(), 7);
                reordered.index.reorder(strategy);
                if strategy == gass_core::ReorderStrategy::None {
                    // `None` is the explicit no-op: it must not even
                    // freeze, so the unreordered path stays bit-identical.
                    assert!(!reordered.index.is_reordered(), "{}", kind.name());
                    reordered.index.freeze();
                } else {
                    assert!(reordered.index.is_frozen(), "{} reorder must freeze", kind.name());
                    assert!(
                        reordered.index.is_reordered(),
                        "{} not reordered under {strategy}",
                        kind.name()
                    );
                    assert_eq!(reordered.index.reorder_strategy(), strategy);
                }
                for codec in CODECS {
                    if let Some(spec) = codec {
                        frozen.index.quantize(spec);
                        reordered.index.quantize(spec);
                    }
                    let name = format!("{} {strategy} {}", kind.name(), codec_name(codec));
                    // Bitwise lockstep needs effectively tie-free candidate
                    // distances. The exact f32 path and the affine codecs
                    // qualify (their per-dimension ranges do not depend on
                    // row order either); PQ does not — its 16-entry integer
                    // LUT sums collide freely at this scale, and
                    // equal-distance candidates at the beam margin resolve
                    // in label order, so pool composition (and thus
                    // stats/results at the margin) is legitimately
                    // label-dependent. The PQ reorder contract — permuted
                    // code rows are bit-identical to the unreordered rows
                    // relabeled — is property-tested in `quant::pq` and
                    // `tests/reorder.rs`.
                    let lockstep = !matches!(codec, Some(gass_core::CodecSpec::Pq { .. }));
                    let (cf, cr) = (DistCounter::new(), DistCounter::new());
                    for q in 0..queries.len() as u32 {
                        let rf = frozen.index.search(queries.get(q), &params, &cf);
                        let rr = reordered.index.search(queries.get(q), &params, &cr);
                        if lockstep {
                            assert_eq!(rf.neighbors, rr.neighbors, "{name} q{q}");
                            assert_eq!(rf.stats, rr.stats, "{name} q{q}");
                        } else {
                            assert_eq!(rf.neighbors.len(), rr.neighbors.len(), "{name} q{q}");
                        }
                    }
                    if lockstep {
                        assert_eq!(
                            cf.get(),
                            cr.get(),
                            "{name}: dist-call totals differ across labelings"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_method_serves_one_graph_when_frozen() {
        // Freezing moves the build graph into CSR and drops it; an RCM
        // reorder permutes that CSR. After either, the index reports the
        // structure it was built with, and its graph bytes are the CSR's
        // alone: `nodes + 1` offsets and one word per edge for each graph
        // it keeps (ELPIS keeps one per leaf; HNSW's upper layers count as
        // auxiliary), with no build layout beside them.
        use crate::hvs::{self, HvsParams};
        use gass_core::graph::GraphView;
        use gass_core::ReorderStrategy;
        let base = deep_like(300, 3);
        let mut methods: Vec<(Box<dyn AnnIndex>, usize)> = MethodKind::all_sota()
            .into_iter()
            .filter(|&kind| kind != MethodKind::Elpis)
            .chain([MethodKind::Baseline(NdStrategy::Rnd)])
            .map(|kind| (build_method(kind, base.clone(), 7).index, 1))
            .collect();
        let elpis = elpis::build(base.clone(), ElpisParams::small());
        let leaves = elpis.num_shards();
        methods.push((Box::new(elpis), leaves));
        methods.push((Box::new(hvs::build(base.clone(), HvsParams::small())), 1));
        assert_eq!(methods.len(), 15);
        for (mut index, graphs) in methods {
            let shape = |s: gass_core::IndexStats| {
                (s.nodes, s.edges, s.max_degree, s.avg_degree.to_bits())
            };
            let built = shape(index.stats());
            let check = |index: &dyn AnnIndex, stage: &str| {
                let s = index.stats();
                let name = format!("{} after {stage}", index.name());
                assert_eq!(shape(s), built, "{name}: structure changed");
                let csr_bytes = (s.nodes + graphs + s.edges) * std::mem::size_of::<u32>();
                assert_eq!(s.graph_bytes, csr_bytes, "{name}: graph bytes are not the CSR's");
            };
            index.freeze();
            check(index.as_ref(), "freeze");
            index.reorder(ReorderStrategy::Rcm);
            check(index.as_ref(), "rcm");
        }

        // The build graph is released, not merely left uncounted.
        fn releases<I: AnnIndex>(mut index: I, build_graph_bytes: impl Fn(&I) -> usize) {
            assert!(build_graph_bytes(&index) > 0, "{} built no graph", index.name());
            index.freeze();
            assert_eq!(build_graph_bytes(&index), 0, "{} kept its build graph", index.name());
            index.reorder(ReorderStrategy::Rcm);
            assert_eq!(build_graph_bytes(&index), 0, "{} rebuilt its graph", index.name());
        }
        releases(hnsw::build(base.clone(), HnswParams::small()), |i| i.graph().heap_bytes());
        releases(nsg::build(base.clone(), NsgParams::small()), |i| i.graph().heap_bytes());
        releases(dpg::build(base.clone(), DpgParams::small()), |i| i.graph().heap_bytes());
        releases(baseline::build(base, IiParams::small(NdStrategy::Rnd)), |i| {
            i.graph().heap_bytes()
        });
    }

    #[test]
    fn every_method_quantizes_and_still_answers() {
        // Compressed serving contract, for all 13 methods × all codecs:
        // `quantize(spec)` is idempotent per family, flips
        // `is_quantized`, routes traversal through the codes (visible in
        // the counter split), and — with the default rerank factor —
        // still pins the exact dataset member at rank 0 with its exact
        // (re-scored) distance of 0.
        let base = deep_like(400, 4);
        for kind in MethodKind::all_sota() {
            let mut built = build_method(kind, base.clone(), 7);
            for spec in gass_core::CodecSpec::ALL {
                built.index.quantize(spec);
                assert!(built.index.is_quantized(), "{} {spec}", kind.name());
                built.index.quantize(spec); // idempotent per family
                                            // The 4-bit codecs are coarser in code space: on the
                                            // weakly-connected kNN graphs (DPG, KGraph) one wrong
                                            // turn can strand the walk on an island, so give the
                                            // traversal more entry points and the exact rerank a
                                            // deeper pool than the defaults.
                let counter = DistCounter::new();
                let res = built.index.search(
                    base.get(23),
                    &QueryParams::new(5, 48).with_seed_count(16).with_rerank_factor(8),
                    &counter,
                );
                assert_eq!(
                    res.neighbors[0].id,
                    23,
                    "{} {spec} lost the exact member",
                    kind.name()
                );
                assert_eq!(res.neighbors[0].dist, 0.0, "{} {spec} inexact top-1", kind.name());
                assert!(counter.get_u8() > 0, "{} {spec} never used the codes", kind.name());
                assert!(
                    counter.get_f32() > 0,
                    "{} {spec} never re-scored exactly",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn names_align_with_paper() {
        assert_eq!(MethodKind::SptagBkt.name(), "SPTAG-BKT");
        assert_eq!(MethodKind::Baseline(NdStrategy::Rnd).name(), "II+RND");
        assert_eq!(MethodKind::all_sota().len(), 13);
        assert_eq!(MethodKind::scalable().len(), 3);
    }
}
