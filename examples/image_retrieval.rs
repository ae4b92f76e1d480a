//! Figure-1 style best-so-far race: how quickly does each family of
//! vector search find the right image?
//!
//! The paper's motivating figure embeds ImageNet with ResNet50 and races
//! a graph method (ELPIS), a slower graph method (EFANNA), a hash method
//! (QALSH) and an exact serial scan, plotting the best-so-far answer over
//! time. Here the embeddings are the ImageNet-like analog, and the racers
//! are ELPIS, EFANNA, an LSH candidate scan, and the serial scan.
//!
//! ```sh
//! cargo run --release --example image_retrieval
//! ```

use gass::prelude::*;
use gass_core::Space;

fn main() {
    let n = 20_000;
    let base = gass::data::synth::imagenet_like(n, 11);
    let query = gass::data::synth::imagenet_like(1, 99);
    let q = query.get(0);
    println!("ImageNet-like collection: {} x {}d\n", base.len(), base.dim());

    // Truth for reference.
    let truth = gass::data::exact_knn(&base, q, 1)[0];
    println!("true NN: id {} at dist {:.4}\n", truth.id, truth.dist.sqrt());

    // --- Exact serial scan: time to completion ------------------------
    let counter = DistCounter::new();
    let t = std::time::Instant::now();
    let space = Space::new(&base, &counter);
    let exact = gass_core::serial_scan(space, q, 1);
    let scan_time = t.elapsed().as_secs_f64();
    println!(
        "SerialScan : bsf id {:>6}  final after {:>9.3}ms ({} dists)",
        exact[0].id,
        scan_time * 1e3,
        counter.get()
    );

    // --- LSH: candidate retrieval + verification ----------------------
    let t = std::time::Instant::now();
    let lsh = gass::hash::LshIndex::build(&base, 6, 8, 8.0, 3);
    let lsh_build = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let mut cands = Vec::new();
    lsh.candidates(q, 512, &mut cands);
    let mut best = Neighbor::new(u32::MAX, f32::INFINITY);
    for id in cands {
        let d = gass_core::l2_sq(q, base.get(id));
        if d < best.dist {
            best = Neighbor::new(id, d);
        }
    }
    println!(
        "LSH        : bsf id {:>6}  answer in {:>9.3}ms (+{:.0}ms build)",
        best.id,
        t.elapsed().as_secs_f64() * 1e3,
        lsh_build * 1e3
    );

    // --- EFANNA (slower graph family in Fig. 1) -----------------------
    let t = std::time::Instant::now();
    let efanna = gass::graphs::efanna::build(base.clone(), gass::graphs::EfannaParams::small());
    let ef_build = t.elapsed().as_secs_f64();
    let counter = DistCounter::new();
    let t = std::time::Instant::now();
    let res = efanna.search(q, &QueryParams::new(1, 64).with_seed_count(16), &counter);
    println!(
        "EFANNA     : bsf id {:>6}  answer in {:>9.3}ms ({} dists, +{:.0}ms build)",
        res.neighbors[0].id,
        t.elapsed().as_secs_f64() * 1e3,
        counter.get(),
        ef_build * 1e3
    );

    // --- ELPIS (the paper's fast graph family) ------------------------
    let t = std::time::Instant::now();
    let elpis = gass::graphs::elpis::build(base.clone(), ElpisParams::small());
    let elpis_build = t.elapsed().as_secs_f64();
    let counter = DistCounter::new();
    let t = std::time::Instant::now();
    let res = elpis.search(q, &QueryParams::new(1, 48), &counter);
    let elpis_time = t.elapsed().as_secs_f64();
    println!(
        "ELPIS      : bsf id {:>6}  answer in {:>9.3}ms ({} dists, +{:.0}ms build)",
        res.neighbors[0].id,
        elpis_time * 1e3,
        counter.get(),
        elpis_build * 1e3
    );

    println!(
        "\nELPIS answered {:.0}x faster than the serial scan with the same answer: {}",
        scan_time / elpis_time.max(1e-9),
        res.neighbors[0].id == exact[0].id
    );
}
