//! Figure 1: the motivating best-so-far race — image retrieval on an
//! ImageNet-like embedding collection, comparing method families by the
//! time at which each produces its (final) best answer.
//!
//! Paper shape: the fast graph method (ELPIS family) matches the exact
//! answer three orders of magnitude faster than the serial scan and ~3x
//! faster than the slower graph family (EFANNA).
//!
//! ```sh
//! cargo run --release -p gass-bench --bin fig01_bsf_race
//! ```

use gass_bench::{results_dir, tiers};
use gass_core::distance::{DistCounter, Space};
use gass_core::index::{AnnIndex, QueryParams};
use gass_data::DatasetKind;
use gass_eval::Table;
use gass_graphs::{efanna, elpis, EfannaParams, ElpisParams};

fn main() {
    let n = tiers()[2].n;
    let (base, queries) = DatasetKind::ImageNet.generate(n, 10, 11);
    println!("Figure 1: best-so-far race on ImageNet-like, n={n}\n");

    let elpis = elpis::build(base.clone(), ElpisParams::small());
    let efanna = efanna::build(base.clone(), EfannaParams::small());

    let mut table = Table::new(vec!["method", "mean_ms_to_answer", "answers_match_exact"]);
    let mut rows: Vec<(String, f64, usize)> = Vec::new();

    // Serial scan timing.
    {
        let counter = DistCounter::new();
        let t = std::time::Instant::now();
        let mut ok = 0;
        let mut exact_ids = Vec::new();
        for (_, q) in queries.iter() {
            let space = Space::new(&base, &counter);
            let res = gass_core::serial_scan(space, q, 1);
            exact_ids.push(res[0].id);
            ok += 1;
        }
        rows.push((
            "SerialScan".into(),
            t.elapsed().as_secs_f64() * 1e3 / queries.len() as f64,
            ok,
        ));

        // Graph methods, checked against the exact ids.
        for (name, idx) in
            [("ELPIS", &elpis as &dyn AnnIndex), ("EFANNA", &efanna as &dyn AnnIndex)]
        {
            let counter = DistCounter::new();
            let t = std::time::Instant::now();
            let mut matches = 0;
            for (qi, q) in queries.iter() {
                let res = idx.search(q, &QueryParams::new(1, 48).with_seed_count(16), &counter);
                if res.neighbors.first().map(|x| x.id) == Some(exact_ids[qi as usize]) {
                    matches += 1;
                }
            }
            rows.push((
                name.into(),
                t.elapsed().as_secs_f64() * 1e3 / queries.len() as f64,
                matches,
            ));
        }
    }

    for (name, ms, ok) in &rows {
        table.row(vec![name.clone(), format!("{ms:.3}"), format!("{ok}/{}", queries.len())]);
    }
    table.emit(&results_dir(), "fig01_bsf_race").expect("write results");

    let scan = rows[0].1;
    let elpis_ms = rows[1].1;
    let efanna_ms = rows[2].1;
    println!(
        "shape check — ELPIS {:.0}x faster than scan, {:.1}x faster than EFANNA",
        scan / elpis_ms.max(1e-9),
        efanna_ms / elpis_ms.max(1e-9)
    );
}
