//! Figure 10: memory footprint during *query answering* — what must stay
//! resident to serve searches (raw vectors + graph + seed structures +
//! per-thread scratch), measured in the full serving configuration:
//! frozen CSR and quantized codes.
//!
//! Paper shape: Vamana smallest (graph + data only, modest degree), ELPIS
//! next (small leaf graphs but duplicated contiguous leaf storage), HNSW
//! pays for slotted layout + hierarchy. Freezing moves every build graph
//! into CSR, so the slot slack is a build-time cost (Figures 8–9) and
//! not a serving one here. The `of_which_serving` column is the serving
//! layout itself — the CSR graph plus the codec store; each method gets
//! one row per codec ladder rung (SQ8 / SQ4 / PQ) so the ladder's
//! shrinking code store is visible per method.
//!
//! ```sh
//! cargo run --release -p gass-bench --bin fig10_query_memory
//! ```

use gass_bench::{results_dir, small_tiers};
use gass_data::DatasetKind;
use gass_eval::{fmt_bytes, Table};
use gass_graphs::{build_method, MethodKind};

fn main() {
    let mut table = Table::new(vec![
        "tier",
        "method",
        "codec",
        "resident_total",
        "of_which_graph",
        "of_which_aux",
        "of_which_serving",
        "scratch_per_thread",
    ]);

    for tier in small_tiers() {
        let base = DatasetKind::Deep.generate_base(tier.n, 3);
        let raw = base.heap_bytes();
        for kind in [
            MethodKind::Vamana,
            MethodKind::Elpis,
            MethodKind::Hnsw,
            MethodKind::Nsg,
            MethodKind::Ssg,
            MethodKind::SptagBkt,
        ] {
            let mut built = build_method(kind, base.clone(), 5);
            built.freeze();
            // Frozen: the CSR graph and the seed structures, no codes yet.
            let frozen_aux = built.index.stats().aux_bytes;
            // One row per ladder rung: re-quantizing replaces the codes in
            // place, so the aux growth over the frozen state is exactly the
            // code store.
            for spec in gass_core::CodecSpec::ALL {
                built.quantize(spec);
                let s = built.index.stats();
                let serving = s.graph_bytes + (s.aux_bytes - frozen_aux);
                // Query-time scratch: visited stamps (4B/node) + beam buffer.
                let scratch = tier.n * 4 + 320 * std::mem::size_of::<(u64, bool)>();
                table.row(vec![
                    tier.label.to_string(),
                    kind.name(),
                    spec.resolve(base.dim()).to_string(),
                    fmt_bytes(raw + s.graph_bytes + s.aux_bytes + scratch),
                    fmt_bytes(s.graph_bytes),
                    fmt_bytes(s.aux_bytes),
                    fmt_bytes(serving),
                    fmt_bytes(scratch),
                ]);
            }
            eprintln!("done: {} {}", tier.label, kind.name());
        }
    }
    table.emit(&results_dir(), "fig10_query_memory").expect("write results");
}
