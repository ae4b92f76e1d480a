//! The repo's one benchmark. One invocation runs one workload in one
//! process and prints every metric by name, with its unit; the last line
//! of standard output is the result object the driver reads.
//!
//! ```text
//! gass-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (`BENCHMARK.json` lists both). `README.md` has the definitions.

mod calib;
mod client;
mod layers;
mod measure;
mod paths;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub spec: workload::Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Deterministic pass only, no timing (`benchmark/survey`).
    pub survey: bool,
    /// Base vectors and queries; below the committed sizes only in the
    /// smoke test.
    pub n: usize,
    pub queries: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut survey = false;
    let (mut n, mut queries) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--survey" {
            survey = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--n" => n = Some(value.parse::<usize>().map_err(|_| bad("a whole number"))?),
            "--queries" => {
                queries = Some(value.parse::<usize>().map_err(|_| bad("a whole number"))?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::Spec::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (expected one of {})", names.join(", "))
    })?;
    let seconds = seconds.unwrap_or(12.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let n = n.unwrap_or(spec.n);
    let queries = queries.unwrap_or(spec.queries);
    if n < 500 || queries < 100 {
        return Err("--n must be at least 500 and --queries at least 100".to_string());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        survey,
        n,
        queries,
    })
}

/// `benchmark/out/`, next to this package's manifest: scratch shard
/// directories and trace files, ignored by git. `cargo run` exports the
/// manifest directory at run time; a bare binary falls back to where it
/// was compiled.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// The process-global switches of the program, set to the serving defaults
/// explicitly rather than inherited, and echoed so a run records them.
fn pin_toggles() -> String {
    gass_core::set_simd_enabled(true);
    gass_core::set_prefetch_enabled(true);
    gass_core::mmap::set_mmap_enabled(true);
    gass_core::set_fanout_enabled(true);
    gass_core::set_fanout_workers(1);
    gass_core::set_numa_enabled(true);
    format!(
        "simd={} prefetch={} mmap={} fanout_workers={} numa_nodes={} threads={}",
        gass_core::simd_backend(),
        gass_core::prefetch_enabled(),
        gass_core::mmap_enabled(),
        gass_core::fanout_workers(),
        gass_core::num_nodes(),
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gass-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The program reads `GASS_*` variables lazily to force kernels, codecs,
    // reorderings and termination policies; a run under any of them would
    // measure another configuration than the one it reports.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("GASS_"))
    {
        eprintln!(
            "gass-benchmark: {} is set; unset every GASS_* variable",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    println!(
        "stamp workload={} seed={} seconds={} trace={} n={} queries={}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.n,
        args.queries
    );
    println!("stamp {}", pin_toggles());
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("gass-benchmark: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    match run::run(&args, &out) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gass-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
