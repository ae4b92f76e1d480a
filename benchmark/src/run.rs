//! What one invocation does: the untraced run behind the end-to-end
//! metrics, and the survey's deterministic pass. The traced run is in
//! [`crate::layers`].

use crate::calib::Calib;
use crate::measure::{
    engine_round, latency_us, timed_setup, window, Reference, RoundJob, WindowOut,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{setup, Data, Engine};
use crate::Args;
use gass_core::DistCounter;
use std::io;
use std::path::Path;

/// Set-up instances per untraced run; `setup_s` is the median of their
/// reference-speed seconds and each gets a third of the timed window.
const SETUPS: usize = 3;

/// Everything a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// A check other than a per-reply one failed (recall floor, counter
    /// conservation, a non-finite metric); the reason is printed.
    pub broken: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Self { attempted: 0, failed: 0, broken: Vec::new(), metrics: Vec::new() }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.broken.push(format!("{name} is not finite"));
        }
        self.metrics.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One `metric <name> <value> <unit>` line each, then the result object
    /// as the last line. Values print with every digit they were measured
    /// to.
    pub fn print(&self) {
        for why in &self.broken {
            println!("check-failed {why}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.broken.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

pub fn run(args: &Args, out: &Path) -> io::Result<Report> {
    if args.survey {
        survey(args, out)
    } else if args.trace {
        crate::layers::run_traced(args, out)
    } else {
        run_untraced(args, out)
    }
}

/// The recall floor guards the committed configuration; a resized smoke
/// run sits at another operating point.
pub fn check_floor(args: &Args, reference: &Reference, report: &mut Report) {
    if args.n == args.spec.n
        && args.queries == args.spec.queries
        && reference.recall() < args.spec.recall_floor
    {
        report.broken.push(format!(
            "recall_at_10 {} is below the floor {}",
            reference.recall(),
            args.spec.recall_floor
        ));
    }
}

/// The four counted end-to-end metrics; exact for a given seed.
pub fn push_counted(
    report: &mut Report,
    reference: &Reference,
    resident_bytes: usize,
    n: usize,
) {
    report.push("recall_at_10", reference.recall(), "ratio");
    report.push("dists_per_query", reference.dists_per_query(), "count");
    report.push("dists_p99", reference.dists_p99() as f64, "count");
    report.push("bytes_per_vector", resident_bytes as f64 / n as f64, "B");
}

/// A tag no concurrent run of the benchmark shares.
pub fn run_tag(args: &Args, instance: usize) -> String {
    format!("{}-{}-{}-{instance}", args.spec.name, args.seed, std::process::id())
}

fn run_untraced(args: &Args, out: &Path) -> io::Result<Report> {
    let spec = &args.spec;
    let data = Data::generate(spec, args.n, args.queries, args.seed);
    println!("stamp data.gen_s={} data.truth_s={}", data.gen_s, data.truth_s);
    let mut calib = Calib::new(data.base.dim(), data.base.to_flat_vec());
    let params = spec.params();
    let counter = DistCounter::new();
    let mut tr = Tracer::new(false);
    let mut report = Report::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_walls = Vec::with_capacity(SETUPS);
    let mut reference: Option<Reference> = None;
    let mut resident = 0usize;
    let mut win = WindowOut::default();
    for instance in 0..SETUPS {
        let tag = run_tag(args, instance);
        let (mut engine, took) = timed_setup(spec, &data.base, out, &tag, &mut calib, &mut tr)?;
        setups.push(took.ref_s);
        setup_walls.push(took.wall_s);
        let reference = reference.get_or_insert_with(|| {
            resident = engine.resident_bytes();
            Reference::build(engine.index(), &params, &data)
        });
        let job = RoundJob {
            params: &params,
            count: spec.round_queries,
            data: &data,
            reference,
            counter: &counter,
        };
        let w = window(
            args.seconds / SETUPS as f64,
            1,
            &mut calib,
            spec.calib_queries,
            |_, lat| engine_round(&mut engine, &job, false, &mut tr, lat),
        )?;
        println!(
            "stamp instance={instance} setup_s={} raw.setup_s={} rounds={} raw.qps={} host.calib_qps={}",
            took.ref_s,
            took.wall_s,
            w.series[0].qps.len(),
            median(&w.series[0].qps),
            median(&w.calib),
        );
        if let Engine::Served { server, .. } = &engine {
            if let Err(why) = server.settled_stats() {
                report.broken.push(why);
            }
        }
        win.absorb(w);
    }
    let reference = reference.expect("at least one set-up instance ran");
    report.count(reference.attempted, reference.failed);
    report.count(win.attempted, win.failed);
    check_floor(args, &reference, &mut report);

    let (p50, p99) = latency_us(&mut win.series[0].lat_ns);
    println!(
        "stamp rounds={} raw.qps={} raw.lat_p50_us={p50} raw.lat_p99_us={p99} host.calib_qps={} raw.setup_s={} calib.sink={}",
        win.series[0].qps.len(),
        median(&win.series[0].qps),
        median(&win.calib),
        median(&setup_walls),
        calib.sink(),
    );
    report.push("setup_s", median(&setups), "s");
    push_counted(&mut report, &reference, resident, data.base.len());
    report.push("qps_norm", median(&win.series[0].norm), "ratio");
    Ok(report)
}

/// The survey's view of one seed: the counted metrics only, plus, for the
/// sharded workload, recall at every `nprobe` (routing loss is the gap to
/// probing every shard).
fn survey(args: &Args, out: &Path) -> io::Result<Report> {
    let spec = &args.spec;
    let data = Data::generate(spec, args.n, args.queries, args.seed);
    let mut tr = Tracer::new(false);
    let engine = setup(spec, &data.base, out, &run_tag(args, 0), &mut tr)?;
    let params = spec.params();
    let reference = Reference::build(engine.index(), &params, &data);
    let mut report = Report::new();
    report.count(reference.attempted, reference.failed);
    push_counted(&mut report, &reference, engine.resident_bytes(), data.base.len());
    if let Engine::Sharded { index, .. } = &engine {
        let committed = index.nprobe();
        for nprobe in 1..=index.num_shards() {
            index.set_nprobe(nprobe);
            let r = Reference::build(index.as_ref(), &params, &data);
            report.push(&format!("survey.recall_nprobe_{nprobe}"), r.recall(), "ratio");
        }
        index.set_nprobe(committed);
    }
    Ok(report)
}
