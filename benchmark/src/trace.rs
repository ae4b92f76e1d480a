//! Span recording from outside the program.
//!
//! The harness wraps every call it makes into a layer's public function in
//! a span `{name, query id, parent, start, end, count}`; `count` carries
//! the `DistCounter` delta of the call so ratios are measured where the
//! work happens. Spans stay in memory and are written once, at exit. A
//! layer's self time is its span's duration minus its children's.
//!
//! A disabled tracer still runs the wrapped call but records nothing, so
//! the same code path serves traced and untraced rounds and their QPS
//! difference is the tracing overhead.

use std::io::Write;
use std::time::Instant;

/// Span names: the layer boundary a span sits on. Indices into [`NAMES`].
macro_rules! span_names {
    ($($id:ident = $text:literal),* $(,)?) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[derive(Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Name { $($id),* }
        pub const NAMES: &[&str] = &[$($text),*];
    };
}

span_names! {
    Setup = "setup",
    BuildHnsw = "graphs.hnsw.build",
    StoreAlign = "store.align",
    GraphFreeze = "graph.freeze",
    QuantEncode = "quant.encode",
    ReorderApply = "reorder.apply",
    ShardedBuild = "sharded.build_to_dir",
    ShardedLoad = "sharded.load",
    ServeStart = "serve.start",
    ClientConnect = "client.connect",
    Query = "query",
    SeedSelect = "seed.select",
    SearchBeam = "search.beam",
    ReorderFinish = "reorder.finish",
    ShardedRoute = "sharded.route",
    ShardedProbe = "sharded.probe",
    ShardedMerge = "sharded.merge",
    Request = "client.request",
    ClientEncode = "protocol.encode",
    ClientSend = "client.send",
    ClientRecv = "client.recv",
    ClientDecode = "protocol.decode",
}

/// Query id of spans that belong to no query (set-up, probes).
pub const NO_QUERY: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: u16,
    pub qid: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording (the traced run alternates traced and untraced
    /// rounds over one code path).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` returns its result and the count to
    /// store (distance evaluations of the call, or 0).
    #[inline]
    pub fn span<R>(
        &mut self,
        name: Name,
        qid: u32,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> R {
        if !self.on {
            return f(self).0;
        }
        let name = name as u16;
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, qid, parent, start_ns, end_ns: start_ns, count: 0 });
        self.open.push(id);
        let (out, count) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.count = count;
        out
    }

    /// Records a span whose ends were observed separately (a pipelined
    /// request is sent and answered in different loop iterations).
    pub fn record(&mut self, name: Name, qid: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let name = name as u16;
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span { name, qid, parent: NO_PARENT, start_ns, end_ns, count: 0 });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `(spans, total duration ns, total self ns, total count)` of the spans
    /// called `name` recorded at positions `from..`.
    pub fn totals(&self, name: Name, from: usize) -> SpanTotals {
        let want = name as usize;
        let mut child_ns = vec![0u64; self.spans.len() - from];
        for s in &self.spans[from..] {
            if s.parent != NO_PARENT && s.parent as usize >= from {
                child_ns[s.parent as usize - from] += s.dur_ns();
            }
        }
        let mut t = SpanTotals::default();
        for (i, s) in self.spans[from..].iter().enumerate() {
            if s.name as usize == want {
                t.spans += 1;
                t.dur_ns += s.dur_ns();
                t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
                t.count += s.count;
            }
        }
        t
    }

    /// Per-name `(spans, self ns)` over everything recorded.
    fn self_time_by_name(&self) -> Vec<(u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = vec![(0u64, 0u64); NAMES.len()];
        for (s, c) in self.spans.iter().zip(&child_ns) {
            out[s.name as usize].0 += 1;
            out[s.name as usize].1 += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Writes every span as one JSON document: a name table, one
    /// `[name, qid, parent, start_ns, end_ns, count]` row per span (`-1` for
    /// "no query" / "no parent"), and the derived self times.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{{header},\"names\":[")?;
        for (i, n) in NAMES.iter().enumerate() {
            write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(w, "],\"self_ns\":{{")?;
        for (i, (spans, ns)) in self.self_time_by_name().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(w, "{sep}\"{}\":{{\"spans\":{spans},\"self_ns\":{ns}}}", NAMES[i])?;
        }
        writeln!(w, "}},\"columns\":[\"name\",\"qid\",\"parent\",\"start_ns\",\"end_ns\",\"count\"],\"spans\":[")?;
        let signed = |v: u32| if v == u32::MAX { -1i64 } else { i64::from(v) };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "[{},{},{},{},{},{}]{}",
                s.name,
                signed(s.qid),
                signed(s.parent),
                s.start_ns,
                s.end_ns,
                s.count,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[derive(Clone, Copy, Default)]
pub struct SpanTotals {
    pub spans: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl SpanTotals {
    pub fn mean_dur_us(&self) -> f64 {
        self.dur_ns as f64 / 1e3 / self.spans.max(1) as f64
    }
}
