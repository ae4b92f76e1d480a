//! The benchmark's own contract, checked at toy scale: what it prints is
//! what `BENCHMARK.json` declares, on every workload, in both modes.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Just enough JSON to read `BENCHMARK.json` and a result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used by the benchmark's JSON");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"));
    doc.get(list)
        .items()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

struct Run {
    /// `name → (value, unit)` of the result line.
    metrics: BTreeMap<String, (f64, String)>,
    /// Names on the `metric <name> <value> <unit>` lines.
    printed: BTreeMap<String, String>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_gass-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--n", "2000", "--queries", "200"])
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last);
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"], "{last}");
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    assert_eq!(result.get("failed").num(), 0.0, "{stdout}");
    let attempted = result.get("attempted").num();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "attempted {attempted}");
    let mut metrics = BTreeMap::new();
    for name in result.get("metrics").keys() {
        let m = result.get("metrics").get(name);
        assert_eq!(m.keys(), ["value", "unit"], "{name}");
        assert!(m.get("value").num().is_finite(), "{name}");
        let fresh = metrics
            .insert(name.to_string(), (m.get("value").num(), m.get("unit").str().to_string()));
        assert!(fresh.is_none(), "{name} reported twice");
    }
    let printed = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut parts = l.split(' ');
            let (name, _value, unit) =
                (parts.next().unwrap(), parts.next().unwrap(), parts.next().unwrap());
            (name.to_string(), unit.to_string())
        })
        .collect();
    Run { metrics, printed }
}

fn assert_names_and_units(run: &Run, want: &BTreeMap<String, String>, what: &str) {
    let got: BTreeSet<&String> = run.metrics.keys().collect();
    let declared: BTreeSet<&String> = want.keys().collect();
    assert_eq!(got, declared, "{what}: result-line names differ from BENCHMARK.json");
    let printed: BTreeSet<&String> = run.printed.keys().collect();
    assert_eq!(printed, declared, "{what}: printed names differ from BENCHMARK.json");
    for (name, unit) in want {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{what}: bad metric name {name:?}"
        );
        assert_eq!(&run.metrics[name].1, unit, "{what}: unit of {name}");
        assert_eq!(&run.printed[name], unit, "{what}: printed unit of {name}");
    }
}

fn check_workload(workload: &str) {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains_key("setup_s"));

    let untraced = run(workload, 11, false);
    assert_names_and_units(&untraced, &end_to_end, &format!("{workload} untraced"));
    for (name, (value, _)) in &untraced.metrics {
        assert!(*value > 0.0, "{workload}: end-to-end metric {name} is {value}");
    }

    let first = run(workload, 11, true);
    let second = run(workload, 11, true);
    assert_names_and_units(&first, &per_layer, &format!("{workload} traced"));
    assert_names_and_units(&second, &per_layer, &format!("{workload} traced again"));
    for (name, (value, unit)) in &first.metrics {
        if ["s", "us", "ns"].contains(&unit.as_str()) {
            assert_ne!(
                *value, second.metrics[name].0,
                "{workload}: time {name} read exactly the same on two runs"
            );
        }
    }
    assert!(
        first.metrics["trace.overhead_ratio"].0 > 0.5,
        "{workload}: tracing halves throughput"
    );
    let trace_file = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let trace =
        std::fs::read_to_string(&trace_file).expect("the traced run wrote its span file");
    assert!(trace.contains("\"spans\":["), "{trace_file} has no span table");
}

#[test]
fn deep_flat() {
    check_workload("deep-flat");
}

#[test]
fn gist_pq() {
    check_workload("gist-pq");
}

#[test]
fn deep_sharded() {
    check_workload("deep-sharded");
}

#[test]
fn serve_mixed() {
    check_workload("serve-mixed");
}

/// The counted end-to-end metrics repeat bit for bit on one seed.
#[test]
fn counted_metrics_repeat_exactly() {
    let a = run("deep-sharded", 5, false);
    let b = run("deep-sharded", 5, false);
    for name in ["recall_at_10", "dists_per_query", "dists_p99", "bytes_per_vector"] {
        assert_eq!(a.metrics[name].0.to_bits(), b.metrics[name].0.to_bits(), "{name}");
    }
}

/// A forcing variable in the environment aborts the run without a result.
#[test]
fn forcing_variable_aborts() {
    let out = Command::new(env!("CARGO_BIN_EXE_gass-benchmark"))
        .args(["--workload", "deep-flat", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .env("GASS_NO_SIMD", "1")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
}
