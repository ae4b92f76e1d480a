//! End-to-end CLI test: generate → build → info → query, through the real
//! binary.

use std::process::Command;

fn gass() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gass"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn gass");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The store and termination configurations the smoke and sharded
/// round trips run under: `(label, --format, extra query flags)`. Each
/// keeps the same recall floors.
const CONFIGS: [(&str, &str, &[&str]); 3] = [
    ("packed", "packed", &[]),
    ("mapped", "mapped", &[]),
    ("saturation", "packed", &["--term", "saturation"]),
];

/// The `recall@…  dists/query=…` line up to its timing field.
fn stat_line(s: &str) -> String {
    s.lines()
        .find(|l| l.starts_with("recall@"))
        .map(|l| l.split("ms/query").next().unwrap().trim().to_string())
        .unwrap_or_else(|| panic!("no recall line in: {s}"))
}

fn recall_of(out: &str, k: usize) -> f64 {
    out.split(&format!("recall@{k}="))
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no recall in output: {out}"))
}

#[test]
fn generate_build_query_roundtrip() {
    for (label, format, term) in CONFIGS {
        let dir = std::env::temp_dir().join(format!("gass_cli_e2e_{label}"));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("base.store.gass");
        let graph = dir.join("base.hnsw.gass");
        let queries = dir.join("q.store.gass");

        let out = run_ok(gass().args([
            "generate",
            "--dataset",
            "deep",
            "--n",
            "800",
            "--seed",
            "5",
            "--format",
            format,
            "--out",
            store.to_str().unwrap(),
        ]));
        assert!(
            out.contains(&format!("800 x 96d, {format}")),
            "unexpected generate output: {out}"
        );

        run_ok(gass().args([
            "generate",
            "--dataset",
            "deep",
            "--n",
            "10",
            "--seed",
            "9",
            "--out",
            queries.to_str().unwrap(),
        ]));

        let out = run_ok(gass().args([
            "build",
            "--method",
            "hnsw",
            "--store",
            store.to_str().unwrap(),
            "--out",
            graph.to_str().unwrap(),
        ]));
        assert!(out.contains("built hnsw over 800 nodes"), "{out}");

        let out = run_ok(gass().args(["info", "--file", graph.to_str().unwrap()]));
        assert!(out.contains("flat graph, 800 nodes"), "{out}");
        let out = run_ok(gass().args(["info", "--file", store.to_str().unwrap()]));
        assert!(out.contains("vector store") && out.contains("800 x 96d"), "{out}");

        let query = |extra: &[&str]| {
            let mut cmd = gass();
            cmd.args([
                "query",
                "--store",
                store.to_str().unwrap(),
                "--graph",
                graph.to_str().unwrap(),
                "--queries",
                queries.to_str().unwrap(),
                "--k",
                "5",
                "--beam",
                "64",
            ]);
            cmd.args(term).args(extra);
            run_ok(&mut cmd)
        };
        let baseline = query(&[]);
        let recall = recall_of(&baseline, 5);
        assert!(recall > 0.8, "{label}: CLI query recall too low: {recall} ({baseline})");

        // Reordered serving answers in original ids, so recall and
        // per-query distance counts must match the unreordered run exactly.
        for strategy in ["bfs", "rcm"] {
            let out = query(&["--reorder", strategy]);
            assert!(out.contains(&format!("reorder={strategy}")), "{out}");
            assert_eq!(
                stat_line(&baseline),
                stat_line(&out),
                "{label}: --reorder {strategy} changed results"
            );
        }
    }
}

/// Codec, reorder, termination policy and budget come from flags only:
/// the environment variables that once forced them must not reach a run.
#[test]
fn query_ignores_answer_changing_environment() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_env");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("base.store.gass");
    let graph = dir.join("base.hnsw.gass");
    let queries = dir.join("q.store.gass");
    for (path, n, seed) in [(&store, "800", "5"), (&queries, "10", "9")] {
        run_ok(gass().args([
            "generate",
            "--dataset",
            "deep",
            "--n",
            n,
            "--seed",
            seed,
            "--out",
            path.to_str().unwrap(),
        ]));
    }
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]));
    let query = |env: &[(&str, &str)]| {
        let mut cmd = gass();
        cmd.args([
            "query",
            "--store",
            store.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "5",
            "--beam",
            "64",
        ]);
        cmd.envs(env.iter().copied());
        run_ok(&mut cmd)
    };
    let clean = query(&[]);
    let dirty = query(&[
        ("GASS_QUANT", "pq"),
        ("GASS_REORDER", "rcm"),
        ("GASS_TERM", "saturation:1"),
        ("GASS_MAX_DISTS", "50"),
    ]);
    for out in [&clean, &dirty] {
        assert!(
            out.contains("quant=none reorder=none term=fixed max-dists=0"),
            "environment leaked into the configuration: {out}"
        );
    }
    assert_eq!(stat_line(&clean), stat_line(&dirty), "environment changed the answers");
}

#[test]
fn quantized_query_ladder() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_quant");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("base.store.gass");
    let graph = dir.join("base.hnsw.gass");
    let queries = dir.join("q.store.gass");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "800",
        "--seed",
        "5",
        "--out",
        store.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "10",
        "--seed",
        "9",
        "--out",
        queries.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]));
    // Each rung serves on codes (u8 > 0) and keeps usable recall thanks to
    // the exact rerank pool; the PQ rung pins its geometry via --pq-m.
    let rungs: [(&str, &[&str], &str); 3] = [
        ("sq8", &[], "quant=sq8"),
        ("sq4", &[], "quant=sq4"),
        ("pq", &["--pq-m", "48", "--rerank-factor", "16"], "quant=pq(m=48)"),
    ];
    for (quant, extra, label) in rungs {
        let mut cmd = gass();
        cmd.args([
            "query",
            "--store",
            store.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "5",
            "--beam",
            "64",
            "--quant",
            quant,
        ]);
        cmd.args(extra);
        let out = run_ok(&mut cmd);
        assert!(out.contains(label), "missing `{label}` in: {out}");
        let u8s: u64 = out
            .split("u8=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no u8 counter in output: {out}"));
        assert!(u8s > 0, "{quant} rung did not traverse on codes: {out}");
        let recall = recall_of(&out, 5);
        assert!(recall > 0.7, "{quant} rung recall too low: {recall} ({out})");
    }
}

#[test]
fn sharded_build_query_roundtrip() {
    for (label, format, term) in CONFIGS {
        let dir = std::env::temp_dir().join(format!("gass_cli_e2e_sharded_{label}"));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("base.store.gass");
        let queries = dir.join("q.store.gass");
        let sharded = dir.join("sharded_idx");
        run_ok(gass().args([
            "generate",
            "--dataset",
            "deep",
            "--n",
            "1500",
            "--seed",
            "5",
            "--format",
            format,
            "--out",
            store.to_str().unwrap(),
        ]));
        run_ok(gass().args([
            "generate",
            "--dataset",
            "deep",
            "--n",
            "12",
            "--seed",
            "9",
            "--out",
            queries.to_str().unwrap(),
        ]));
        let out = run_ok(gass().args([
            "build",
            "--method",
            "hnsw",
            "--store",
            store.to_str().unwrap(),
            "--out",
            sharded.to_str().unwrap(),
            "--shards",
            "3",
            "--nprobe",
            "1",
        ]));
        assert!(out.contains("built hnsw x 3 shards over 1500 vectors"), "{out}");
        let out = run_ok(gass().args(["info", "--file", sharded.to_str().unwrap()]));
        assert!(
            out.contains("sharded index, 3 shards x 96d, 1500 vectors total, nprobe 1"),
            "{out}"
        );

        let query = |nprobe: &str, extra: &[&str]| {
            let mut cmd = gass();
            cmd.args([
                "query",
                "--sharded",
                sharded.to_str().unwrap(),
                "--queries",
                queries.to_str().unwrap(),
                "--k",
                "5",
                "--beam",
                "64",
                "--nprobe",
                nprobe,
            ]);
            cmd.args(term).args(extra);
            run_ok(&mut cmd)
        };

        // Full probe merges every shard's answer: the recall floor holds,
        // and probing a superset of shards can never lose a true neighbor
        // (a true top-k member is displaced only by strictly closer
        // vectors, all of which are themselves in the true top-k).
        let full = query("3", &[]);
        let one = query("1", &[]);
        assert!(recall_of(&full, 5) > 0.85, "{label}: full-probe recall too low: {full}");
        assert!(
            recall_of(&full, 5) >= recall_of(&one, 5),
            "{label}: recall fell while probing more shards:\nnprobe=1: {one}\nnprobe=3: {full}"
        );

        // The quantized ladder applies per shard.
        let out = query("3", &["--quant", "sq8"]);
        assert!(out.contains("quant=sq8"), "{out}");
        assert!(recall_of(&out, 5) > 0.8, "{label}: sharded sq8 recall too low: {out}");
    }

    // --nprobe only makes sense against a sharded directory.
    let out = gass()
        .args(["query", "--store", "x", "--graph", "y", "--queries", "z", "--nprobe", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--nprobe requires --sharded"),
        "unhelpful nprobe error"
    );
}

/// `--threads` goes to the shard level first, where it cannot change a
/// byte: 1, 2 and the default (one shard per core, serial HNSW inside)
/// write the same directory.
#[test]
fn sharded_build_is_byte_identical_across_threads() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_sharded_threads");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("base.store.gass");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "1500",
        "--seed",
        "5",
        "--out",
        store.to_str().unwrap(),
    ]));
    let build = |name: &str, threads: Option<&str>| {
        let out_dir = dir.join(name);
        let mut cmd = gass();
        cmd.args(["build", "--method", "hnsw", "--store", store.to_str().unwrap()]);
        cmd.args(["--out", out_dir.to_str().unwrap(), "--shards", "3"]);
        if let Some(t) = threads {
            cmd.args(["--threads", t]);
        }
        let stdout = run_ok(&mut cmd);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .map(|name| (name.clone(), std::fs::read(out_dir.join(name)).unwrap()))
            .collect();
        files.sort();
        (stdout, files)
    };
    let (out1, serial) = build("t1", Some("1"));
    let (out2, two) = build("t2", Some("2"));
    let (_, default) = build("default", None);
    assert!(out1.contains("1 shards at a time"), "{out1}");
    assert!(out2.contains("2 shards at a time"), "{out2}");
    assert_eq!(serial.len(), 1 + 2 * 3);
    assert!(serial == two, "--threads 2 wrote different bytes than --threads 1");
    assert!(serial == default, "the default width wrote different bytes than --threads 1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_termination_query_flags() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_term");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("base.store.gass");
    let graph = dir.join("base.hnsw.gass");
    let queries = dir.join("q.store.gass");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "800",
        "--seed",
        "5",
        "--out",
        store.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "10",
        "--seed",
        "9",
        "--out",
        queries.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]));
    let query = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--store",
            store.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--k",
            "5",
            "--beam",
            "64",
        ];
        args.extend_from_slice(extra);
        run_ok(gass().args(&args))
    };
    let stat = |out: &str, tag: &str| -> f64 {
        out.split(tag)
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.split('(').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no {tag} in output: {out}"))
    };

    let fixed = query(&["--term", "fixed"]);
    assert!(fixed.contains("term=fixed"), "{fixed}");
    let fixed_dists = stat(&fixed, "dists/query=");
    let fixed_recall = stat(&fixed, "recall@5=");
    assert!(fixed_recall > 0.8, "fixed recall too low: {fixed}");

    // Each adaptive policy is echoed back and never spends more than the
    // fixed beam (a terminated run is a prefix of the fixed run).
    for (flag, tag) in
        [("saturation:4", "term=saturation:4"), ("distratio:0.3", "term=distratio")]
    {
        let out = query(&["--term", flag]);
        assert!(out.contains(tag), "{out}");
        assert!(
            stat(&out, "dists/query=") <= fixed_dists,
            "--term {flag} spent more than fixed: {out}\nvs fixed: {fixed}"
        );
        assert!(stat(&out, "recall@5=") > 0.5, "--term {flag} recall collapsed: {out}");
    }

    // A hard budget is respected to within seeds + one neighbor list.
    let out = query(&["--term", "fixed", "--max-dists", "150"]);
    assert!(out.contains("max-dists=150"), "{out}");
    let budget_dists = stat(&out, "dists/query=");
    assert!(
        budget_dists <= 150.0 + 100.0,
        "--max-dists 150 overshot: {budget_dists} dists/query ({out})"
    );

    // Gibberish policies are rejected with a pointer at the flag.
    let out = gass()
        .args([
            "query",
            "--store",
            "x",
            "--graph",
            "y",
            "--queries",
            "z",
            "--term",
            "sometimes",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--term"), "unhelpful --term error: {err}");
}

#[test]
fn rejects_zero_rerank_factor() {
    // Validation fires before any file is touched, so bogus paths are fine.
    let out = gass()
        .args([
            "query",
            "--store",
            "x",
            "--graph",
            "y",
            "--queries",
            "z",
            "--quant",
            "sq8",
            "--rerank-factor",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--rerank-factor must be at least 1"),
        "unhelpful rerank error: {err}"
    );
}

#[test]
fn rejects_pq_m_not_dividing_dim() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_pqm");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("base.store.gass");
    let graph = dir.join("base.hnsw.gass");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "200",
        "--seed",
        "5",
        "--out",
        store.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]));
    // 96 dims: 7 does not divide, so the CLI must fail up front with a
    // clear message naming both numbers, not panic inside the encoder.
    let out = gass()
        .args([
            "query",
            "--store",
            store.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--queries",
            store.to_str().unwrap(),
            "--quant",
            "pq",
            "--pq-m",
            "7",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--pq-m 7") && err.contains("96"), "unhelpful pq-m error: {err}");
    // --pq-m without the pq codec is rejected too.
    let out = gass()
        .args([
            "query",
            "--store",
            store.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--queries",
            store.to_str().unwrap(),
            "--quant",
            "sq8",
            "--pq-m",
            "8",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--pq-m requires --quant pq"),
        "unhelpful pq-m/codec mismatch error"
    );
}

#[test]
fn query_rejects_a_graph_built_over_another_store() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let (small, large) = (dir.join("small.store.gass"), dir.join("large.store.gass"));
    let graph = dir.join("large.hnsw.gass");
    for (n, store) in [("200", &small), ("300", &large)] {
        run_ok(gass().args([
            "generate",
            "--dataset",
            "deep",
            "--n",
            n,
            "--seed",
            "5",
            "--out",
            store.to_str().unwrap(),
        ]));
    }
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        large.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]));
    // A 300-node graph over a 200-vector store: a named error naming both
    // counts, not a panic.
    let out = gass()
        .args([
            "query",
            "--store",
            small.to_str().unwrap(),
            "--graph",
            graph.to_str().unwrap(),
            "--queries",
            small.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("300") && err.contains("200"), "unhelpful mismatch error: {err}");
    assert!(!err.contains("panicked"), "mismatch must not panic: {err}");
}

#[test]
fn helpful_errors() {
    let out = gass().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = gass()
        .args(["build", "--method", "elpis", "--store", "x", "--out", "y"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = gass().args(["info", "--file", "/definitely/not/a/file"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_lists_all_commands() {
    let out = run_ok(gass().args(["help"]));
    for cmd in ["generate", "build", "query", "info", "help"] {
        assert!(out.contains(cmd), "help missing `{cmd}`");
    }
}

#[test]
fn query_rejects_queries_of_another_dimension() {
    let dir = std::env::temp_dir().join("gass_cli_e2e_query_dim");
    std::fs::create_dir_all(&dir).unwrap();
    let (store, queries) = (dir.join("deep.store.gass"), dir.join("sift.store.gass"));
    let (graph, sharded) = (dir.join("deep.kgraph.gass"), dir.join("deep.sharded"));
    for (dataset, n, out) in [("deep", "300", &store), ("sift", "5", &queries)] {
        run_ok(
            gass()
                .args(["generate", "--dataset", dataset, "--n", n, "--seed", "3"])
                .args(["--out", out.to_str().unwrap()]),
        );
    }
    let build = ["build", "--store", store.to_str().unwrap(), "--out"];
    run_ok(gass().args(build).args([graph.to_str().unwrap(), "--method", "kgraph"]));
    run_ok(gass().args(build).args([
        sharded.to_str().unwrap(),
        "--method",
        "hnsw",
        "--shards",
        "2",
    ]));
    // 128-d SIFT queries against a 96-d Deep index, monolithic and
    // sharded: a named error before any ground truth is computed.
    let (s, g, q) =
        (store.to_str().unwrap(), graph.to_str().unwrap(), queries.to_str().unwrap());
    for args in [
        vec!["query", "--store", s, "--graph", g, "--queries", q],
        vec!["query", "--sharded", sharded.to_str().unwrap(), "--queries", q],
    ] {
        let out = gass().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("query dim 128 != store dim 96"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}
