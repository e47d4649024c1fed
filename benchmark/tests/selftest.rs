//! Self-tests of the harness: the contract file matches the code, the
//! emitted JSON has the promised shape, runs repeat, `compare` gates,
//! and the correctness checks reject planted faults.

use drw_benchmark::checks::{check_service, check_tree};
use drw_benchmark::compare::{compare, judge, Verdict};
use drw_benchmark::metrics::{END_TO_END, PER_LAYER};
use drw_benchmark::run::read_json;
use drw_benchmark::workloads::Workload;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_drw-benchmark")
}

fn tmp(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Runs the whole quick set once per `(seed, tag)` and returns the
/// combined record.
fn quick_set(seed: u64, tag: &str) -> Value {
    let out = tmp(tag).join("run.json");
    let status = Command::new(exe())
        .args(["run", "--quick", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "quick set (seed {seed}) failed");
    read_json(&out).expect("combined record parses")
}

fn baseline() -> &'static Value {
    static RUN: OnceLock<Value> = OnceLock::new();
    RUN.get_or_init(|| quick_set(11, "seed11_a"))
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(x)) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `BENCHMARK.json` as the code's tables spell it.
fn contract() -> Value {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let text = |s: &str| Value::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj(vec![
        ("command", Value::Array(command.map(text).to_vec())),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(12)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text("lower")),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[test]
fn benchmark_json_is_the_code_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let want = contract();
    assert!(
        read_json(&path).ok().as_ref() == Some(&want),
        "BENCHMARK.json should read:\n{}",
        serde_json::to_string_pretty(&want).expect("renders")
    );
}

#[test]
fn names_units_and_bounds_fit_the_contract() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "bad name `{name}`");
    }
    let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(PER_LAYER.len() <= 128);
}

/// The last stdout line of one single-workload quick run.
fn last_line(workload: &str, trace: &str, tag: &str) -> Value {
    let out = Command::new(exe())
        .args(["run", "--quick", "--workload", workload, "--seed", "5"])
        .args(["--seconds", "1", "--trace", trace, "--out"])
        .arg(tmp(tag).join("record.json"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("some output");
    serde_json::from_str(line).expect("last line is JSON")
}

fn assert_driver_object(line: &Value, want: &[(&str, &str)]) {
    let Value::Object(fields) = line else {
        panic!("last line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert!(number(line.get("attempted")) >= 1.0);
    assert_eq!(number(line.get("failed")), 0.0);
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        panic!("`metrics` is not an object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let Value::Object(fields) = m else {
                panic!("metric `{name}` is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "metric `{name}`");
            assert!(number(m.get("value")).is_finite());
            (name.clone(), text(m, "unit"))
        })
        .collect();
    let want: Vec<(String, String)> = want
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let line = last_line("warm_stitch", "0", "shape_e2e");
    let want: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_driver_object(&line, &want);
    let Some(Value::Object(metrics)) = line.get("metrics") else {
        unreachable!();
    };
    for (name, m) in metrics {
        assert!(number(m.get("value")) > 0.0, "`{name}` must never be 0");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let line = last_line("service_mix", "1", "shape_layer");
    let want: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    assert_driver_object(&line, &want);
    let trace = read_json(&tmp("shape_layer").join("trace_service_mix.json")).expect("trace file");
    assert!(!array(&trace, "spans").is_empty());
    assert!(trace.get("self_times").is_some());
}

/// `(rounds, messages, digest)` of every workload in a combined record.
fn fingerprints(doc: &Value) -> Vec<(String, f64, Value, String)> {
    Workload::ALL
        .iter()
        .map(|w| {
            let r = doc
                .get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .unwrap_or_else(|| panic!("{} missing", w.name()));
            let rounds = r
                .get("end_to_end")
                .and_then(|e| e.get("rounds"))
                .and_then(|m| m.get("value"));
            (
                w.name().to_string(),
                number(rounds),
                r.get("messages").cloned().unwrap_or(Value::Null),
                text(r, "digest"),
            )
        })
        .collect()
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    let a = fingerprints(baseline());
    let b = fingerprints(&quick_set(11, "seed11_b"));
    assert_eq!(
        a, b,
        "one seed must give identical rounds, messages and digests"
    );
    let c = fingerprints(&quick_set(12, "seed12"));
    for (x, y) in a.iter().zip(&c) {
        assert_ne!(x.3, y.3, "{}: another seed must change the digest", x.0);
    }
    // Bit-identity of the two backends.
    assert_eq!(a[0].3, a[1].3, "cold_dense and cold_dense_par digests");
}

/// `doc` with `wall_s` of `workload` multiplied by `factor`.
fn with_wall_scaled(doc: &Value, workload: &str, factor: f64) -> Value {
    fn edit(v: &mut Value, path: &[&str], factor: f64) {
        let Value::Object(fields) = v else {
            panic!("not an object at {path:?}");
        };
        let (key, rest) = path.split_first().expect("non-empty path");
        let slot = &mut fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no `{key}`"))
            .1;
        if rest.is_empty() {
            *slot = Value::Float(number(Some(slot)) * factor);
        } else {
            edit(slot, rest, factor);
        }
    }
    let mut out = doc.clone();
    edit(
        &mut out,
        &["workloads", workload, "end_to_end", "wall_s", "value"],
        factor,
    );
    out
}

#[test]
fn compare_flags_a_planted_regression_beyond_the_bound_only() {
    let bound = END_TO_END
        .iter()
        .find(|m| m.name == "wall_s")
        .expect("wall_s is an end-to-end metric")
        .bound;
    let base = baseline();
    let planted = |factor: f64| with_wall_scaled(base, "rst_cover", factor);
    assert!(compare(base, base), "a run must pass against itself");
    assert!(compare(base, &planted(1.0 + bound / 2.0)));
    assert!(!compare(base, &planted(1.0 + bound + 0.05)));
    // A faster candidate is not a regression.
    assert!(compare(base, &planted(1.0 - bound - 0.05)));

    assert_eq!(judge(1.0, 1.2, 0.0, 0.0, 0.10), Verdict::Worse);
    assert_eq!(judge(1.0, 0.8, 0.0, 0.0, 0.10), Verdict::Better);
    assert_eq!(judge(1.0, 1.05, 0.0, 0.0, 0.10), Verdict::Same);
    assert_eq!(judge(1.0, 1.2, 0.3, 0.0, 0.10), Verdict::Unresolved);
}

#[test]
fn tree_check_rejects_a_planted_cycle() {
    let g = drw_graph::generators::torus2d(4, 4);
    let is_edge = |u, v| g.has_edge(u, v);
    // Row-major torus: a comb (first column down, every row across).
    let mut tree: Vec<(usize, usize)> = (0..3).map(|r| (4 * r, 4 * r + 4)).collect();
    for r in 0..4 {
        tree.extend((0..3).map(|c| (4 * r + c, 4 * r + c + 1)));
    }
    assert_eq!(check_tree(16, &tree, is_edge), Ok(()));

    // Swap one comb tooth for the wrap-around edge of the first row:
    // still n - 1 graph edges, but the first row now closes a cycle.
    let mut cyclic = tree.clone();
    let last = cyclic.len() - 1;
    cyclic[last] = (0, 3);
    let err = check_tree(16, &cyclic, is_edge).unwrap_err();
    assert!(err.contains("cycle"), "{err}");

    assert!(
        check_tree(16, &tree[1..], is_edge).is_err(),
        "too few edges"
    );
    let mut foreign = tree.clone();
    foreign[0] = (0, 10);
    assert!(check_tree(16, &foreign, is_edge)
        .unwrap_err()
        .contains("not an edge"));
}

#[test]
fn service_check_rejects_a_dropped_completion() {
    let tickets: Vec<u64> = vec![3, 0, 2, 1];
    assert_eq!(check_service(5, &tickets, 1, true), Ok(()));
    // One completion dropped: four events accepted, three resolved.
    assert!(check_service(5, &tickets[1..], 1, true).is_err());
    // A ticket resolved twice in place of another.
    assert!(check_service(4, &[0, 1, 1, 3], 0, true)
        .unwrap_err()
        .contains("ticket 2"));
    // Bills that do not add up.
    assert!(check_service(4, &tickets, 0, false).is_err());
}
