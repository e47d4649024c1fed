//! Running workloads: the pass loop of one workload, the traced run,
//! and the all-workloads driver that gives every workload its own
//! process.

use crate::metrics::{median, percentile, spread, Layer, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{par_workers, run_pass, side_probes, Inputs, Pass, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Schema tag of the files this harness writes.
pub const SCHEMA: &str = "drw-benchmark-v1";

/// Options of `run`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// One workload, or all six (each in a child process).
    pub workload: Option<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// How long the pass loop measures, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer ledger instead of end-to-end metrics.
    pub trace: bool,
    /// Smoke sizes, one pass.
    pub quick: bool,
    /// Where the record goes; `trace_<workload>.json` lands beside it.
    pub out: Option<PathBuf>,
}

/// The default output directory: `benchmark/out/`.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `w` until `budget` seconds have passed and at least
/// `min_passes` passes are done.
fn pass_loop(
    w: Workload,
    inp: &Inputs,
    start: Instant,
    budget: f64,
    min_passes: usize,
) -> Vec<Pass> {
    let mut tr = Tracer::off();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < budget {
        passes.push(run_pass(w, inp, &mut tr));
    }
    passes
}

/// Everything that must repeat bit for bit between two passes.
fn identity(p: &Pass) -> (u64, Option<u64>, u64, &[u64]) {
    (p.rounds, p.messages, p.digest, &p.op_rounds)
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order, each with
/// its pass-to-pass spread.
///
/// Every timing is read off the *best pass*, taken op by op. The passes
/// execute identical work and a stall can only add time, so the fastest
/// execution of each op is the most repeatable estimate of what the
/// code costs; on the shared two-core box this halves the run-to-run
/// spread of a median pass (README, "Measured spread"). The per-pass
/// values' own spread is kept beside each timing: it tells `compare`
/// how noisy the run was.
fn end_to_end_values(passes: &[Pass], walls: &[f64]) -> Result<Vec<(f64, f64)>, String> {
    let first = &passes[0];
    let best_ops: Vec<f64> = (0..first.op_ms.len())
        .map(|k| {
            passes
                .iter()
                .filter_map(|p| p.op_ms.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    if first.op_rounds.is_empty() || best_ops.is_empty() {
        return Err("no op completed".into());
    }
    let peak_rss = peak_rss_mib().ok_or("VmHWM is unavailable: no /proc/self/status")?;
    let setups: Vec<f64> = passes.iter().map(|p| median(&p.setup_s)).collect();
    let op_medians: Vec<f64> = passes
        .iter()
        .filter(|p| !p.op_ms.is_empty())
        .map(|p| median(&p.op_ms))
        .collect();
    Ok(vec![
        (
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            spread(&setups),
        ),
        (best_ops.iter().sum::<f64>() / 1e3, spread(walls)),
        (
            median(&best_ops) / first.requests_per_call as f64,
            spread(&op_medians),
        ),
        (first.rounds as f64, 0.0),
        (percentile(&first.op_rounds, 0.5) as f64, 0.0),
        (percentile(&first.op_rounds, 0.9) as f64, 0.0),
        (peak_rss, 0.0),
    ])
}

/// Runs one workload in this process and returns its record. The last
/// line printed is the driver's JSON object.
pub fn run_workload(w: Workload, opts: &RunOpts) -> Value {
    let start = Instant::now();
    let inp = Inputs::new(w, opts.seed, opts.quick);
    let mut errors: Vec<String> = Vec::new();

    // `cold_dense_par` must reproduce the sequential backend bit for
    // bit, so one sequential pass of the same ops is its reference.
    let reference = (w == Workload::ColdDensePar)
        .then(|| run_pass(Workload::ColdDense, &inp.sequential(), &mut Tracer::off()));

    let (budget, min_passes) = match (opts.quick, opts.trace) {
        (true, _) => (0.0, 1),
        // The traced pass and the side probes take the other half.
        (false, true) => (opts.seconds / 2.0, 2),
        (false, false) => (opts.seconds, 3),
    };
    let passes = pass_loop(w, &inp, start, budget, min_passes);
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate() {
        errors.extend(p.errors.iter().map(|e| format!("pass {i}: {e}")));
        if identity(p) != identity(first) {
            errors.push(format!(
                "pass {i} differs from pass 0 in rounds, messages or digest"
            ));
        }
    }
    if let Some(r) = &reference {
        errors.extend(r.errors.iter().map(|e| format!("reference: {e}")));
        if identity(r) != identity(first) {
            errors.push("parallel backend differs from the sequential reference".into());
        }
    }
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let values = end_to_end_values(&passes, &walls).unwrap_or_else(|why| {
        errors.push(why);
        Vec::new()
    });
    let end_to_end: Vec<(String, Value)> = END_TO_END
        .iter()
        .zip(&values)
        .map(|(m, &(value, spread))| {
            let cell = obj(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(m.unit.into())),
                ("spread", Value::Float(spread)),
            ]);
            (m.name.to_string(), cell)
        })
        .collect();

    let mut per_layer: Vec<(String, Value)> = Vec::new();
    if opts.trace && errors.is_empty() {
        let mut tr = Tracer::on();
        let traced = run_pass(w, &inp, &mut tr);
        attempted += traced.attempted;
        failed += traced.failed;
        errors.extend(traced.errors.iter().map(|e| format!("traced pass: {e}")));
        if identity(&traced) != identity(first) {
            errors.push("traced pass differs from pass 0 in rounds, messages or digest".into());
        }

        let mut layer: Layer = traced.layer.clone();
        let (allocs, alloc_bytes) = tr.ops_allocs;
        layer.set_ratio(
            "congest.engine.allocs_per_round",
            allocs as f64,
            traced.rounds as f64,
        );
        layer.set_ratio(
            "congest.engine.alloc_bytes_per_op",
            alloc_bytes as f64,
            traced.op_rounds.len() as f64,
        );
        // One pass against one pass: the reference and the traced pass
        // are single executions, so they are set against the median
        // untraced pass, not the best one.
        let typical = median(&walls);
        if let Some(r) = &reference {
            layer.set_ratio("congest.engine.par_speedup", r.wall_s, typical);
        }
        layer.set_ratio(
            "trace.overhead_pct",
            100.0 * (traced.wall_s - typical),
            typical,
        );
        side_probes(w, &inp, &mut layer, &mut tr);

        per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let value = layer.get(m.name).unwrap_or(0.0);
                (m.name.to_string(), metric(value, m.unit))
            })
            .collect();
        let mut trace_doc = vec![
            ("schema".to_string(), Value::Str(SCHEMA.into())),
            ("workload".to_string(), Value::Str(w.name().into())),
            ("seed".to_string(), Value::UInt(opts.seed)),
            ("per_layer".to_string(), Value::Object(per_layer.clone())),
        ];
        if let Value::Object(fields) = tr.to_value() {
            trace_doc.extend(fields);
        }
        let trace_file = out_dir(opts).join(format!("trace_{}.json", w.name()));
        if let Err(e) = write_json(&trace_file, &Value::Object(trace_doc)) {
            errors.push(e);
        }
    }

    let correct = errors.is_empty();
    let record = obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::UInt(opts.seed)),
        ("quick", Value::Bool(opts.quick)),
        ("passes", Value::UInt(passes.len() as u64)),
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
        ),
        (
            "workers",
            Value::UInt(if w == Workload::ColdDensePar {
                par_workers() as u64
            } else {
                1
            }),
        ),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("digest", Value::Str(format!("{:016x}", first.digest))),
        ("messages", first.messages.map_or(Value::Null, Value::UInt)),
        (
            "pass_wall_s",
            Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()),
        ),
        ("end_to_end", Value::Object(end_to_end.clone())),
        ("per_layer", Value::Object(per_layer.clone())),
    ]);

    println!(
        "# {} seed {} passes {} ops/pass {}",
        w.name(),
        opts.seed,
        passes.len(),
        first.attempted
    );
    for e in &errors {
        println!("# FAILED {e}");
    }
    for (name, v) in end_to_end.iter().chain(&per_layer) {
        if let (Some(Value::Str(unit)), Some(Value::Float(x))) = (v.get("unit"), v.get("value")) {
            println!("{name} {unit} {x}");
        }
    }
    println!("digest hex {:016x}", first.digest);
    println!("ops count {attempted}");
    println!("ops_failed count {failed}");

    // The driver's object: end-to-end metrics, or the ledger when
    // traced; `spread` is ours, not the driver's.
    let reported = if opts.trace { per_layer } else { end_to_end };
    let metrics = reported
        .into_iter()
        .map(|(name, v)| {
            let fields = ["value", "unit"]
                .into_iter()
                .filter_map(|k| v.get(k).map(|x| (k.to_string(), x.clone())))
                .collect();
            (name, Value::Object(fields))
        })
        .collect();
    let last_line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted.max(1))),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&last_line).expect("values render")
    );
    record
}

fn out_dir(opts: &RunOpts) -> PathBuf {
    opts.out
        .as_deref()
        .and_then(Path::parent)
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(default_out_dir, Path::to_path_buf)
}

/// Writes `value` as pretty JSON, creating the directory.
///
/// # Errors
///
/// A message naming the path and the I/O error.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("values render");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a JSON file.
///
/// # Errors
///
/// A message naming the path and what went wrong.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run`: one workload in this process, or all six, each in a child
/// process of its own so that `peak_rss_mb` is per workload. Returns
/// whether every correctness check held.
///
/// # Errors
///
/// I/O failures writing the record or spawning a child.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    if let Some(w) = opts.workload {
        let record = run_workload(w, opts);
        let path = opts
            .out
            .clone()
            .unwrap_or_else(|| default_out_dir().join(format!("{}.json", w.name())));
        write_json(&path, &record)?;
        return Ok(record.get("correct") == Some(&Value::Bool(true)));
    }

    let combined = opts
        .out
        .clone()
        .unwrap_or_else(|| default_out_dir().join("run.json"));
    let dir = out_dir(opts);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let path = dir.join(format!("{}.json", w.name()));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&path);
        if opts.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        ok &= status.success();
        records.push((w.name().to_string(), read_json(&path)?));
    }

    let digest = |name: &str| {
        records
            .iter()
            .find(|(w, _)| w == name)
            .and_then(|(_, r)| r.get("digest").cloned())
    };
    if digest("cold_dense") != digest("cold_dense_par") {
        println!("# FAILED cold_dense and cold_dense_par digests differ");
        ok = false;
    }
    let wall = |name: &str| {
        records
            .iter()
            .find(|(w, _)| w == name)
            .and_then(|(_, r)| r.get("end_to_end")?.get("wall_s")?.get("value").cloned())
    };
    let mut derived = Vec::new();
    if let (Some(Value::Float(seq)), Some(Value::Float(par))) =
        (wall("cold_dense"), wall("cold_dense_par"))
    {
        println!("# congest.engine.par_speedup x {}", seq / par);
        derived.push(("congest.engine.par_speedup", metric(seq / par, "x")));
    }
    let doc = obj(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("seed", Value::UInt(opts.seed)),
        ("quick", Value::Bool(opts.quick)),
        ("trace", Value::Bool(opts.trace)),
        ("derived", obj(derived)),
        ("workloads", Value::Object(records)),
    ]);
    write_json(&combined, &doc)?;
    println!("# wrote {}", combined.display());
    Ok(ok)
}
