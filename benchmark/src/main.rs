//! `drw-benchmark run [--workload W] [--seed S] [--seconds T]
//! [--trace [0|1]] [--quick] [--out F]` and `drw-benchmark compare
//! A.json B.json`. Exits non-zero when a correctness check fails or
//! `compare` finds a regression.

use drw_benchmark::compare::compare;
use drw_benchmark::run::{read_json, run, RunOpts};
use drw_benchmark::trace::CountingAlloc;
use drw_benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: drw-benchmark run [--workload W] [--seed S] [--seconds T] \
                     [--trace [0|1]] [--quick] [--out F]\n       \
                     drw-benchmark compare A.json B.json";

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: None,
        seed: 11,
        seconds: 12.0,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?;
                opts.workload = Some(w);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds: {s} is out of range"));
                }
                opts.seconds = s;
            }
            "--out" => opts.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => opts.quick = true,
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|opts| run(&opts)),
        Some((cmd, [a, b])) if cmd == "compare" => {
            read_json(Path::new(a)).and_then(|a| Ok(compare(&a, &read_json(Path::new(b))?)))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
