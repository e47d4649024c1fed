//! `compare A.json B.json`: the regression gate over two combined
//! records of `run`.

use crate::metrics::END_TO_END;
use crate::workloads::Workload;
use serde::Value;

/// How one metric moved between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Worse,
    /// Better by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Moved by more than the bound, but one side's own pass-to-pass
    /// spread is wider than the bound, so the move may be noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a "lower is better" metric that read `a` (with pass spread
/// `spread_a`) in the baseline and `b` in the candidate.
pub fn judge(a: f64, b: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    let delta = (b - a) / a;
    if delta.abs() <= bound {
        Verdict::Same
    } else if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if delta > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

fn digest<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    doc.get("workloads")?.get(workload)?.get("digest")
}

/// Prints the comparison table and returns whether the candidate `b`
/// passes: nothing `worse`, no digest changed, no correctness failure,
/// and `cold_dense` = `cold_dense_par` on both sides.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut pass = true;
    println!("workload metric unit baseline candidate delta_pct bound_pct verdict");
    for w in Workload::ALL {
        let name = w.name();
        let record = |doc: &Value| doc.get("workloads")?.get(name).cloned();
        let (Some(ra), Some(rb)) = (record(a), record(b)) else {
            println!("{name} - - - - - - missing");
            pass = false;
            continue;
        };
        for m in END_TO_END {
            // `(value, pass-to-pass spread)` of this metric in a record.
            let cell = |r: &Value| {
                let c = r.get("end_to_end")?.get(m.name)?;
                Some((
                    number(c.get("value"))?,
                    number(c.get("spread")).unwrap_or(0.0),
                ))
            };
            let (Some((va, sa)), Some((vb, sb))) = (cell(&ra), cell(&rb)) else {
                println!("{name} {} {} - - - - missing", m.name, m.unit);
                pass = false;
                continue;
            };
            let verdict = judge(va, vb, sa, sb, m.bound);
            println!(
                "{name} {} {} {va} {vb} {:+.2} {:.0} {}",
                m.name,
                m.unit,
                100.0 * (vb - va) / va,
                100.0 * m.bound,
                verdict.as_str()
            );
            pass &= verdict != Verdict::Worse;
        }
        if ra.get("digest") != rb.get("digest") {
            println!("{name} digest changed");
            pass = false;
        }
        for (side, r) in [("baseline", &ra), ("candidate", &rb)] {
            if r.get("correct") != Some(&Value::Bool(true)) {
                println!("{name} {side} failed its correctness checks");
                pass = false;
            }
        }
    }
    for (side, doc) in [("baseline", a), ("candidate", b)] {
        if digest(doc, "cold_dense") != digest(doc, "cold_dense_par") {
            println!("{side}: cold_dense and cold_dense_par digests differ");
            pass = false;
        }
    }
    pass
}
