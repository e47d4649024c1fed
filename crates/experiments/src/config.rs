//! Run-time configuration of the experiment binaries via environment
//! variables.
//!
//! - `DRW_EXECUTOR=sequential|sharded` selects the engine's backend for
//!   every simulation an experiment runs: receive handlers of node-local
//!   protocols in node order on one thread, or sharded across threads.
//!   Results are bit-identical between the two (the engine guarantees
//!   it); the backend only changes how long the wall clock says it took.
//! - `DRW_CSV_DIR=<dir>` additionally writes every emitted table as CSV.
//! - `DRW_JSON_DIR=<dir>` additionally writes every emitted table as
//!   JSON (machine-readable, schema: `{title, headers, rows}`).
//! - `DRW_FAULTS=smoke|<per-mille>|off` runs every env-configured
//!   simulation over a lossy (ARQ-healed) transport: `smoke` is the CI
//!   leg (1% drops plus light delay/reorder), a number is a plain drop
//!   rate in per-mille. Healed faults change round counts, never
//!   results, so the statistical and invariant suites must pass
//!   unchanged under this variable — that is the point of the CI leg.

use drw_congest::{EngineConfig, ExecutorKind, FaultPlan};
use drw_core::SingleWalkConfig;

/// The executor backend selected by `DRW_EXECUTOR` (default:
/// sequential). Unknown values abort loudly rather than silently
/// running the wrong experiment.
pub fn executor_from_env() -> ExecutorKind {
    match std::env::var("DRW_EXECUTOR") {
        Ok(name) => ExecutorKind::from_name(&name).unwrap_or_else(|| {
            panic!("DRW_EXECUTOR={name:?} is not a backend (try \"sequential\" or \"sharded\")")
        }),
        Err(_) => ExecutorKind::Sequential,
    }
}

/// The fault plan selected by `DRW_FAULTS` (default: none). `smoke`
/// is the CI coverage plan — all three fault kinds active at rates low
/// enough that every suite's statistical bars still hold; a bare
/// number is a drop rate in per-mille. Unknown values abort loudly.
pub fn faults_from_env() -> Option<FaultPlan> {
    let v = std::env::var("DRW_FAULTS").ok()?;
    match v.as_str() {
        "" | "off" => None,
        "smoke" => Some(
            FaultPlan::drops(0xFA, 10)
                .with_delays(5, 2)
                .with_reorder(10),
        ),
        _ => {
            let pm: u16 = v.parse().unwrap_or_else(|_| {
                panic!("DRW_FAULTS={v:?} is not a plan (try \"smoke\", \"off\" or a per-mille drop rate)")
            });
            (pm > 0).then(|| FaultPlan::drops(0xFA, pm))
        }
    }
}

/// The default engine configuration with the environment-selected
/// executor (and fault plan, if any) applied.
pub fn engine_config_from_env() -> EngineConfig {
    let cfg = EngineConfig::default().with_executor(executor_from_env());
    match faults_from_env() {
        Some(plan) => cfg.with_faults(plan),
        None => cfg,
    }
}

/// The default walk configuration with the environment-selected
/// executor applied.
pub fn walk_config_from_env() -> SingleWalkConfig {
    SingleWalkConfig {
        engine: engine_config_from_env(),
        ..SingleWalkConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_sequential_without_env() {
        // Tests must not set the variable process-wide; assert on the
        // parser instead.
        assert_eq!(
            ExecutorKind::from_name("sequential"),
            Some(ExecutorKind::Sequential)
        );
        assert_eq!(
            ExecutorKind::from_name("SHARDED"),
            Some(ExecutorKind::Sharded)
        );
        // Anything else is unknown, and unknown is loud.
        assert_eq!(ExecutorKind::from_name("parallel"), None);
        assert_eq!(ExecutorKind::from_name("par"), None);
        assert_eq!(ExecutorKind::from_name("gpu"), None);
    }

    #[test]
    fn walk_config_carries_the_executor() {
        let cfg = walk_config_from_env();
        assert_eq!(cfg.engine.executor, executor_from_env());
        assert_eq!(cfg.engine.faults, faults_from_env());
    }

    #[test]
    fn smoke_fault_plan_is_healed_and_active() {
        // The CI leg's plan: all three fault kinds on, ARQ healing on,
        // so results stay correct and only round counts move.
        let plan = FaultPlan::drops(0xFA, 10)
            .with_delays(5, 2)
            .with_reorder(10);
        assert!(plan.is_active());
        assert!(plan.heal);
    }
}
