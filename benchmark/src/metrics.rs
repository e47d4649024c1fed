//! The metric dictionary: every name the harness may print, with its
//! unit and direction, plus the small statistics the harness reports
//! them with. `BENCHMARK.json` at the repository root lists exactly
//! these tables (a self-test compares the two).

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported by every workload, never zero.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Final metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// The end-to-end metrics, all "lower is better".
///
/// A bound applies to every workload, so the noisiest workload sizes
/// it: at least three times the widest interquartile spread seen over
/// ten seeds (README, "Measured spread"). The timings carry the largest
/// bound the contract allows because the shared box slows everything by
/// 20-40 % for a minute at a time, whatever the harness does.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "rounds",
        unit: "rounds",
        bound: 0.12,
    },
    EndToEnd {
        name: "op_rounds_p50",
        unit: "rounds",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_rounds_p90",
        unit: "rounds",
        bound: 0.12,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
];

/// One per-layer metric (no bound: these explain moves, they do not
/// gate them).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<module>.<quantity>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer ledger, in the order of the README's interaction
/// table. A workload that does not exercise a layer (or whose kept
/// API surface exposes no counter for it) reports 0 for that row.
pub const PER_LAYER: &[PerLayer] = &[
    lo("graph.generators.build_s", "s"),
    lo("graph.generators.ns_per_edge", "ns"),
    lo("graph.topology.apply_us_p50", "us"),
    lo("congest.engine.messages", "msgs"),
    lo("congest.engine.ns_per_msg", "ns"),
    lo("congest.engine.us_per_round", "us"),
    hi("congest.engine.msgs_per_round", "msgs"),
    lo("congest.engine.allocs_per_round", "count"),
    lo("congest.engine.alloc_bytes_per_op", "B"),
    hi("congest.engine.par_speedup", "x"),
    lo("congest.primitives.bfs_s", "s"),
    lo("congest.primitives.bfs_rounds", "rounds"),
    lo("core.session.open_s", "s"),
    lo("core.short_walks.phase1_s", "s"),
    lo("core.short_walks.phase1_rounds", "rounds"),
    lo("core.short_walks.phase1_msgs", "msgs"),
    lo("core.short_walks.walks_added", "count"),
    lo("core.short_walks.ns_per_token_step", "ns"),
    lo("core.short_walks.round_share", "ratio"),
    lo("core.stitch.round_share", "ratio"),
    lo("core.tail.round_share", "ratio"),
    lo("core.stitch.warm_walk_ms_p50", "ms"),
    lo("core.stitch.us_per_round", "us"),
    lo("core.stitch.rounds_per_stitch", "rounds"),
    lo("core.stitch.msgs_per_stitch", "msgs"),
    lo("core.stitch.gmw_per_stitch", "ratio"),
    lo("core.rounds_over_sqrt_ld", "ratio"),
    lo("core.session.topups", "count"),
    lo("core.session.topup_round_share", "ratio"),
    lo("core.session.walks_discarded", "count"),
    lo("core.session.sync_ms_p50", "ms"),
    lo("core.session.repairs", "count"),
    lo("core.session.repair_bfs_reruns", "count"),
    lo("core.session.walks_evicted", "count"),
    lo("core.state.bytes_per_node", "B"),
    lo("core.state.forward_bytes", "B"),
    lo("core.network.batch8_rounds_per_walk", "rounds"),
    lo("core.network.batch8_ms_per_walk", "ms"),
    lo("core.service.waves", "count"),
    lo("core.service.us_per_wave", "us"),
    hi("core.service.rounds_per_wave", "rounds"),
    lo("core.service.us_per_round", "us"),
    lo("core.service.setup_rounds", "rounds"),
    lo("core.service.churn_rounds", "rounds"),
    lo("core.service.rejected", "count"),
    lo("core.service.admission_wait_rounds_p50", "rounds"),
    hi("core.service.late_turnaround_ratio", "x"),
    lo("core.service.wall_per_event_growth", "x"),
    lo("core.service.churn_wall_share", "ratio"),
    lo("spanning.rounds_per_tree", "rounds"),
    lo("spanning.phases_per_tree", "count"),
    lo("spanning.cover_len_per_tree", "steps"),
    lo("spanning.bfs_runs_per_tree", "count"),
    lo("spanning.rounds_over_sqrt_m_d", "ratio"),
    lo("mixing.probe_ms_p50", "ms"),
    lo("mixing.rounds_per_probe", "rounds"),
    lo("trace.overhead_pct", "%"),
];

/// Per-layer values collected during a traced run, keyed by metric
/// name. Rows never set stay absent and print as 0.
#[derive(Debug, Default, Clone)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a [`PER_LAYER`] row — a typo would
    /// otherwise vanish silently from the ledger.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Records `name = num / den` unless `den` is zero (the layer was
    /// not exercised, so there is no ratio to report).
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if den != 0.0 {
            self.set(name, num / den);
        }
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` of `values`: the pass-to-pass spread
/// `compare` uses to tell a real move from noise.
pub fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let m = median(values);
    if m > 0.0 {
        (hi - lo) / m
    } else {
        0.0
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of exact counts.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
