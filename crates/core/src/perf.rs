//! Multi-trace aggregation and mechanism comparison (the machinery behind
//! Figure 11b's "performance gains" series).
//!
//! The unit of simulation is the [`Machine`], not the labelled
//! [`SimConfig`]: [`run_suite_batch`] folds the requested configurations
//! to their distinct machines ([`fold_machines`]), simulates each once,
//! and fans the results back out with every configuration's own cycle
//! time. Suites are embarrassingly parallel — every (machine, trace)
//! pair is an independent, deterministic simulation — so
//! [`run_batch_groups`] splits each trace's machines into contiguous
//! chunks, one per worker, and fans the chunks out over a
//! [`Parallelism`]-sized pool of scoped threads, each chunk replaying
//! its machines behind a single decode. Results are reassembled in suite
//! order, making the output byte-identical for any thread count
//! (including errors: the reported error is the first in suite order,
//! not the first in wall-clock order).

use std::borrow::Borrow;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use lowvcc_sram::{CycleTimeModel, Millivolts};
use lowvcc_trace::{Trace, TraceArena};

use crate::batch::{run_batch, EngineWorkspace};
use crate::config::{CoreConfig, Machine, SimConfig};
use crate::error::SimError;
use crate::stats::SimResult;

/// Worker-thread count for suite execution.
///
/// `Parallelism::sequential()` (the default) runs in the calling thread;
/// [`Parallelism::available`] sizes the pool to the machine. The output
/// of every suite API is identical for any value — parallelism here is
/// purely a wall-clock knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// Run in the calling thread, no workers.
    #[must_use]
    pub const fn sequential() -> Self {
        Self(NonZeroUsize::MIN)
    }

    /// Use exactly `threads` workers (clamped up to 1).
    #[must_use]
    pub fn threads(threads: usize) -> Self {
        Self(NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"))
    }

    /// One worker per available hardware thread (1 when the machine
    /// cannot report its parallelism).
    #[must_use]
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    #[must_use]
    pub fn count(self) -> usize {
        self.0.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Results of one configuration over a trace suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Per-trace results, in suite order.
    pub per_trace: Vec<(String, SimResult)>,
}

impl SuiteResult {
    /// Total simulated wall-clock time across the suite.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.per_trace.iter().map(|(_, r)| r.seconds()).sum()
    }

    /// Total committed instructions.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.per_trace
            .iter()
            .map(|(_, r)| r.stats.instructions)
            .sum()
    }

    /// Suite-aggregate IPC (instructions over cycles).
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        let cycles: u64 = self.per_trace.iter().map(|(_, r)| r.stats.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / cycles as f64
        }
    }

    /// Fraction of instructions delayed by RF IRAW avoidance across the
    /// suite (the paper's 13.2% statistic).
    #[must_use]
    pub fn delayed_instruction_fraction(&self) -> f64 {
        let delayed: u64 = self
            .per_trace
            .iter()
            .map(|(_, r)| r.stats.iraw_delayed_instructions)
            .sum();
        let total = self.total_instructions();
        if total == 0 {
            0.0
        } else {
            delayed as f64 / total as f64
        }
    }
}

/// Speedup of one suite run over another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    /// Ratio of total suite times (weighted by trace length).
    pub total_time: f64,
    /// Geometric mean of per-trace speedups.
    pub geomean: f64,
}

/// Runs `cfg` over every trace in the calling thread: a one-config
/// [`run_suite_batch`], for callers that measure a single design.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run_suite(cfg: &SimConfig, traces: &[Trace]) -> Result<SuiteResult, SimError> {
    let mut suites = run_suite_batch(std::slice::from_ref(cfg), traces, Parallelism::sequential())?;
    Ok(suites.pop().expect("one config in, one suite out"))
}

/// Configurations folded to the distinct machines they simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineFold {
    /// Per distinct machine, in first-seen order: the index of the first
    /// configuration that projects to it.
    pub distinct: Vec<usize>,
    /// Per configuration: the index of its machine in `distinct`.
    pub machine_of: Vec<usize>,
}

impl MachineFold {
    /// Fans one trace's per-machine results (in `distinct` order) back
    /// out to one result per configuration, each carrying that
    /// configuration's own cycle time.
    #[must_use]
    pub fn fan_out(&self, cfgs: &[SimConfig], per_machine: &[SimResult]) -> Vec<SimResult> {
        cfgs.iter()
            .zip(&self.machine_of)
            .map(|(cfg, &m)| SimResult {
                stats: per_machine[m].stats.clone(),
                cycle_time: cfg.cycle_time,
            })
            .collect()
    }
}

/// Folds `cfgs` to their distinct [`SimConfig::machine`]s in first-seen
/// order — the one fold the suite runner, the result cache and the run
/// accounting share. Configurations with equal machines differ only in
/// labels and clock, so one simulation serves them all.
#[must_use]
pub fn fold_machines(cfgs: &[SimConfig]) -> MachineFold {
    let mut machines: Vec<Machine> = Vec::new();
    let mut distinct = Vec::new();
    let machine_of = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let machine = cfg.machine();
            machines
                .iter()
                .position(|m| *m == machine)
                .unwrap_or_else(|| {
                    machines.push(machine);
                    distinct.push(i);
                    machines.len() - 1
                })
        })
        .collect();
    MachineFold {
        distinct,
        machine_of,
    }
}

/// Runs each group's configurations over its trace, decoding every trace
/// once per chunk and reusing one [`EngineWorkspace`] per worker — the
/// one suite runner every other entry point builds on.
///
/// `groups` pairs an index into `traces` with the configurations to run
/// on it. With `w > 1` workers, each group of ≥2 configurations is split
/// into `w` contiguous chunks (fewer if it is shorter), and the chunks
/// are scheduled chunk-major: every group's first chunk, then every
/// group's second, and so on. A decoded arena stays hot in cache across
/// a chunk's configurations, while the chunks keep every worker busy
/// until the end of the batch. With one worker each group runs whole, in
/// order, in the calling thread.
///
/// Results come back in group order, each `Vec` in config order.
/// Deterministic for any `par`, including which error is reported: the
/// lowest group index, then the lowest config index within it.
///
/// # Errors
///
/// Propagates the first (group-order, then config-order) error.
pub fn run_batch_groups<T: Borrow<Trace> + Sync>(
    groups: &[(usize, Vec<SimConfig>)],
    traces: &[T],
    par: Parallelism,
) -> Result<Vec<Vec<SimResult>>, SimError> {
    // Work items in (group, config) order; an item's index is its rank.
    let mut items: Vec<(usize, usize, Range<usize>)> = Vec::new();
    for (g, (_, cfgs)) in groups.iter().enumerate() {
        let chunks = par.count().min(cfgs.len()).max(1);
        let n = cfgs.len();
        items.extend((0..chunks).map(|c| (g, c, c * n / chunks..(c + 1) * n / chunks)));
    }
    let workers = par.count().min(items.len());
    if workers <= 1 {
        let mut ws = EngineWorkspace::new();
        let mut out = Vec::with_capacity(groups.len());
        for (ti, cfgs) in groups {
            let arena = TraceArena::from_trace(traces[*ti].borrow());
            out.push(run_batch(cfgs, &arena, &mut ws)?);
        }
        return Ok(out);
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&rank| items[rank].1);
    // Work-stealing over the chunk-major order: each worker claims the
    // next unclaimed item and tags its results with the item's rank, so
    // the merged output is reassembled in (group, config) order
    // regardless of completion order. `first_err` (the lowest failing
    // rank) lets workers skip items ranked *after* a known failure —
    // items ranked below it always complete, so the error choice stays
    // deterministic while the tail is cancelled.
    let next = AtomicUsize::new(0);
    let first_err = AtomicUsize::new(usize::MAX);
    let mut tagged: Vec<(usize, Result<Vec<SimResult>, SimError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = EngineWorkspace::new();
                    let mut out = Vec::new();
                    while let Some(&rank) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if rank > first_err.load(Ordering::Relaxed) {
                            continue;
                        }
                        let (g, _, range) = &items[rank];
                        let (ti, cfgs) = &groups[*g];
                        let arena = TraceArena::from_trace(traces[*ti].borrow());
                        let r = run_batch(&cfgs[range.clone()], &arena, &mut ws);
                        if r.is_err() {
                            first_err.fetch_min(rank, Ordering::Relaxed);
                        }
                        out.push((rank, r));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(rank, _)| rank);
    let mut out: Vec<Vec<SimResult>> = groups
        .iter()
        .map(|(_, cfgs)| Vec::with_capacity(cfgs.len()))
        .collect();
    for (rank, r) in tagged {
        out[items[rank].0].extend(r?);
    }
    Ok(out)
}

/// Runs every configuration over every trace, batched per trace. Every
/// configuration is validated first; the configurations are then folded
/// to their distinct machines ([`fold_machines`]), each machine replays
/// each trace once, and the results fan back out with every
/// configuration's own cycle time. Returns one [`SuiteResult`] per
/// configuration, in `cfgs` order — byte-identical to a fresh
/// [`Simulator`](crate::Simulator) per (config, trace) pair, for any
/// `par`.
///
/// # Errors
///
/// Propagates the first invalid configuration (in `cfgs` order), then
/// the first (trace-order, then machine-order) simulation error.
pub fn run_suite_batch<T: Borrow<Trace> + Sync>(
    cfgs: &[SimConfig],
    traces: &[T],
    par: Parallelism,
) -> Result<Vec<SuiteResult>, SimError> {
    for cfg in cfgs {
        cfg.validate()?;
    }
    let fold = fold_machines(cfgs);
    let machines: Vec<SimConfig> = fold.distinct.iter().map(|&i| cfgs[i].clone()).collect();
    let groups: Vec<(usize, Vec<SimConfig>)> =
        (0..traces.len()).map(|i| (i, machines.clone())).collect();
    let per_group = run_batch_groups(&groups, traces, par)?;
    let mut suites: Vec<SuiteResult> = cfgs
        .iter()
        .map(|_| SuiteResult {
            per_trace: Vec::with_capacity(traces.len()),
        })
        .collect();
    for (ti, results) in per_group.into_iter().enumerate() {
        let name = &traces[ti].borrow().name;
        for (suite, r) in suites.iter_mut().zip(fold.fan_out(cfgs, &results)) {
            suite.per_trace.push((name.clone(), r));
        }
    }
    Ok(suites)
}

/// Computes the speedup of `new` over `baseline` (paired by suite order).
///
/// # Panics
///
/// Panics if the two suites ran different trace counts.
#[must_use]
pub fn speedup(new: &SuiteResult, baseline: &SuiteResult) -> Speedup {
    assert_eq!(
        new.per_trace.len(),
        baseline.per_trace.len(),
        "suites must pair one-to-one"
    );
    let total_time = baseline.total_seconds() / new.total_seconds();
    let log_sum: f64 = new
        .per_trace
        .iter()
        .zip(&baseline.per_trace)
        .map(|((_, a), (_, b))| (b.seconds() / a.seconds()).ln())
        .sum();
    Speedup {
        total_time,
        geomean: (log_sum / new.per_trace.len() as f64).exp(),
    }
}

/// Baseline-vs-IRAW comparison at one supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismComparison {
    /// Supply voltage.
    pub vcc: Millivolts,
    /// Write-limited baseline results.
    pub baseline: SuiteResult,
    /// IRAW-avoidance results.
    pub iraw: SuiteResult,
    /// Clock-frequency gain of IRAW at this voltage.
    pub frequency_gain: f64,
    /// Measured performance speedup.
    pub speedup: Speedup,
}

/// Runs both mechanisms over the suite at `vcc` in the calling thread.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn compare_mechanisms(
    core: CoreConfig,
    timing: &CycleTimeModel,
    vcc: Millivolts,
    traces: &[Trace],
) -> Result<MechanismComparison, SimError> {
    let (base_cfg, iraw_cfg) = SimConfig::mechanism_pair(core, timing, vcc);
    let mut suites = run_suite_batch(&[base_cfg, iraw_cfg], traces, Parallelism::sequential())?;
    let iraw = suites.pop().expect("two configs in, two suites out");
    let baseline = suites.pop().expect("two configs in, two suites out");
    let speedup = speedup(&iraw, &baseline);
    Ok(MechanismComparison {
        vcc,
        baseline,
        iraw,
        frequency_gain: timing.frequency_gain(vcc),
        speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanism;
    use crate::error::ConfigError;
    use crate::sim::Simulator;
    use lowvcc_sram::voltage::mv;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn small_suite() -> Vec<Trace> {
        [
            (WorkloadFamily::SpecInt, 0u64),
            (WorkloadFamily::SpecFp, 1),
            (WorkloadFamily::Multimedia, 2),
        ]
        .iter()
        .map(|&(f, s)| TraceSpec::new(f, s, 20_000).build().unwrap())
        .collect()
    }

    #[test]
    fn suite_totals_add_up() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(550),
            Mechanism::Baseline,
        );
        let suite = run_suite(&cfg, &small_suite()).unwrap();
        assert_eq!(suite.per_trace.len(), 3);
        assert_eq!(suite.total_instructions(), 60_000);
        assert!(suite.total_seconds() > 0.0);
        assert!(suite.aggregate_ipc() > 0.0);
    }

    #[test]
    fn iraw_beats_baseline_at_low_vcc() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cmp = compare_mechanisms(CoreConfig::silverthorne(), &timing, mv(500), &small_suite())
            .unwrap();
        // The paper's central claim, in miniature: substantial speedup,
        // below the raw frequency gain (stalls + constant-time memory).
        assert!(
            cmp.speedup.total_time > 1.2,
            "speedup {:.3} too small",
            cmp.speedup.total_time
        );
        assert!(
            cmp.speedup.total_time <= cmp.frequency_gain + 0.05,
            "speedup {:.3} cannot exceed frequency gain {:.3}",
            cmp.speedup.total_time,
            cmp.frequency_gain
        );
        assert!(cmp.iraw.delayed_instruction_fraction() > 0.0);
        assert_eq!(cmp.baseline.delayed_instruction_fraction(), 0.0);
    }

    #[test]
    fn geomean_close_to_total_time_for_equal_length_traces() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cmp = compare_mechanisms(CoreConfig::silverthorne(), &timing, mv(475), &small_suite())
            .unwrap();
        let diff = (cmp.speedup.total_time - cmp.speedup.geomean).abs();
        assert!(
            diff < 0.3,
            "aggregates should roughly agree, diff {diff:.3}"
        );
    }

    #[test]
    fn parallel_suite_is_byte_identical_to_sequential() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Iraw,
        );
        let traces = small_suite();
        let cfgs = [cfg];
        let sequential = run_suite_batch(&cfgs, &traces, Parallelism::sequential()).unwrap();
        for workers in [2, 3, 8] {
            let parallel = run_suite_batch(&cfgs, &traces, Parallelism::threads(workers)).unwrap();
            assert_eq!(sequential, parallel, "{workers} workers");
        }
    }

    #[test]
    fn batched_suite_is_byte_identical_to_per_point() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        let cfgs: Vec<SimConfig> = [475u32, 500, 550]
            .iter()
            .flat_map(|&vcc| {
                let (base, iraw) = SimConfig::mechanism_pair(core, &timing, mv(vcc));
                [base, iraw]
            })
            .collect();
        let traces = small_suite();
        // Strictly per point: a fresh simulator per (config, trace).
        let per_point: Vec<SuiteResult> = cfgs
            .iter()
            .map(|cfg| {
                let sim = Simulator::new(cfg.clone()).unwrap();
                SuiteResult {
                    per_trace: traces
                        .iter()
                        .map(|t| (t.name.clone(), sim.run(t).unwrap()))
                        .collect(),
                }
            })
            .collect();
        for workers in [1, 2, 5] {
            let batched = run_suite_batch(&cfgs, &traces, Parallelism::threads(workers)).unwrap();
            assert_eq!(per_point, batched, "{workers} workers");
        }
    }

    #[test]
    fn batch_groups_report_lowest_index_error() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let good = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        let mut bad = good.clone();
        bad.core.iq_entries = 33;
        let traces = small_suite();
        let groups = vec![
            (0usize, vec![good.clone()]),
            (1, vec![bad.clone(), good.clone()]),
            (2, vec![bad]),
        ];
        for workers in [1, 3] {
            let err = run_batch_groups(&groups, &traces, Parallelism::threads(workers))
                .expect_err("invalid config must surface");
            assert!(
                matches!(err, SimError::Config(_)),
                "unexpected error {err:?} at {workers} workers"
            );
        }
    }

    #[test]
    fn folded_machines_run_once_and_keep_their_own_clock() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let core = CoreConfig::silverthorne();
        // At 650 mV IRAW has N = 0 and the baseline's memory latency in
        // cycles: one machine under two labels. At 500 mV they differ.
        let (base650, iraw650) = SimConfig::mechanism_pair(core, &timing, mv(650));
        let (base500, iraw500) = SimConfig::mechanism_pair(core, &timing, mv(500));
        let cfgs = vec![base650, iraw650, base500.clone(), iraw500, base500];
        let fold = fold_machines(&cfgs);
        assert_eq!(fold.distinct, vec![0, 2, 3]);
        assert_eq!(fold.machine_of, vec![0, 0, 1, 2, 1]);

        let traces = small_suite();
        for workers in [1, 2, 5] {
            let batched = run_suite_batch(&cfgs, &traces, Parallelism::threads(workers)).unwrap();
            for (cfg, suite) in cfgs.iter().zip(&batched) {
                let sim = Simulator::new(cfg.clone()).unwrap();
                for (t, (_, r)) in traces.iter().zip(&suite.per_trace) {
                    assert_eq!(*r, sim.run(t).unwrap(), "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn chunked_groups_report_lowest_group_then_config_error() {
        let timing = CycleTimeModel::silverthorne_45nm();
        let good = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        let bad = |entries| {
            let mut cfg = good.clone();
            cfg.core.iq_entries = entries;
            cfg
        };
        let traces = small_suite();
        // Chunk-major scheduling reaches group 2's first chunk before
        // group 0's last one; the report must still be group 0's error.
        let groups = vec![
            (
                0usize,
                vec![good.clone(), good.clone(), good.clone(), bad(33)],
            ),
            (1, vec![good.clone(), good.clone()]),
            (2, vec![bad(65), good.clone(), good.clone()]),
        ];
        for workers in [1, 2, 3, 8] {
            let err = run_batch_groups(&groups, &traces, Parallelism::threads(workers))
                .expect_err("invalid config must surface");
            assert!(
                matches!(
                    err,
                    SimError::Config(ConfigError::IqNotPowerOfTwo { entries: 33 })
                ),
                "unexpected error {err:?} at {workers} workers"
            );
        }
    }

    #[test]
    fn parallelism_counts() {
        assert_eq!(Parallelism::sequential().count(), 1);
        assert_eq!(Parallelism::threads(0).count(), 1, "clamped");
        assert_eq!(Parallelism::threads(6).count(), 6);
        assert!(Parallelism::available().count() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::sequential());
    }

    #[test]
    #[should_panic(expected = "one-to-one")]
    fn mismatched_suites_rejected() {
        let a = SuiteResult { per_trace: vec![] };
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(500),
            Mechanism::Baseline,
        );
        let b = run_suite(&cfg, &small_suite()).unwrap();
        let _ = speedup(&a, &b);
    }
}
