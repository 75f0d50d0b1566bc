//! The experiment implementations, one module per paper artefact.
//!
//! Every simulating experiment exposes its configurations and a pure
//! assembly from [`SuiteResult`](lowvcc_core::SuiteResult)s: the sweep
//! ([`sweep::configs`], [`sweep::points_from`]), Table 1
//! (`technique_configs`, `rows_from_results`) and the §5.2 stall study
//! ([`stalls::configs`], [`stalls::report_from`]). [`measure_all`] plans
//! all three as **one** batch: 34 configurations that fold to 25
//! distinct machines, each simulated once, balanced across the workers
//! with no barrier between experiments. [`run_all`] and the daemon's
//! warm-up both go through it; the per-experiment entry points
//! (`run_sweep`, `table1::quantitative`, `stalls::table`) stay as thin
//! config → batch → assemble wrappers for single queries.
//!
//! [`RunSummary`] accounts for engine work honestly: `sweep_uops` counts
//! the uops of the (machine, trace) runs the engine actually made, not
//! the committed instructions of every requested configuration.

#![deny(clippy::disallowed_types)]

pub mod fig1;
pub mod fig11a;
pub mod fig11b;
pub mod fig12;
pub mod scalars;
pub mod stalls;
pub mod sweep;
pub mod table1;

use std::path::Path;
use std::time::{Duration, Instant};

use lowvcc_baselines::{rows_from_results, technique_configs, QuantRow};
use lowvcc_core::fold_machines;

use crate::context::ExperimentContext;
use crate::error::ExperimentError;
use crate::report::TextTable;

/// Re-exported for Figure 11b / Figure 12 consumers.
pub use sweep::{point, point_from, point_json, run_sweep, SweepPoint};

fn save(table: &TextTable, path: &Path) -> Result<(), ExperimentError> {
    table.write_csv(path).map_err(ExperimentError::io_at(path))
}

/// Everything `run_all` produced: the rendered report plus the raw sweep
/// measurements and the engine work behind them, for machine-readable
/// emission.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The combined human-readable report.
    pub report: String,
    /// The baseline-vs-IRAW sweep behind Figures 11b/12.
    pub sweep: Vec<SweepPoint>,
    /// Wall-clock time of the one planned batch ([`measure_all`]: the
    /// sweep, Table 1 and the §5.2 study).
    pub sweep_elapsed: Duration,
    /// Dynamic uops the *engine actually simulated* during that batch —
    /// distinct machines × suite uops, the numerator of the throughput
    /// figure. Configurations folded into a shared machine and cache
    /// hits contribute nothing: a fully warm cached run reports 0, not a
    /// fictitious engine throughput.
    pub sweep_uops: u64,
    /// (configuration, trace) runs the batch requested.
    pub requested_runs: usize,
    /// Requested runs folded into another configuration's machine.
    pub folded_runs: usize,
    /// (machine, trace) runs the engine actually made: the unfolded
    /// runs, less cache hits.
    pub engine_runs: u64,
}

impl RunSummary {
    /// Simulated uops per wall-clock second over the planned batch, as
    /// printed by the `experiments` binary and written to its `--json`
    /// document. Zero-duration batches (an empty suite, a fully-cached
    /// warm run on a coarse clock) yield `0.0`, never `inf`/`NaN` — the
    /// JSON writer would otherwise have nothing valid to emit.
    #[must_use]
    pub fn uops_per_second(&self) -> f64 {
        let secs = self.sweep_elapsed.as_secs_f64();
        if secs > 0.0 && secs.is_finite() {
            self.sweep_uops as f64 / secs
        } else {
            0.0
        }
    }

    /// Machine-readable sweep results: suite metadata, throughput, and
    /// one record per voltage point. Always a single line of valid JSON:
    /// every float goes through [`json::number`], which renders
    /// non-finite values as `null` instead of emitting them verbatim.
    /// `sweep_elapsed_seconds` and `sweep_simulated_uops` keep their
    /// names but cover the whole planned batch.
    #[must_use]
    pub fn to_json(&self, suite_label: &str, suite_uops: usize, jobs: usize) -> String {
        use crate::json;
        let points: Vec<String> = self.sweep.iter().map(sweep::point_json).collect();
        let mut out = json::object(&[
            ("suite", json::string(suite_label)),
            ("suite_uops", suite_uops.to_string()),
            ("jobs", jobs.to_string()),
            (
                "sweep_elapsed_seconds",
                json::number(self.sweep_elapsed.as_secs_f64()),
            ),
            ("sweep_simulated_uops", self.sweep_uops.to_string()),
            ("uops_per_second", json::number(self.uops_per_second())),
            ("points", json::array(&points)),
        ]);
        out.push('\n');
        out
    }
}

/// The engine-driven results of [`run_all`], measured as one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The baseline-vs-IRAW sweep behind Figures 11b/12.
    pub points: Vec<SweepPoint>,
    /// Table 1's measured companion rows at [`table1::VCC`].
    pub rows: Vec<QuantRow>,
    /// The §5.2 stall attribution at [`stalls::VCC`].
    pub stalls: stalls::StallReport,
    /// Configurations the plan requested.
    pub configs: usize,
    /// Distinct machines among them: the engine runs per trace.
    pub machines: usize,
}

/// Plans every simulation [`run_all`] needs — the sweep, Table 1 at
/// [`table1::VCC`] and the §5.2 study at [`stalls::VCC`] — and runs them
/// as **one** [`ExperimentContext::run_suite_batch`] call, so each
/// distinct machine is simulated once and the workers stay balanced
/// across experiment boundaries. Byte-identical to the separate
/// per-experiment calls.
///
/// # Errors
///
/// Propagates simulation and cache failures.
pub fn measure_all(ctx: &ExperimentContext) -> Result<Measured, ExperimentError> {
    let techniques = technique_configs(ctx.core, &ctx.timing, table1::VCC);
    let mut cfgs = sweep::configs(ctx);
    let n_sweep = cfgs.len();
    cfgs.extend(techniques.iter().map(|tc| tc.cfg.clone()));
    cfgs.extend(stalls::configs(ctx, stalls::VCC));
    let mut suites = ctx.run_suite_batch(&cfgs)?;
    let stall_suites = suites.split_off(n_sweep + techniques.len());
    let table1_suites = suites.split_off(n_sweep);
    Ok(Measured {
        points: sweep::points_from(ctx, suites),
        rows: rows_from_results(&techniques, &table1_suites),
        stalls: stalls::report_from(stalls::VCC, &stall_suites[0], &stall_suites[1]),
        configs: cfgs.len(),
        machines: fold_machines(&cfgs).distinct.len(),
    })
}

/// Runs every experiment, writing CSVs under `out_dir` and returning the
/// report plus the raw sweep data. All simulation happens in one
/// [`measure_all`] batch.
///
/// # Errors
///
/// Propagates simulation failures and CSV I/O failures (with the
/// offending path attached).
pub fn run_all(ctx: &ExperimentContext, out_dir: &Path) -> Result<RunSummary, ExperimentError> {
    let mut report = format!(
        "# lowvcc experiment report — suite: {} ({} uops total)\n\n",
        ctx.suite_label,
        ctx.total_uops()
    );
    let mut section = |title: &str, t: &TextTable, file: &str| -> Result<(), ExperimentError> {
        save(t, &out_dir.join(file))?;
        report.push_str(title);
        report.push_str(&t.render());
        report.push('\n');
        Ok(())
    };

    section(
        "## Figure 1 — delay vs Vcc (normalized to 12 FO4 @ 700 mV)\n",
        &fig1::table(ctx),
        "fig1.csv",
    )?;
    section(
        "## Figure 11a — cycle time vs Vcc (normalized to 24 FO4 @ 700 mV)\n",
        &fig11a::table(ctx),
        "fig11a.csv",
    )?;

    let store_before = ctx.cache.as_ref().map(|s| s.stats());
    #[expect(clippy::disallowed_methods, reason = "report metadata, never a result")]
    let started = Instant::now();
    let m = measure_all(ctx)?;
    let sweep_elapsed = started.elapsed();
    // Engine work only. With a cache, the store counted exactly what was
    // simulated; without one, every distinct machine ran every trace.
    let (sweep_uops, engine_runs) = match (&ctx.cache, store_before) {
        (Some(store), Some(before)) => {
            let after = store.stats();
            (
                after.simulated_uops - before.simulated_uops,
                after.misses - before.misses,
            )
        }
        _ => (
            m.machines as u64 * ctx.total_uops() as u64,
            (m.machines * ctx.suite.len()) as u64,
        ),
    };

    section(
        "## Figure 11b — frequency increase and performance gains\n",
        &sweep::fig11b_table(&m.points),
        "fig11b.csv",
    )?;
    section(
        "## Figure 12 — IRAW-relative energy, delay and EDP\n",
        &sweep::fig12_table(&m.points),
        "fig12.csv",
    )?;
    section(
        "## Table 1 — technique comparison (qualitative)\n",
        &table1::qualitative(),
        "table1_qualitative.csv",
    )?;
    section(
        "## Table 1 companion — measured at 500 mV\n",
        &table1::rows_table(&m.rows),
        "table1_quantitative.csv",
    )?;
    section(
        "## §5.2 — stall attribution at 575 mV\n",
        &stalls::report_table(&m.stalls),
        "stalls_575mv.csv",
    )?;
    section(
        "## Scalar results (paper §5.2, §4.5, §5.3)\n",
        &scalars::table(ctx, &m.points)?,
        "scalars.csv",
    )?;

    Ok(RunSummary {
        report,
        sweep: m.points,
        sweep_elapsed,
        sweep_uops,
        requested_runs: m.configs * ctx.suite.len(),
        folded_runs: (m.configs - m.machines) * ctx.suite.len(),
        engine_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn zero_duration_summary() -> RunSummary {
        RunSummary {
            report: String::new(),
            sweep: Vec::new(),
            sweep_elapsed: Duration::ZERO,
            sweep_uops: 1_000_000,
            requested_runs: 0,
            folded_runs: 0,
            engine_runs: 0,
        }
    }

    #[test]
    fn zero_duration_throughput_is_zero_not_nan() {
        let s = zero_duration_summary();
        assert_eq!(s.uops_per_second(), 0.0);
        assert!(s.uops_per_second().is_finite());
    }

    #[test]
    fn zero_duration_json_is_still_valid() {
        let s = zero_duration_summary();
        let doc = s.to_json("smoke (0×0)", 0, 1);
        let v = json::parse(&doc).expect("valid JSON even with degenerate timing");
        assert_eq!(v.get("uops_per_second").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("points").unwrap().as_array().unwrap().len(), 0);
    }
}
