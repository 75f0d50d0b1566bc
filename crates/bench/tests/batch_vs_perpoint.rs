//! Equivalence gate for the batched sweep engine: the figure and table
//! artefacts produced through [`ExperimentContext::run_suite_batch`]
//! must be byte-identical to a strictly per-point reference — one fresh
//! [`Simulator`] per (config, trace), no shared decode, no reused engine
//! workspace — at every worker count the CI matrix exercises, whether
//! each experiment runs its own batch or [`measure_all`] plans them all
//! as one deduplicated batch. CSV bytes
//! — not floats with an epsilon — are compared, so even a last-ulp drift
//! in the shared engine state fails the gate.

use std::fs;
use std::path::PathBuf;

use lowvcc_baselines::{rows_from_results, technique_configs};
use lowvcc_bench::experiments::{fig11a, measure_all, stalls, sweep, table1, SweepPoint};
use lowvcc_bench::{ExperimentContext, TextTable};
use lowvcc_core::{speedup, MechanismComparison, Parallelism, SimConfig, Simulator, SuiteResult};
use lowvcc_sram::{Millivolts, PAPER_SWEEP};

fn ctx_with(jobs: usize) -> ExperimentContext {
    ExperimentContext::sized(1, 3_000)
        .expect("preset suite")
        .with_parallelism(Parallelism::threads(jobs))
}

/// Round-trips a table through the CSV writer and returns the bytes.
fn csv_bytes(table: &TextTable, name: &str) -> Vec<u8> {
    let path: PathBuf =
        std::env::temp_dir().join(format!("lowvcc_bvp_{}_{name}.csv", std::process::id()));
    table.write_csv(&path).expect("csv written");
    let bytes = fs::read(&path).expect("csv read back");
    fs::remove_file(&path).ok();
    bytes
}

/// `cfg` over the suite, one fresh simulator run per trace.
fn per_point_suite(ctx: &ExperimentContext, cfg: &SimConfig) -> SuiteResult {
    let sim = Simulator::new(cfg.clone()).expect("valid config");
    SuiteResult {
        per_trace: ctx
            .suite
            .iter()
            .map(|t| (t.name.clone(), sim.run(t).expect("simulation completes")))
            .collect(),
    }
}

/// The paper sweep, assembled point by point from fresh simulator runs.
fn per_point_sweep(ctx: &ExperimentContext) -> Vec<SweepPoint> {
    PAPER_SWEEP
        .iter()
        .map(|vcc| {
            let (base_cfg, iraw_cfg) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
            let baseline = per_point_suite(ctx, &base_cfg);
            let iraw = per_point_suite(ctx, &iraw_cfg);
            let speedup = speedup(&iraw, &baseline);
            let cmp = MechanismComparison {
                vcc,
                baseline,
                iraw,
                frequency_gain: ctx.timing.frequency_gain(vcc),
                speedup,
            };
            sweep::point_from(ctx, &cmp)
        })
        .collect()
}

#[test]
fn batched_sweep_matches_per_point_at_every_worker_count() {
    let reference = per_point_sweep(&ctx_with(1));
    let r11b = csv_bytes(&sweep::fig11b_table(&reference), "f11b_per_point");
    let r12 = csv_bytes(&sweep::fig12_table(&reference), "f12_per_point");
    for jobs in [1, 2, 5] {
        let ctx = ctx_with(jobs);

        // F11a is analytic (no simulation): identical bytes before and
        // after the sweep guard that it does not mutate the context.
        let f11a_before = csv_bytes(&fig11a::table(&ctx), "f11a_before");

        let batched = sweep::run_sweep(&ctx).expect("batched sweep");
        assert_eq!(batched, reference, "sweep points diverged at jobs={jobs}");

        let b11b = csv_bytes(&sweep::fig11b_table(&batched), "f11b_batched");
        assert_eq!(b11b, r11b, "F11b CSV diverged at jobs={jobs}");

        let b12 = csv_bytes(&sweep::fig12_table(&batched), "f12_batched");
        assert_eq!(b12, r12, "F12 CSV diverged at jobs={jobs}");

        let f11a_after = csv_bytes(&fig11a::table(&ctx), "f11a_after");
        assert_eq!(f11a_before, f11a_after, "context mutated at jobs={jobs}");
    }
}

#[test]
fn batched_table1_matches_per_config_runs() {
    let vcc = Millivolts::new(500).expect("in range");
    let ctx = ctx_with(1);
    let configs = technique_configs(ctx.core, &ctx.timing, vcc);
    let suites: Vec<SuiteResult> = configs
        .iter()
        .map(|tc| per_point_suite(&ctx, &tc.cfg))
        .collect();
    let reference = csv_bytes(
        &table1::rows_table(&rows_from_results(&configs, &suites)),
        "t1_per_point",
    );
    for jobs in [1, 2, 5] {
        let ctx = ctx_with(jobs);
        let batched_rows = table1::quantitative_rows_at(&ctx, vcc).expect("batched rows");
        let b = csv_bytes(&table1::rows_table(&batched_rows), "t1_batched");
        assert_eq!(b, reference, "Table 1 CSV diverged at jobs={jobs}");
    }
}

#[test]
fn one_planned_batch_matches_separate_calls_and_per_point() {
    let ctx = ctx_with(1);
    let points = per_point_sweep(&ctx);
    let techniques = technique_configs(ctx.core, &ctx.timing, table1::VCC);
    let suites: Vec<SuiteResult> = techniques
        .iter()
        .map(|tc| per_point_suite(&ctx, &tc.cfg))
        .collect();
    let rows = rows_from_results(&techniques, &suites);
    let [iraw, free] = stalls::configs(&ctx, stalls::VCC);
    let report = stalls::report_from(
        stalls::VCC,
        &per_point_suite(&ctx, &iraw),
        &per_point_suite(&ctx, &free),
    );
    let reference = [
        csv_bytes(&sweep::fig11b_table(&points), "plan_f11b_ref"),
        csv_bytes(&sweep::fig12_table(&points), "plan_f12_ref"),
        csv_bytes(&table1::rows_table(&rows), "plan_t1_ref"),
        csv_bytes(&stalls::report_table(&report), "plan_st_ref"),
    ];
    for jobs in [1, 2, 5] {
        let ctx = ctx_with(jobs);
        let m = measure_all(&ctx).expect("planned batch");
        // 13 × 2 sweep + 6 Table 1 + 2 stall configurations fold to 25
        // machines: 5 IRAW points at N = 0, 2 Table 1 rows and 1 stall
        // run repeat the sweep, and "faulty bits (caches only)" disables
        // no line at 500 mV.
        assert_eq!((m.configs, m.machines), (34, 25), "jobs={jobs}");

        assert_eq!(m.points, sweep::run_sweep(&ctx).expect("sweep"));
        let separate_rows = table1::quantitative_rows_at(&ctx, table1::VCC).expect("rows");
        assert_eq!(m.rows, separate_rows, "jobs={jobs}");
        assert_eq!(m.stalls, stalls::measure(&ctx).expect("stalls"));

        assert_eq!(m.points, points, "sweep diverged at jobs={jobs}");
        assert_eq!(m.rows, rows, "Table 1 diverged at jobs={jobs}");
        assert_eq!(m.stalls, report, "stalls diverged at jobs={jobs}");
        let batched = [
            csv_bytes(&sweep::fig11b_table(&m.points), "plan_f11b"),
            csv_bytes(&sweep::fig12_table(&m.points), "plan_f12"),
            csv_bytes(&table1::rows_table(&m.rows), "plan_t1"),
            csv_bytes(&stalls::report_table(&m.stalls), "plan_st"),
        ];
        assert_eq!(batched, reference, "CSV bytes diverged at jobs={jobs}");
    }
}
