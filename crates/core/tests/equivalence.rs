//! Fast-path ↔ naive-stepper equivalence suite.
//!
//! The event-driven engine ([`Simulator::run`]) must produce *exactly*
//! the [`SimStats`] of the cycle-by-cycle reference stepper
//! ([`Simulator::run_naive`]) — not approximately: every counter, every
//! stall attribution, every cache statistic. These tests sweep the full
//! mechanism × workload-family matrix over several supply voltages, plus
//! the Extra Bypass / Faulty Bits baseline shapes the engine also serves,
//! and two hand-built shapes (a divide chain, a memory stream) where the
//! event-driven cycle skipping dominates.
//!
//! With `debug_assertions` enabled (the default test profile, and the
//! release CI job that sets `RUSTFLAGS="-C debug-assertions"`), the fast
//! path additionally replays every skipped stretch against a cloned
//! naive engine internally, so a divergence fails twice over.
//!
//! The same reference stepper also checks the [`SimConfig::machine`]
//! projection — the engine's input and the result store's key — for
//! soundness (every field that moves the stats moves the key) and
//! tightness (labels and clock do not).

use lowvcc_core::{
    run_suite_batch, sim_key, CoreConfig, Mechanism, Parallelism, SimConfig, Simulator,
};
use lowvcc_sram::voltage::mv;
use lowvcc_sram::{CycleTimeModel, Picoseconds};
use lowvcc_trace::{Reg, Trace, TraceSpec, Uop, UopKind, WorkloadFamily};
use lowvcc_uarch::replacement::Policy;

fn sim(mechanism: Mechanism, vcc: u32) -> Simulator {
    let cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(vcc),
        mechanism,
    );
    Simulator::new(cfg).expect("preset config is valid")
}

#[test]
fn fast_path_equals_naive_across_mechanisms_families_and_voltages() {
    // 400 mV (N = 2, extreme point), 500 mV (headline band), 575 mV
    // (the paper's attribution point) and 700 mV (IRAW off) cover every
    // distinct stabilization-cycle setting.
    for vcc in [400u32, 500, 575, 700] {
        for mech in [Mechanism::Baseline, Mechanism::Iraw, Mechanism::IdealLogic] {
            let s = sim(mech, vcc);
            for (seed, family) in WorkloadFamily::all().into_iter().enumerate() {
                let trace = TraceSpec::new(family, seed as u64, 4_000)
                    .build()
                    .expect("preset trace params");
                let fast = s.run(&trace).expect("fast path completes");
                let naive = s.run_naive(&trace).expect("naive stepper completes");
                assert_eq!(
                    fast.stats, naive.stats,
                    "stats diverged: {mech:?} {family:?} at {vcc} mV"
                );
                assert_eq!(fast.cycle_time, naive.cycle_time);
            }
        }
    }
}

#[test]
fn fast_path_equals_naive_for_extra_bypass_write_ports() {
    // The Extra Bypass baseline exercises the WritePort blocker, which
    // has its own skip wake-up rule (port frees minus write latency).
    let mut cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(450),
        Mechanism::Baseline,
    );
    cfg.extra_write_port_cycles = 1;
    let s = Simulator::new(cfg).expect("valid config");
    for (seed, family) in WorkloadFamily::all().into_iter().enumerate() {
        let trace = TraceSpec::new(family, 100 + seed as u64, 3_000)
            .build()
            .expect("preset trace params");
        let fast = s.run(&trace).expect("fast path completes");
        let naive = s.run_naive(&trace).expect("naive stepper completes");
        assert_eq!(fast.stats, naive.stats, "extra-bypass {family:?}");
    }
}

#[test]
fn fast_path_equals_naive_with_faulty_lines() {
    // Disabled cache lines change the miss pattern (and thus which
    // cycles are skippable) without touching the skip machinery itself.
    let mut cfg = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(450),
        Mechanism::Baseline,
    );
    cfg.disabled_lines = (16, 16, 256);
    cfg.fault_seed = 11;
    let s = Simulator::new(cfg).expect("valid config");
    let trace = TraceSpec::new(WorkloadFamily::SpecInt, 7, 5_000)
        .build()
        .expect("preset trace params");
    let fast = s.run(&trace).expect("fast path completes");
    let naive = s.run_naive(&trace).expect("naive stepper completes");
    assert_eq!(fast.stats, naive.stats);
}

const SKIP_SHAPE_LEN: usize = 4_000;

/// Dependent divide clusters: long structural/data stalls the
/// cycle-skipping fast path jumps over.
fn div_chain_trace(n: usize) -> Trace {
    let reg = |i: u8| Reg::new(i).expect("in range");
    let mut uops = Vec::with_capacity(n);
    while uops.len() < n {
        let i = uops.len();
        let d = reg((16 + (i % 8)) as u8);
        let mut div = Uop::alu(0x40_0000 + (i as u64 % 16) * 4, Some(d), Some(reg(0)), None);
        div.kind = UopKind::IntDiv;
        uops.push(div);
        uops.push(Uop::alu(0x40_0040, Some(reg(40)), Some(d), None));
        uops.push(Uop::alu(0x40_0044, Some(reg(41)), Some(reg(40)), None));
    }
    uops.truncate(n);
    Trace::new("div_chain", uops)
}

/// Strided loads over a 16 MB footprint: every access misses the DL0 and
/// most miss the UL1 — the memory-bound shape that dominates paper-scale
/// suites at the fast (IRAW) clock.
fn mem_stream_trace(n: usize) -> Trace {
    let reg = |i: u8| Reg::new(i).expect("in range");
    let mut uops = Vec::with_capacity(n);
    while uops.len() < n {
        let i = (uops.len() / 2) as u64;
        let addr = 0x100_0000 + i * 72 % (1 << 24);
        uops.push(Uop::load(0x40_0000 + (i % 16) * 4, reg(20), None, addr, 8));
        uops.push(Uop::alu(0x40_0040, Some(reg(21)), Some(reg(20)), None));
    }
    uops.truncate(n);
    Trace::new("mem_stream", uops)
}

#[test]
fn fast_path_equals_naive_on_skip_dominated_shapes() {
    for trace in [
        div_chain_trace(SKIP_SHAPE_LEN),
        mem_stream_trace(SKIP_SHAPE_LEN),
    ] {
        for mech in [Mechanism::Baseline, Mechanism::Iraw] {
            let s = sim(mech, 500);
            let fast = s.run(&trace).expect("fast path completes");
            let naive = s.run_naive(&trace).expect("naive stepper completes");
            assert_eq!(
                fast.stats.instructions, SKIP_SHAPE_LEN as u64,
                "{} under {mech:?} commits every uop",
                trace.name
            );
            assert_eq!(
                fast.stats, naive.stats,
                "stats diverged: {mech:?} on {}",
                trace.name
            );
            assert_eq!(fast.cycle_time, naive.cycle_time);
        }
    }
}

#[test]
fn parallel_suite_results_are_byte_identical_for_any_worker_count() {
    let traces: Vec<_> = WorkloadFamily::all()
        .into_iter()
        .enumerate()
        .map(|(seed, family)| {
            TraceSpec::new(family, seed as u64, 3_000)
                .build()
                .expect("preset trace params")
        })
        .collect();
    for mech in [Mechanism::Baseline, Mechanism::Iraw] {
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &CycleTimeModel::silverthorne_45nm(),
            mv(500),
            mech,
        );
        let cfgs = [cfg];
        let sequential =
            run_suite_batch(&cfgs, &traces, Parallelism::sequential()).expect("suite runs");
        for workers in [2usize, 5, 16] {
            let parallel =
                run_suite_batch(&cfgs, &traces, Parallelism::threads(workers)).expect("suite runs");
            // Full structural equality: names, order, every statistic.
            assert_eq!(sequential, parallel, "{mech:?} with {workers} workers");
        }
    }
}

/// One `SimConfig` mutation of the projection test, and whether it only
/// relabels the run (the engine must not see it).
type Mutation = (&'static str, bool, fn(&mut SimConfig));

/// Every `SimConfig` field, and every `CoreConfig` field, mutated in
/// turn. The exhaustive destructuring below stops compiling when a field
/// is added, so a new field cannot escape this test.
fn mutations(base: &SimConfig) -> Vec<Mutation> {
    let SimConfig {
        core: _,
        vcc: _,
        mechanism: _,
        cycle_time: _,
        stabilization_cycles: _,
        extra_write_port_cycles: _,
        disabled_lines: _,
        fault_seed: _,
    } = base;
    let CoreConfig {
        fetch_width: _,
        alloc_width: _,
        issue_width: _,
        iq_entries: _,
        front_end_stages: _,
        bypass_levels: _,
        scoreboard_width: _,
        il0: _,
        dl0: _,
        ul1: _,
        itlb_entries: _,
        dtlb_entries: _,
        bp_entries: _,
        btb_entries: _,
        rsb_entries: _,
        fb_entries: _,
        wcb_entries: _,
        stable_max_entries: _,
        lat_alu: _,
        lat_mul: _,
        lat_div: _,
        lat_fp_add: _,
        lat_fp_mul: _,
        lat_fp_div: _,
        lat_dl0_hit: _,
        lat_ul1: _,
        page_walk_cycles: _,
        mispredict_penalty: _,
        il0_next_line_prefetch: _,
        memory_latency_ns: _,
    } = base.core;
    vec![
        // Labels and clock: the engine must not see these.
        ("vcc", true, |c| c.vcc = mv(525)),
        ("mechanism", true, |c| c.mechanism = Mechanism::Baseline),
        ("fault_seed without disabled lines", true, |c| {
            c.fault_seed = 9
        }),
        ("cycle_time, same memory cycles", true, |c| {
            let k = c.memory_latency_cycles() as f64;
            c.cycle_time = Picoseconds::new(c.core.memory_latency_ns * 1000.0 / (k - 0.5));
        }),
        // Everything else is machine.
        ("cycle_time, more memory cycles", false, |c| {
            let k = c.memory_latency_cycles() as f64;
            c.cycle_time = Picoseconds::new(c.core.memory_latency_ns * 1000.0 / (k + 1.5));
        }),
        ("stabilization_cycles", false, |c| {
            c.stabilization_cycles = 0
        }),
        ("extra_write_port_cycles", false, |c| {
            c.extra_write_port_cycles = 1
        }),
        ("disabled_lines", false, |c| {
            c.disabled_lines = (16, 16, 256)
        }),
        ("fault_seed with disabled lines", false, |c| {
            c.disabled_lines = (16, 16, 256);
            c.fault_seed = 9;
        }),
        ("fetch_width", false, |c| c.core.fetch_width = 1),
        ("alloc_width", false, |c| c.core.alloc_width = 1),
        ("issue_width", false, |c| c.core.issue_width = 1),
        ("iq_entries", false, |c| c.core.iq_entries = 4),
        ("front_end_stages", false, |c| c.core.front_end_stages = 9),
        ("bypass_levels", false, |c| c.core.bypass_levels = 0),
        ("scoreboard_width", false, |c| c.core.scoreboard_width = 9),
        ("il0", false, |c| c.core.il0.size_bytes /= 8),
        ("dl0", false, |c| c.core.dl0.ways = 3),
        ("ul1", false, |c| c.core.ul1.policy = Policy::Random),
        ("itlb_entries", false, |c| c.core.itlb_entries = 2),
        ("dtlb_entries", false, |c| c.core.dtlb_entries = 2),
        ("bp_entries", false, |c| c.core.bp_entries = 16),
        ("btb_entries", false, |c| c.core.btb_entries = 8),
        ("rsb_entries", false, |c| c.core.rsb_entries = 1),
        ("fb_entries", false, |c| c.core.fb_entries = 1),
        ("wcb_entries", false, |c| c.core.wcb_entries = 1),
        ("stable_max_entries", false, |c| {
            c.core.stable_max_entries = 1
        }),
        ("lat_alu", false, |c| c.core.lat_alu = 2),
        ("lat_mul", false, |c| c.core.lat_mul = 2),
        ("lat_div", false, |c| c.core.lat_div = 30),
        ("lat_fp_add", false, |c| c.core.lat_fp_add = 2),
        ("lat_fp_mul", false, |c| c.core.lat_fp_mul = 2),
        ("lat_fp_div", false, |c| c.core.lat_fp_div = 40),
        ("lat_dl0_hit", false, |c| c.core.lat_dl0_hit = 1),
        ("lat_ul1", false, |c| c.core.lat_ul1 = 20),
        ("page_walk_cycles", false, |c| c.core.page_walk_cycles = 90),
        ("mispredict_penalty", false, |c| {
            c.core.mispredict_penalty = 20
        }),
        ("il0_next_line_prefetch", false, |c| {
            c.core.il0_next_line_prefetch = false
        }),
        ("memory_latency_ns", false, |c| {
            c.core.memory_latency_ns = 200.0
        }),
    ]
}

#[test]
fn machine_projection_is_sound_and_tight() {
    // 500 mV IRAW: N = 1, so every IRAW mechanism is live.
    let base = SimConfig::at_vcc(
        CoreConfig::silverthorne(),
        &CycleTimeModel::silverthorne_45nm(),
        mv(500),
        Mechanism::Iraw,
    );
    let spec = TraceSpec::new(WorkloadFamily::Server, 5, 20_000);
    let trace = spec.build().expect("preset trace params");
    let naive = |cfg: &SimConfig| {
        Simulator::new(cfg.clone())
            .expect("mutation keeps the config valid")
            .run_naive(&trace)
            .expect("naive stepper completes")
            .stats
    };
    let base_stats = naive(&base);
    let mut changed = 0;
    for (field, label_only, mutate) in mutations(&base) {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        assert_ne!(cfg, base, "{field}: the mutation must change the config");
        let stats_changed = naive(&cfg) != base_stats;
        let machine_changed = cfg.machine() != base.machine();
        let key_changed = sim_key(&cfg, &spec) != sim_key(&base, &spec);
        assert_eq!(machine_changed, key_changed, "{field}: key tracks machine");
        if stats_changed {
            // Soundness: a field the engine reads is part of the key.
            assert!(key_changed, "{field} changes SimStats but not the key");
        }
        if label_only {
            // Tightness: labels and clock fold into one machine.
            assert!(!stats_changed, "{field} must not change SimStats");
            assert!(!key_changed, "{field} must not change the key");
        }
        changed += usize::from(stats_changed);
    }
    // The trace is rich enough that most machine fields show up in the
    // stats; otherwise soundness above would hold vacuously.
    assert!(changed >= 25, "only {changed} mutations changed SimStats");
}
