//! Alternatives face-off: IRAW avoidance vs Faulty Bits vs Extra Bypass
//! across the low-Vcc range — the paper's Table 1 argument as a sweep.
//!
//! Run with: `cargo run --release --example alternatives_faceoff`

#![expect(clippy::print_stdout, reason = "an example reports to the terminal")]

use lowvcc::baselines::{ExtraBypassDesign, ExtraBypassScope, FaultyBitsDesign, FaultyBitsScope};
use lowvcc::core::{run_suite, CoreConfig, Mechanism, SimConfig};
use lowvcc::sram::{CycleTimeModel, VccRange};
use lowvcc::trace::{TraceSpec, WorkloadFamily};

fn main() -> Result<(), lowvcc::Error> {
    let timing = CycleTimeModel::silverthorne_45nm();
    let core = CoreConfig::silverthorne();
    let traces: Vec<_> = [
        (WorkloadFamily::SpecInt, 0u64),
        (WorkloadFamily::Office, 1),
        (WorkloadFamily::Multimedia, 2),
    ]
    .iter()
    .map(|&(f, s)| TraceSpec::new(f, s, 60_000).build())
    .collect::<Result<_, _>>()?;

    let fb = FaultyBitsDesign::four_sigma(FaultyBitsScope::AllBlocksHypothetical);
    let eb = ExtraBypassDesign::two_cycle(ExtraBypassScope::AllBlocksHypothetical);

    println!("speedup over the 6σ write-limited baseline (higher is better):");
    println!(
        "{:>7} {:>8} {:>22} {:>24}",
        "Vcc", "IRAW", "FaultyBits 4σ (hypo.)", "ExtraBypass 2-cyc (hypo.)"
    );
    let sweep = VccRange::new(575, 400, 25)?;
    for vcc in sweep.iter() {
        let base = run_suite(
            &SimConfig::at_vcc(core, &timing, vcc, Mechanism::Baseline),
            &traces,
        )?;
        let iraw = run_suite(
            &SimConfig::at_vcc(core, &timing, vcc, Mechanism::Iraw),
            &traces,
        )?;
        let fb_run = run_suite(&fb.sim_config(core, &timing, vcc, 1), &traces)?;
        let eb_run = run_suite(&eb.sim_config(core, &timing, vcc), &traces)?;
        let t0 = base.total_seconds();
        println!(
            "{:>7} {:>8.3} {:>22.3} {:>24.3}",
            vcc.to_string(),
            t0 / iraw.total_seconds(),
            t0 / fb_run.total_seconds(),
            t0 / eb_run.total_seconds(),
        );
    }
    println!("\nCaveat (the paper's Table 1 point): the Faulty Bits and Extra Bypass");
    println!("columns are *hypothetical* — neither technique actually covers all SRAM");
    println!("blocks of the core, so their realistic core-level speedup is 1.0, and");
    println!("they pay fault maps / wide always-on latches respectively.");
    Ok(())
}
