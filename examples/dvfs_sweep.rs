//! DVFS sweep: walk the paper's 700→400 mV range, letting the §4.1.3
//! controller reconfigure the IRAW mechanisms at every step, and print the
//! resulting operating points (frequency, N, predicted speedup and EDP).
//!
//! Run with: `cargo run --release --example dvfs_sweep`

#![expect(clippy::print_stdout, reason = "an example reports to the terminal")]

use lowvcc::core::{IrawController, Mechanism};
use lowvcc::energy::{DvfsController, Objective};
use lowvcc::sram::{CycleTimeModel, PAPER_SWEEP};

fn main() {
    let timing = CycleTimeModel::silverthorne_45nm();
    let dvfs = DvfsController::silverthorne_45nm();
    let mechanisms = IrawController::silverthorne(timing);

    println!(
        "{:>7} {:>10} {:>6} {:>13} {:>13} {:>15}",
        "Vcc", "freq", "N", "IQ threshold", "pred speedup", "pred EDP ratio"
    );
    for op in dvfs.schedule(PAPER_SWEEP, Objective::MinEdp) {
        let settings = mechanisms.settings_for(op.vcc);
        let mechanism = if op.iraw_active {
            Mechanism::Iraw
        } else {
            Mechanism::Baseline
        };
        println!(
            "{:>7} {:>10} {:>6} {:>13} {:>13.3} {:>15.3}   {:?}",
            op.vcc.to_string(),
            op.frequency.to_string(),
            settings.n,
            settings.iq_threshold,
            op.predicted_speedup,
            dvfs.predicted_edp_ratio(op.vcc),
            mechanism,
        );
    }
    println!("\nThe controller turns IRAW off at 600 mV and above (paper §4.1.3),");
    println!("and programs N = 1 below — matching the paper's reconfiguration rule.");
}
