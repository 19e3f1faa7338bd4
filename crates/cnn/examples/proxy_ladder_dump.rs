//! Retrains the proxy net, measures its quantized-accuracy ladder and
//! prints it next to the compiled table that every accuracy quote reads.
//! Exits 1 if any rung (or the pristine value) differs by a single bit.
//! The printed rungs are also what the accuracy-serving scenarios'
//! `min_accuracy` floors are calibrated against.
//!
//! When the proxy's training or evaluation changes, run
//!
//! ```text
//! cargo run --release -p pcnna-cnn --example proxy_ladder_dump
//! ```
//!
//! and paste the measured hit counts into `PRISTINE_HITS` and
//! `LADDER_HITS` in `crates/cnn/src/train.rs`.

use pcnna_cnn::train::{
    measure_proxy_ladder, pristine_top1, quantized_top1, PROXY_MAX_BITS, PROXY_TEST_IMAGES,
};
use std::process::ExitCode;

/// Correct answers out of the test set that a measured accuracy stands for.
fn hits(top1: f64) -> f64 {
    (top1 * f64::from(PROXY_TEST_IMAGES)).round()
}

fn main() -> ExitCode {
    let measured = match measure_proxy_ladder() {
        Ok(ladder) => ladder,
        Err(e) => {
            eprintln!("measuring the proxy ladder failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = std::iter::once(("pristine".to_string(), measured.pristine, pristine_top1())).chain(
        (1..=PROXY_MAX_BITS)
            .zip(measured.top1)
            .map(|(bits, top1)| (format!("{bits} bits"), top1, quantized_top1(bits))),
    );
    println!(
        "{:>8}  {:>8} {:>6}  {:>8} {:>6}",
        "rung", "measured", "hits", "compiled", "hits"
    );
    let mut differ = 0;
    for (rung, got, want) in rows {
        let same = got.to_bits() == want.to_bits();
        differ += usize::from(!same);
        println!(
            "{rung:>8}  {got:>8.4} {:>6}  {want:>8.4} {:>6}{}",
            hits(got),
            hits(want),
            if same { "" } else { "  DIFFERS" }
        );
    }
    if differ == 0 {
        println!("compiled ladder matches the measurement bit for bit");
        ExitCode::SUCCESS
    } else {
        eprintln!("{differ} rung(s) differ: regenerate the table in crates/cnn/src/train.rs");
        ExitCode::FAILURE
    }
}
