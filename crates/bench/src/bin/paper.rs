//! Writes `EXPERIMENTS.md`, the paper reproduction record, to the working
//! directory: `cargo run --release -p pcnna-bench --bin paper` from the
//! repository root. The output is deterministic; CI diffs it against the
//! committed copy.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write("EXPERIMENTS.md", pcnna_bench::paper::render()?)?;
    println!("wrote EXPERIMENTS.md");
    Ok(())
}
