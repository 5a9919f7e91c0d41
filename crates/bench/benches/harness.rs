//! The one experiment bench target: every table, figure, ablation and
//! sweep harness of [`nvmgc_bench::REGISTRY`], selected by id.
//!
//! ```text
//! cargo bench -p nvmgc-bench --bench harness -- <id>… | all | --list
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failed_gate) = nvmgc_bench::cli(&args) {
        eprintln!("{failed_gate}");
        std::process::exit(1);
    }
}
