//! Command-line entry point; see the library docs for the metrics.

use std::process::ExitCode;

use scalesim_perfbench::bench::{run_benchmark, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_benchmark(&args) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
