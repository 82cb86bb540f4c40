//! Validates committed bench and lint documents against their schema
//! tables ([`er_bench::validate`]); each document selects its own table.
//!
//! Usage: `validate_json PATH...`. Prints one line per document and exits
//! non-zero if any document fails.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_json PATH...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &paths {
        match er_bench::validate::validate_file(Path::new(path)) {
            Ok(table) => println!("validate_json: {path}: OK ({table})"),
            Err(e) => {
                eprintln!("validate_json: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
