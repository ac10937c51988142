//! Thin CLI over the `charles_xtask` lint engine.
//!
//! ```text
//! cargo run -p charles-xtask -- lint                        # human output
//! cargo run -p charles-xtask -- lint --json                 # machine output (CI artefact)
//! cargo run -p charles-xtask -- lint --write-api-snapshots  # regenerate docs/api/*.txt
//! ```
//!
//! Exit status: 0 when clean, 1 when any diagnostic survives
//! suppression (or on bad usage). `--json` prints a single JSON array
//! of `{code, file, line, detail}` objects on stdout — empty array when
//! clean — so CI can both gate on the exit code and upload the output.
//! The rules themselves are documented in `docs/LINTS.md`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut json = false;
            let mut write_snapshots = false;
            for arg in args {
                match arg.as_str() {
                    "--json" => json = true,
                    "--write-api-snapshots" => write_snapshots = true,
                    other => {
                        eprintln!(
                            "unknown flag {other:?}; available: --json --write-api-snapshots"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            let root = charles_xtask::workspace_root();
            if write_snapshots {
                let ws = charles_xtask::model::WorkspaceFiles::load(&root);
                match charles_xtask::passes::api::write_snapshots(&ws) {
                    Ok(written) => {
                        for path in written {
                            eprintln!("wrote {path}");
                        }
                    }
                    Err(e) => {
                        eprintln!("failed to write API snapshots: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let diagnostics = charles_xtask::run_lint(&root);
            if json {
                println!("{}", charles_xtask::diag::to_json_array(&diagnostics));
            } else {
                for d in &diagnostics {
                    eprintln!("{d}");
                }
            }
            if diagnostics.is_empty() {
                if !json {
                    println!("xtask lint: clean");
                }
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} diagnostic(s)", diagnostics.len());
                ExitCode::FAILURE
            }
        }
        Some(other) => {
            eprintln!("unknown task {other:?}; available: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p charles-xtask -- lint [--json] [--write-api-snapshots]");
            ExitCode::FAILURE
        }
    }
}
