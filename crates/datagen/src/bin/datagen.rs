//! Generate a synthetic dataset and save it as a `.charles` file.
//!
//! ```sh
//! cargo run -p charles-datagen --bin datagen -- [--stream] <voc|astro|weblog> <rows> <seed> <out.charles>
//! ```
//!
//! This is the first half of the persistence round trip the rest of the
//! stack consumes: `charles-serve` boots sessions from the file
//! (`@path` bodies or an `Arc<DiskTable>` backend), `charles-bench`
//! experiments take it via `--dataset <path>`, and CI drives
//! generate → save → serve as a smoke test.
//!
//! `--stream` writes the file column-by-column through the store's
//! `StreamWriter` instead of materialising the whole table first: peak
//! memory stays flat in the row count (one validity bitmap + one string
//! dictionary), at the cost of re-running the generator once per column.
//! The two paths produce value-identical files.

#![forbid(unsafe_code)]

use charles_datagen::{generate_and_save, generate_and_save_streaming, DATASET_NAMES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stream = if let Some(i) = args.iter().position(|a| a == "--stream") {
        args.remove(i);
        true
    } else {
        false
    };
    let [name, rows, seed, path] = args.as_slice() else {
        eprintln!(
            "usage: datagen [--stream] <{}> <rows> <seed> <out.charles>",
            DATASET_NAMES.join("|")
        );
        return ExitCode::FAILURE;
    };
    let rows: usize = match rows.parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("bad row count {rows:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed: u64 = match seed.parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("bad seed {seed:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if stream {
        generate_and_save_streaming(name, rows, seed, path)
    } else {
        generate_and_save(name, rows, seed, path).map(|_| ())
    };
    match result {
        Ok(()) => {
            println!(
                "wrote {path}: dataset {name:?}, {rows} rows (seed {seed}{})",
                if stream { ", streamed" } else { "" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("datagen failed: {e}");
            ExitCode::FAILURE
        }
    }
}
