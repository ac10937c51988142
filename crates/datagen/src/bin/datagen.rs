//! Generate a synthetic dataset and save it as a `.charles` file.
//!
//! ```sh
//! cargo run -p charles-datagen --bin datagen -- <voc|astro|weblog> <rows> <seed> <out.charles>
//! ```
//!
//! This is the first half of the persistence round trip the rest of the
//! stack consumes: `charles-serve` boots sessions from the file
//! (`@path` bodies or an `Arc<Table>` from `Table::open`), `charles-bench`
//! experiments take it via `--dataset <path>`, and CI drives
//! generate → save → serve as a smoke test.
//!
//! The file is written column by column through the store's
//! `StreamWriter`, never materialising the whole table: peak memory stays
//! flat in the row count (one validity bitmap + one string dictionary),
//! at the cost of re-running the generator once per column.

#![forbid(unsafe_code)]

use charles_datagen::{generate_and_save, DATASET_NAMES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name, rows, seed, path] = args.as_slice() else {
        eprintln!(
            "usage: datagen <{}> <rows> <seed> <out.charles>",
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
    match generate_and_save(name, rows, seed, path) {
        Ok(()) => {
            println!("wrote {path}: dataset {name:?}, {rows} rows (seed {seed})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("datagen failed: {e}");
            ExitCode::FAILURE
        }
    }
}
