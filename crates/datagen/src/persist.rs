//! Saving generated datasets to disk (`.charles` files).
//!
//! The generators synthesise a fresh table per call, which is fine for
//! tests but wasteful for a long-lived server: regenerating (and
//! re-interning string dictionaries for) a million-row VOC register on
//! every boot is exactly the re-ingestion cost the persistent columnar
//! format exists to eliminate. This module is the bridge: name a
//! generator, get a `.charles` file, boot anything — `charles-serve`
//! sessions (`@path` bodies), `charles-bench` experiments
//! (`--dataset <path>`), or a plain [`charles_store::Table::open`].
//!
//! The `datagen` binary wraps [`generate_and_save`] for shell use:
//!
//! ```sh
//! cargo run -p charles-datagen --bin datagen -- voc 20000 42 /tmp/voc.charles
//! ```
//!
//! [`generate_and_save`] never builds the [`Table`]: it drives the
//! store's [`StreamWriter`] with one generator pass **per column**.
//! Because every generator is a deterministic function of `(rows, seed)`,
//! replaying the row stream once per column costs only CPU, and peak
//! memory is one column's validity bitmap plus its string dictionary
//! regardless of row count — which is what makes 10⁸-row files
//! producible. The file is byte for byte what `write_table` writes for
//! [`dataset_by_name`]'s table (pinned by a test below).

use charles_store::{Schema, StoreError, StoreResult, StreamWriter, Table, Value};
use std::path::Path;

/// The named generators [`dataset_by_name`] knows, with their schemas'
/// domains: the paper's three running examples.
pub const DATASET_NAMES: &[&str] = &["voc", "astro", "weblog"];

/// Generate one of the named datasets (`voc`, `astro`, `weblog`),
/// deterministic for a fixed `(rows, seed)`. `None` for unknown names.
pub fn dataset_by_name(name: &str, rows: usize, seed: u64) -> Option<Table> {
    match name {
        "voc" => Some(crate::voc_table(rows, seed)),
        "astro" => Some(crate::astro_table(rows, seed)),
        "weblog" => Some(crate::weblog_table(rows, seed)),
        _ => None,
    }
}

/// The table name and schema a named generator produces, without
/// generating any rows. `None` for unknown names.
pub fn dataset_schema(name: &str) -> Option<(&'static str, Schema)> {
    match name {
        "voc" => Some(("voc", crate::voc::voc_schema())),
        "astro" => Some(("sky", crate::astro::astro_schema())),
        "weblog" => Some(("weblog", crate::weblog::weblog_schema())),
        _ => None,
    }
}

/// The row stream a named generator produces — the replayable producer
/// behind [`generate_and_save`]. `None` for unknown names.
pub fn dataset_rows(
    name: &str,
    rows: usize,
    seed: u64,
) -> Option<Box<dyn Iterator<Item = Vec<Value>>>> {
    match name {
        "voc" => Some(Box::new(crate::voc::voc_rows(rows, seed))),
        "astro" => Some(Box::new(crate::astro::astro_rows(rows, seed))),
        "weblog" => Some(Box::new(crate::weblog::weblog_rows(rows, seed))),
        _ => None,
    }
}

/// Generate a named dataset and save it as a `.charles` file **without
/// materialising the table**: one generator pass per column through the
/// store's [`StreamWriter`]. Peak memory is independent of `rows` (one
/// validity bitmap plus one string dictionary).
pub fn generate_and_save(
    name: &str,
    rows: usize,
    seed: u64,
    path: impl AsRef<Path>,
) -> StoreResult<()> {
    let (table_name, schema) = dataset_schema(name).ok_or_else(|| {
        StoreError::Parse(format!(
            "unknown dataset {name:?} (expected one of {DATASET_NAMES:?})"
        ))
    })?;
    let mut w = StreamWriter::create(path, table_name, schema.clone(), rows)?;
    for col in 0..schema.arity() {
        // The generators are deterministic in (rows, seed), so each
        // column pass replays the identical row stream and projects out
        // its one column. CPU trades for memory: arity × generation cost,
        // O(1) resident rows.
        let stream = dataset_rows(name, rows, seed).expect("name validated above");
        for mut row in stream {
            debug_assert_eq!(row.len(), schema.arity());
            w.append(Some(row.swap_remove(col)))?;
        }
        w.end_column()?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{write_table, Backend, Table};

    fn tmp_path(tag: &str, name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "charles-datagen-{tag}-{}-{name}.charles",
            std::process::id()
        ))
    }

    #[test]
    fn every_named_dataset_saves_and_reloads() {
        for name in DATASET_NAMES {
            let path = tmp_path("reload", name);
            generate_and_save(name, 500, 9, &path).unwrap();
            let loaded = Table::open(&path).unwrap();
            assert_eq!(loaded.len(), 500, "{name}");
            let (table_name, schema) = dataset_schema(name).unwrap();
            assert_eq!(loaded.name(), table_name, "{name}");
            assert_eq!(Backend::schema(&loaded), &schema, "{name}");
            loaded.verify().unwrap();
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn unknown_dataset_is_a_typed_error() {
        assert!(dataset_by_name("nope", 10, 1).is_none());
        let err = generate_and_save("nope", 10, 1, "/tmp/never-written.charles").unwrap_err();
        assert!(err.to_string().contains("unknown dataset"), "{err}");
        assert!(dataset_schema("nope").is_none());
        assert!(dataset_rows("nope", 10, 1).is_none());
    }

    #[test]
    fn declared_schemas_match_generated_tables() {
        for name in DATASET_NAMES {
            let (table_name, schema) = dataset_schema(name).unwrap();
            let t = dataset_by_name(name, 3, 1).unwrap();
            assert_eq!(t.name(), table_name, "{name}");
            assert_eq!(t.schema(), &schema, "{name}");
        }
    }

    #[test]
    fn row_streams_replay_the_eager_tables() {
        for name in DATASET_NAMES {
            let t = dataset_by_name(name, 200, 11).unwrap();
            let rows: Vec<Vec<Value>> = dataset_rows(name, 200, 11).unwrap().collect();
            assert_eq!(rows.len(), 200, "{name}");
            for (i, row) in rows.iter().enumerate() {
                for (c, col) in t.schema().names().iter().enumerate() {
                    assert_eq!(
                        t.value(i, col).unwrap().as_ref(),
                        Some(&row[c]),
                        "{name} row {i} col {col}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_generated_file_is_the_file_of_its_table() {
        // Column by column from the row stream, or whole columns from
        // the built table: one writer, the same bytes — dictionary codes
        // included, since both intern in first-occurrence order.
        for name in DATASET_NAMES {
            let streamed = tmp_path("stream", name);
            let written = tmp_path("table", name);
            generate_and_save(name, 700, 42, &streamed).unwrap();
            write_table(&dataset_by_name(name, 700, 42).unwrap(), &written).unwrap();
            assert!(
                std::fs::read(&streamed).unwrap() == std::fs::read(&written).unwrap(),
                "{name}"
            );
            std::fs::remove_file(&streamed).unwrap();
            std::fs::remove_file(&written).unwrap();
        }
    }
}
