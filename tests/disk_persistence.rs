//! End-to-end persistence: generate → save → load → advise, pinned.
//!
//! The tentpole's promise is that a dataset written to a `.charles`
//! file and served back through [`DiskTable`] is indistinguishable from
//! the in-memory table it came from — the advisor's ranked answers,
//! entropies and traces are **byte-identical**, whether the file backs
//! a plain backend or an HTTP serving session.

use charles::serve::http_request;
use charles::store::StorePredicate;
use charles::{
    voc_table, write_table, Advisor, Backend, DataType, DiskTable, ServeConfig, Server,
    TableBuilder, Value,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;
use common::poison_float_cell;

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "charles-persist-{tag}-{}-{}.charles",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

const CONTEXT: &str = "(type_of_boat: , tonnage: , departure_harbour: )";

/// Render advice to its stable comparison form: segmentations plus
/// entropy bits.
fn fingerprint(advice: &charles::Advice) -> Vec<(String, u64)> {
    advice
        .ranked
        .iter()
        .map(|r| (r.segmentation.to_string(), r.score.entropy.to_bits()))
        .collect()
}

#[test]
fn generate_save_load_advise_round_trip() {
    let table = voc_table(4_000, 77);
    let path = tmp_path("advise");
    write_table(&table, &path).unwrap();

    let reference = Advisor::new(&table).advise_str(CONTEXT).unwrap();
    assert!(!reference.ranked.is_empty());

    // Plain disk backend.
    let disk = DiskTable::open(&path).unwrap();
    let from_disk = Advisor::new(&disk).advise_str(CONTEXT).unwrap();
    assert_eq!(fingerprint(&from_disk), fingerprint(&reference));

    // Re-opened handle (fresh lazy state) → same again.
    let disk2 = DiskTable::open(&path).unwrap();
    let again = Advisor::new(&disk2).advise_str(CONTEXT).unwrap();
    assert_eq!(fingerprint(&again), fingerprint(&reference));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn nan_cells_in_a_loaded_file_do_not_break_the_seed_cuts() {
    // A raw-loaded Float column can carry NaN under a *valid* row. Order
    // statistics skip it like a null (median always did); when min/max
    // did not, the seed cut on `reading` got the right piece `[med, NaN]`,
    // which no row satisfies, and every row from the median up fell out
    // of the advice.
    const MARKER: f64 = 123_456.75;
    let mut b = TableBuilder::new("probe");
    b.add_column("reading", DataType::Float)
        .add_column("site", DataType::Str);
    for i in 0..400 {
        let reading = if i == 57 {
            MARKER
        } else {
            (i % 97) as f64 * 0.25
        };
        let site = ["north", "south", "east"][i % 3];
        b.push_row(vec![Value::Float(reading), Value::str(site)])
            .unwrap();
    }
    let path = tmp_path("nan");
    write_table(&b.finish(), &path).unwrap();
    poison_float_cell(&path, MARKER, f64::NAN);

    let disk = DiskTable::open(&path).unwrap();
    disk.verify().unwrap();
    let all = disk.eval(&StorePredicate::True).unwrap();
    assert_eq!(
        disk.min_max("reading", &all).unwrap(),
        Some((Value::Float(0.0), Value::Float(24.0)))
    );

    // No range piece can hold the NaN row, exactly as none holds a null:
    // a segmentation that cuts `reading` must still partition the rows
    // that have a reading, and any other one the whole context.
    let valued = StorePredicate::range(
        "reading",
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::INFINITY),
        true,
    );
    let valued = disk.eval(&valued).unwrap();
    assert_eq!(valued.count_ones(), 399);
    let advice = Advisor::new(&disk)
        .advise_str("(reading: , site: )")
        .unwrap();
    let mut cut_reading = 0;
    for r in &advice.ranked {
        let cuts_reading = r.segmentation.attributes().contains(&"reading");
        cut_reading += usize::from(cuts_reading);
        let context = if cuts_reading { &valued } else { &all };
        let report = r.segmentation.check_partition(&disk, context).unwrap();
        assert!(report.is_partition(), "{}: {report:?}", r.segmentation);
    }
    assert!(cut_reading > 0, "no advice on the poisoned column");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn server_boots_from_a_saved_file() {
    // The serving wire-up: a server whose backend is a lazily loaded
    // .charles file answers sessions exactly like one over the original
    // table.
    let table = voc_table(2_000, 78);
    let path = tmp_path("serve");
    write_table(&table, &path).unwrap();

    let disk: Arc<dyn Backend> = Arc::new(DiskTable::open(&path).unwrap());
    let server = Server::bind("127.0.0.1:0", disk, ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let (status, body) = http_request(addr, "POST", "/session", CONTEXT).unwrap();
    assert_eq!(status, 201, "{body}");

    // The advice payload served from disk is byte-identical to the
    // direct advisor run over the in-memory table.
    let direct = Advisor::new(&table)
        .advise(
            charles::parse_query(CONTEXT, table.schema())
                .unwrap()
                .canonicalized(),
        )
        .unwrap();
    let expected = charles::serve::json::encode_advice(&direct);
    assert!(
        body.contains(&expected),
        "served advice diverged from the in-memory oracle"
    );

    let (status, _) = http_request(addr, "POST", "/session/s1/drill", "0 0").unwrap();
    assert_eq!(status, 200);
    let (status, _) = http_request(addr, "DELETE", "/session/s1", "").unwrap();
    assert_eq!(status, 204);

    handle.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn dataset_by_path_sessions_over_real_http() {
    // The @path body over a real socket: a server with a dataset root
    // serves sessions from files clients name, with the documented
    // structured errors for bad paths.
    let root = std::env::temp_dir().join(format!(
        "charles-persist-root-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&root).unwrap();
    let table = voc_table(1_500, 79);
    write_table(&table, root.join("fleet.charles")).unwrap();

    let default_backend: Arc<dyn Backend> = Arc::new(voc_table(100, 1));
    let server = Server::bind(
        "127.0.0.1:0",
        default_backend,
        ServeConfig {
            dataset_root: Some(root.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    let body = format!("@fleet.charles\n{CONTEXT}");
    let (status, resp) = http_request(addr, "POST", "/session", &body).unwrap();
    assert_eq!(status, 201, "{resp}");
    // Advice comes from the 1500-row file, not the 100-row default.
    assert!(resp.contains("\"context_size\":1500"), "{resp}");

    // Escaping the root and naming a missing file both answer the
    // documented structured errors.
    let (status, resp) =
        http_request(addr, "POST", "/session", "@../escape.charles\n(tonnage: )").unwrap();
    assert!(status == 403 || status == 404, "{status} {resp}");
    assert!(
        resp.contains("\"code\":\"dataset_forbidden\"")
            || resp.contains("\"code\":\"no_such_dataset\""),
        "{resp}"
    );
    let (status, resp) =
        http_request(addr, "POST", "/session", "@missing.charles\n(tonnage: )").unwrap();
    assert_eq!(status, 404, "{resp}");
    assert!(resp.contains("\"code\":\"no_such_dataset\""), "{resp}");

    handle.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
