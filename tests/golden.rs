//! Golden advice bytes: "advice bytes unchanged" as a committed check.
//!
//! A fixed set of contexts over `datagen`'s three tables, a 16-column
//! `sweep_table` and a 64-row table built here for one tie — the shapes of the four benchmark workloads, one drill/back trail, the §5.1 ablations (memo off, analysis off, the row-store
//! backend) and a repeated attribute merged at admission — is advised
//! afresh and each advice
//! is rendered the three ways it leaves the advisor: the JSON object both
//! listeners serve, its CHRW payload (verbatim `f64` bits, in hex), and
//! its `backend_ops` / `cache` counters. `tests/golden/<case>.txt` holds
//! the committed rendering of every case; the test renders them afresh
//! and compares byte for byte.
//!
//! After a deliberate change to what the advisor answers or how it is
//! encoded, re-bless and review the diff — every moved byte or count
//! shows there:
//!
//! ```sh
//! CHARLES_BLESS_GOLDEN=1 cargo test --test golden
//! git diff tests/golden
//! ```

use charles::serve::json::encode_advice;
use charles::serve::wire::{WireAdvice, WireResponse, HEADER_LEN};
use charles::store::{Backend, DataType, RowTable, Table, TableBuilder, Value};
use charles::{astro_table, sweep_table, voc_table, weblog_table, Advice, Config, Session};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Rows and seed of every table the cases run on, bar `sweep`.
const ROWS: usize = 3_000;
const SEED: u64 = 7;

/// Rows and columns of the `sweep` table: the benchmark's `cold_wide`
/// table, narrowed to 16 columns.
const SWEEP_ROWS: usize = 4_000;
const SWEEP_COLUMNS: usize = 16;

/// Rows of the `ties` table.
const TIES_ROWS: usize = 64;

/// The one environment variable this test reads: set, it rewrites the
/// golden files from this build instead of comparing against them.
const BLESS_VAR: &str = "CHARLES_BLESS_GOLDEN";

#[derive(Clone, Copy)]
enum Step {
    Start(&'static str),
    Drill(usize, usize),
    Back,
}

#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    table: &'static str,
    config: fn() -> Config,
    steps: &'static [Step],
}

fn paper() -> Config {
    Config::default()
}

fn unmemoized() -> Config {
    Config::default().with_memoize(false)
}

fn unanalyzed() -> Config {
    Config::default().with_analysis(false)
}

const fn case(name: &'static str, table: &'static str, steps: &'static [Step]) -> Case {
    Case {
        name,
        table,
        config: paper,
        steps,
    }
}

const CASES: &[Case] = &[
    // cold_tall: a few VOC attributes, wildcard, range and set leaves.
    case(
        "cold_tall_wildcard",
        "voc",
        &[Step::Start("(type_of_boat: , tonnage: , built: )")],
    ),
    case(
        "cold_tall_range",
        "voc",
        &[Step::Start(
            "(tonnage: [252,902], departure_date: , trip: )",
        )],
    ),
    case(
        "cold_tall_set",
        "voc",
        &[Step::Start(
            "(type_of_boat: {fluit, jacht, pinas}, tonnage: , yard: , built: )",
        )],
    ),
    // cold_wide: every attribute of each table.
    case(
        "cold_wide_voc",
        "voc",
        &[Step::Start(
            "(type_of_boat: , tonnage: , built: , yard: , departure_date: , \
             departure_harbour: , cape_arrival: , trip: , master: )",
        )],
    ),
    case(
        "cold_wide_astro",
        "astro",
        &[Step::Start(
            "(ra: , dec: , magnitude: , redshift: , class: , survey: )",
        )],
    ),
    case(
        "cold_wide_weblog",
        "weblog",
        &[Step::Start(
            "(section: , method: , status: , bytes: , latency_ms: , country: , hour: )",
        )],
    ),
    // cold_wide at the benchmark's scale: 16 links of one dependency
    // chain, whose seed cuts and compositions tie on entropy often, so
    // `rank` reaches its rendered tie-break many times per advice.
    case(
        "cold_wide_sweep",
        "sweep",
        &[Step::Start(
            "(c0: , c1: , c2: , c3: , c4: , c5: , c6: , c7: , \
             c8: , c9: , c10: , c11: , c12: , c13: , c14: , c15: )",
        )],
    ),
    // session_drill: the benchmark's script — drill twice, back out
    // twice (cache hits), drill into the root's second segment.
    case(
        "session_drill_trail",
        "voc",
        &[
            Step::Start("(type_of_boat: , tonnage: [252,902], built: , departure_date: )"),
            Step::Drill(0, 0),
            Step::Drill(0, 0),
            Step::Back,
            Step::Back,
            Step::Drill(0, 1),
        ],
    ),
    // hot_wire: the same context again is a cache hit.
    case(
        "hot_wire_hit",
        "voc",
        &[
            Step::Start("(type_of_boat: {fluit, jacht}, tonnage: [252,902], trip: )"),
            Step::Start("(type_of_boat: {fluit, jacht}, tonnage: [252,902], trip: )"),
        ],
    ),
    case(
        "astro_narrowed",
        "astro",
        &[Step::Start(
            "(class: {star, galaxy}, magnitude: , redshift: )",
        )],
    ),
    case(
        "weblog_narrowed",
        "weblog",
        &[Step::Start(
            "(section: {home, search, product}, latency_ms: , country: , hour: )",
        )],
    ),
    // A context uniform in its one attribute: the end of a drill path,
    // an advice with nothing ranked.
    case(
        "uniform_leaf",
        "voc",
        &[Step::Start("(type_of_boat: {jacht})")],
    ),
    Case {
        name: "memo_off",
        table: "voc",
        config: unmemoized,
        steps: &[Step::Start(
            "(type_of_boat: , tonnage: , departure_harbour: )",
        )],
    },
    // §5.1's analysis ablation: the context reaches the advisor as
    // parsed, canonicalized only by the cache.
    Case {
        name: "analysis_off",
        table: "voc",
        config: unanalyzed,
        steps: &[Step::Start("(tonnage: [252,902], type_of_boat: , built: )")],
    },
    // Admission merges the two `tonnage` conjuncts into one before the
    // cache keys the context; the drilled segment and the step back
    // run on the merged form.
    case(
        "repeated_attrs",
        "voc",
        &[
            Step::Start("(tonnage: [0,1500], type_of_boat: , tonnage: [252,902], built: )"),
            Step::Drill(0, 0),
            Step::Back,
        ],
    ),
    // Two compositions that tie on entropy, breadth and simplicity and
    // share their first query, so `rank` orders them by a byte past it.
    // With analysis off `a` stays repeated: both seeds on it cut the
    // first `a`, and they cannot compose with each other, so one
    // composes with `b` and the other with `d`. The piece `a = 0` is
    // constant in `b` and `d`, so both compositions keep it whole. `c`
    // is independent of the rest: it composes with nothing, and only
    // keeps the candidates in the order that pairs the second `a` with
    // `d` rather than `d` with it (which would not compose).
    Case {
        name: "tie_past_first_query",
        table: "ties",
        config: unanalyzed,
        steps: &[Step::Start("(a: , a: , b: , c: , d: )")],
    },
    // E7's backend ablation: the VOC table as a row store.
    case(
        "row_store",
        "voc_rows",
        &[Step::Start(
            "(type_of_boat: , tonnage: , departure_harbour: , built: )",
        )],
    ),
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The advice payload of a CHRW `Advice` frame: the frame minus its
/// header and the (empty) session id's 4-byte length prefix.
fn chrw_payload(advice: &Advice) -> Vec<u8> {
    let mut frame = Vec::new();
    WireResponse::Advice {
        id: String::new(),
        advice: WireAdvice::from(advice),
    }
    .encode(&mut frame);
    frame.split_off(HEADER_LEN + 4)
}

/// One case rendered as its golden file; `shape` describes its table.
fn render(case: &Case, shape: &str, backend: &Arc<dyn Backend>) -> String {
    let config = (case.config)();
    let mut out = format!(
        "case: {}\ntable: {} ({shape})\nconfig: {config:?}\n",
        case.name, case.table
    );
    let mut session = Session::with_config(Arc::clone(backend), config);
    for (i, step) in case.steps.iter().enumerate() {
        let (label, advice) = match *step {
            Step::Start(sdl) => (format!("start {sdl}"), session.start(sdl)),
            Step::Drill(rank, seg) => (format!("drill {rank} {seg}"), session.drill(rank, seg)),
            Step::Back => ("back".to_string(), session.try_back()),
        };
        let advice = advice.unwrap_or_else(|e| panic!("{} step {i}: {e}", case.name));
        let _ = write!(
            out,
            "\nstep {i}: {label}\nbackend_ops: {:?}\ncache: {:?}\njson: {}\nchrw:\n",
            advice.backend_ops,
            advice.cache,
            encode_advice(advice)
        );
        for line in chrw_payload(advice).chunks(32) {
            for byte in line {
                let _ = write!(out, "{byte:02x}");
            }
            out.push('\n');
        }
    }
    out
}

/// `a` is 0 in the first half of the rows and 1 in the second; `b` and
/// `d` are 0 where `a` is, and otherwise each spread evenly over 1–4,
/// independently of one another; `c` alternates 0 and 1 on every row.
fn ties_table() -> Table {
    let mut b = TableBuilder::new("ties");
    for name in ["a", "b", "c", "d"] {
        b.add_column(name, DataType::Int);
    }
    let half = TIES_ROWS as i64 / 2;
    for i in 0..TIES_ROWS as i64 {
        let c = i % 2;
        let row = if i < half {
            [0, 0, c, 0]
        } else {
            let k = i - half;
            [1, 1 + k % 4, c, 1 + (k / 4) % 4]
        };
        b.push_row(row.into_iter().map(Value::Int).collect())
            .expect("schema");
    }
    b.finish()
}

/// Every case of `cases` rendered.
fn render_all(cases: &[Case]) -> Vec<(&'static str, String)> {
    let voc = voc_table(ROWS, SEED);
    let sweep = sweep_table(SWEEP_ROWS, SWEEP_COLUMNS, SEED);
    let seeded = |rows| format!("{rows} rows, seed {SEED}");
    let tables: [(&str, String, Arc<dyn Backend>); 6] = [
        (
            "voc_rows",
            seeded(ROWS),
            Arc::new(RowTable::from_table(&voc).unwrap()),
        ),
        ("voc", seeded(ROWS), Arc::new(voc)),
        ("astro", seeded(ROWS), Arc::new(astro_table(ROWS, SEED))),
        ("weblog", seeded(ROWS), Arc::new(weblog_table(ROWS, SEED))),
        ("sweep", seeded(SWEEP_ROWS), Arc::new(sweep)),
        (
            "ties",
            format!("{TIES_ROWS} rows, no seed"),
            Arc::new(ties_table()),
        ),
    ];
    cases
        .iter()
        .map(|case| {
            let (_, shape, backend) = tables
                .iter()
                .find(|(name, ..)| *name == case.table)
                .unwrap_or_else(|| panic!("no table {:?}", case.table));
            (case.name, render(case, shape, backend))
        })
        .collect()
}

/// Where `got` and `want` first part — line, column and a few dozen
/// characters of each from there — for the failure message.
fn first_difference(got: &str, want: &str) -> String {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    for n in 0..g.len().max(w.len()) {
        let (a, b) = (g.get(n).unwrap_or(&""), w.get(n).unwrap_or(&""));
        if a != b {
            let col = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
            let from =
                |s: &str| -> String { s.chars().skip(col.saturating_sub(20)).take(60).collect() };
            return format!(
                "line {}, column {}:\n  got:  …{}\n  want: …{}",
                n + 1,
                col + 1,
                from(a),
                from(b)
            );
        }
    }
    "no line differs (line endings?)".to_string()
}

#[test]
fn advice_bytes_match_the_goldens() {
    let dir = golden_dir();
    let rendered = render_all(CASES);
    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in &rendered {
            std::fs::write(dir.join(format!("{name}.txt")), text).unwrap();
        }
    }
    // No case file without a case; `cost_laws.txt` is `tests/cost_laws.rs`'s.
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != "cost_laws.txt")
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = CASES.iter().map(|c| format!("{}.txt", c.name)).collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "tests/golden/ holds exactly one file per case, and cost_laws.txt"
    );

    for (name, got) in &rendered {
        let path = dir.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with {BLESS_VAR}=1)", path.display()));
        assert!(
            *got == want,
            "golden {name} differs, {} — if the change is deliberate, re-bless with \
             {BLESS_VAR}=1 and review `git diff tests/golden`",
            first_difference(got, &want)
        );
    }

    // E7's ablation swaps the layout only: the row-store case renders
    // byte for byte like the same case over the column store — answers
    // and op counts — bar the `table:` line that names its table.
    let rows = CASES.iter().find(|c| c.name == "row_store").unwrap();
    let columns = [Case {
        table: "voc",
        ..*rows
    }];
    let untabled = |text: &str| -> String {
        let lines = text.lines().filter(|l| !l.starts_with("table: "));
        lines.collect::<Vec<_>>().join("\n")
    };
    let (_, got) = rendered
        .iter()
        .find(|(name, _)| *name == rows.name)
        .unwrap();
    let (got, want) = (untabled(got), untabled(&render_all(&columns)[0].1));
    assert!(
        got == want,
        "row_store differs from its case over voc, {}",
        first_difference(&got, &want)
    );
}
