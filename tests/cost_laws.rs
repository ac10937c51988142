//! The op-count law: §5.1's claim that Charles' database work is "counts
//! over predicates and median calculations", as exact counts a test
//! holds.
//!
//! Each cell advises a wildcard context over every column of one table —
//! `sweep_table(n, k, seed)` for k ∈ {2, 4, 8, 16, 24}, n ∈ {10³, 10⁴,
//! 10⁵} and seeds 6–8, then VOC, astro and weblog at the golden sizes —
//! and records what the run counted of itself (`Advice::backend_ops`,
//! `Advice::cache`) and how HB-cuts ended (its steps and stop reason).
//! `tests/golden/cost_laws.txt` holds the committed table; the test
//! renders it afresh and compares byte for byte, so a change that moves
//! one op of one cell shows there. The
//! n = 10³ cells and the datasets run on a `RowTable` copy too, whose
//! every line must be the column store's: the two engines differ in
//! layout only, not in the calls a run makes. Re-bless
//! a deliberate change like the other goldens:
//!
//! ```sh
//! CHARLES_BLESS_GOLDEN=1 cargo test --test cost_laws
//! git diff tests/golden/cost_laws.txt
//! ```
//!
//! On top of the table the test asserts the law the counts follow on a
//! sweep table, whose `k` attributes are all cuttable `Int`s and whose
//! wildcard context is the whole table (no context scan):
//!
//! * Every cut costs one median (its one-pass statistics) and, once its
//!   pieces are needed as bitmaps, one scan: the left half, the right
//!   half being what the left leaves of its parent (ADR 0009). Seeding
//!   cuts each attribute once: `k` scans and `k` medians.
//! * COMPOSE cuts each attribute of the right operand, in turn, in every
//!   piece the left operand and the attributes before it made. The
//!   pieces of every level but the last are scanned on the way. Where
//!   twice the last level's input pieces reach `max_depth` (or the pair
//!   is past `max_indep`), the last level is counted before it is cut:
//!   its inputs are scanned, as the cut would scan them, and each is
//!   asked whether it holds two distinct values (`Backend::varies`,
//!   neither a scan nor a median). A composition the count puts at
//!   `max_depth` or more stops the loop with no median and no frequency
//!   table taken on its last level; one below it is cut from the
//!   selections the count holds. An accepted composition's last level is
//!   scanned when it is resolved.
//! * On a sweep table every accepted step composes two seeds: a 2-piece
//!   left operand cut on one attribute, 2 cuts, 2 scans and 2 medians,
//!   4 pieces (2 · 2 < `max_depth` = 12: nothing is counted). The step
//!   that stops the loop composes two such 4-piece compositions: its
//!   first level cuts 4 pieces (4 medians) into 8, which are scanned (4
//!   scans, one per partitioning pair); 2 · 8 ≥ 12, so its last level is
//!   counted — every piece varies, depth 16 — and rejected. With
//!   `steps − 1` accepted steps that is
//!   `scans = k + 2·(steps − 1) + 4 = k + 2 + 2·steps` and
//!   `medians = k + 2·(steps − 1) + 4 = scans` for k ≥ 4: the stopping
//!   step costs the medians of its first level and the scans that
//!   materialise its last level's inputs, and nothing more. At k = 2
//!   the one step composes the two seeds, is accepted and leaves no
//!   pair (`ExhaustedCandidates`): 4 scans, 4 medians.
//! * `sel_misses = 2·scans`: each scan's left half and its complement.
//! * Each accepted step replaces two candidates by one and at most one
//!   more step is recorded (the one that stops the loop), so
//!   `steps ≤ k` whatever the rows: ops per advice have a row-independent
//!   ceiling, linear in k. INDEP probes, the core's pairwise counting,
//!   stay inside a k² envelope.
//!
//! The three datasets mix nominal attributes in (a frequency cut is a
//! scan without a median) and their contexts stop on other criteria;
//! their cells are recorded, and the law is not asserted of them.
//!
//! The counts belong to the run, not to the backend: two runs racing on
//! one table each count what they count alone.

use charles::advisor::StopReason;
use charles::{
    astro_table, sweep_table, voc_table, weblog_table, Advice, Advisor, Backend, Query, RowTable,
    Table,
};
use std::fmt::Write as _;
use std::path::Path;

/// The sweep's grid.
const KS: [usize; 5] = [2, 4, 8, 16, 24];
const NS: [usize; 3] = [1_000, 10_000, 100_000];
const SEEDS: [u64; 3] = [6, 7, 8];

/// The golden tests' table size and seed, for the three datasets.
const ROWS: usize = 3_000;
const SEED: u64 = 7;

/// A dataset generator: rows and seed to table.
type Make = fn(usize, u64) -> Table;

const BLESS_VAR: &str = "CHARLES_BLESS_GOLDEN";

/// The counts of one cell.
#[derive(Clone)]
struct Cell {
    name: String,
    k: usize,
    scans: u64,
    medians: u64,
    sel_misses: u64,
    indep_probes: u64,
    steps: u64,
    stop: Option<StopReason>,
}

/// Advise the wildcard context over every column of `table`.
fn advise(table: &dyn Backend) -> Advice {
    let columns: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| format!("{}: ", c.name))
        .collect();
    let sdl = format!("({})", columns.join(", "));
    Advisor::new(table)
        .advise_str(&sdl)
        .unwrap_or_else(|e| panic!("{sdl}: {e}"))
}

/// `table`'s counts.
fn cell(name: String, table: &dyn Backend) -> Cell {
    let advice = advise(table);
    Cell {
        name,
        k: table.schema().arity(),
        scans: advice.backend_ops.scans,
        medians: advice.backend_ops.medians,
        sel_misses: advice.cache.sel_misses,
        indep_probes: advice.cache.indep_misses,
        steps: advice.trace.steps.len() as u64,
        stop: advice.trace.stop,
    }
}

/// A cell of the column store and the same cell of its row-store copy.
type Twins = (Cell, Cell);

/// Every sweep cell, then the three datasets; and the n = 10³ cells and
/// the datasets on both engines.
fn cells() -> (Vec<Cell>, Vec<Cell>, Vec<Twins>) {
    let mut twins = Vec::new();
    let mut both = |name: String, table: &Table| {
        let column = cell(name.clone(), table);
        let rows = RowTable::from_table(table).unwrap();
        twins.push((column.clone(), cell(name, &rows)));
        column
    };
    let mut sweep = Vec::new();
    for &n in &NS {
        for &k in &KS {
            for &seed in &SEEDS {
                let name = format!("sweep n={n} k={k} seed={seed}");
                let table = sweep_table(n, k, seed);
                sweep.push(if n == NS[0] {
                    both(name, &table)
                } else {
                    cell(name, &table)
                });
            }
        }
    }
    let datasets: [(&str, Make); 3] = [
        ("voc", voc_table),
        ("astro", astro_table),
        ("weblog", weblog_table),
    ];
    let datasets = datasets
        .map(|(name, make)| both(format!("{name} n={ROWS} seed={SEED}"), &make(ROWS, SEED)));
    (sweep, datasets.into(), twins)
}

/// One cell's line of the golden table.
fn line(c: &Cell) -> String {
    format!(
        "{}: scans={} medians={} sel_misses={} indep_probes={} steps={} stop={:?}",
        c.name, c.scans, c.medians, c.sel_misses, c.indep_probes, c.steps, c.stop
    )
}

/// The golden table.
fn render<'a>(cells: impl Iterator<Item = &'a Cell>) -> String {
    let mut out = String::from("# cell: scans medians sel_misses indep_probes steps stop\n");
    for c in cells {
        let _ = writeln!(out, "{}", line(c));
    }
    out
}

#[test]
fn op_counts_match_the_golden_and_follow_the_affine_law() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_laws.txt");
    let (sweep, datasets, twins) = cells();
    let all = || sweep.iter().chain(&datasets);
    let got = render(all());
    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with {BLESS_VAR}=1)", path.display()));
    assert!(
        got == want,
        "op counts moved: re-bless with {BLESS_VAR}=1 if deliberate and review \
         `git diff tests/golden/cost_laws.txt`"
    );

    for c in &sweep {
        let k = c.k as u64;
        let (scans, medians) = if k == 2 {
            (4, 4)
        } else {
            (k + 2 + 2 * c.steps, k + 2 + 2 * c.steps)
        };
        assert_eq!(
            (c.scans, c.medians),
            (scans, medians),
            "{}: the affine law",
            c.name
        );
        assert_eq!(c.sel_misses, 2 * c.scans, "{}", c.name);
        assert!(1 <= c.steps && c.steps <= k, "{}: steps ≤ k", c.name);
        assert!(c.indep_probes <= k * k, "{}: INDEP probes ≤ k²", c.name);
    }

    // One layout or the other, the same calls.
    assert_eq!(twins.len(), KS.len() * SEEDS.len() + 3);
    for (column, rows) in &twins {
        assert_eq!(line(rows), line(column), "the row store");
    }
}

#[test]
fn concurrent_runs_on_one_table_count_only_their_own_backend_ops() {
    // Two advice runs on different contexts share one table, started
    // together round after round: each reports the counts it reports
    // alone. The counts belong to the run, not to the backend, so one
    // run can neither zero nor inflate the other's.
    let t = &voc_table(4_000, 99);
    let ctxs = [
        "(type_of_boat: , tonnage: , departure_harbour: , trip: )",
        "(type_of_boat: {fluit, jacht, pinas}, tonnage: [200,1000], departure_harbour: , trip: )",
    ]
    .map(|sdl| charles::parse_query(sdl, Backend::schema(t)).unwrap());
    let advise = |ctx: &Query| {
        let advice = Advisor::new(t).advise(ctx.clone()).unwrap();
        (advice.backend_ops, advice.cache)
    };
    let solo = ctxs.each_ref().map(advise);
    let start = std::sync::Barrier::new(2);
    let raced = std::thread::scope(|scope| {
        let rounds = ctxs.each_ref().map(|ctx| {
            let start = &start;
            scope.spawn(move || {
                (0..8)
                    .map(|_| {
                        start.wait();
                        advise(ctx)
                    })
                    .collect::<Vec<_>>()
            })
        });
        rounds.map(|run| run.join().unwrap())
    });
    for ((ctx, solo), raced) in ctxs.iter().zip(solo).zip(raced) {
        for (round, ops) in raced.into_iter().enumerate() {
            assert_eq!(ops, solo, "{ctx}, round {round}");
        }
    }
}
