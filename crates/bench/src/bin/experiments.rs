//! The experiment harness: regenerates every table/figure of the paper.
//!
//! ```sh
//! cargo run -p charles-bench --bin experiments --release            # all
//! cargo run -p charles-bench --bin experiments --release -- e5 e6  # some
//! cargo run -p charles-bench --bin experiments --release -- e4 --dataset voc.charles
//! ```
//!
//! The experiment ids (E1–E12) are the list in `main`; each `eN_*`
//! function's doc names the figure or section of the paper whose rows
//! it prints. `--dataset <path>` points the advisor
//! experiments (E4's Figure 1 panel and E7's backend ablation) at a
//! saved `.charles` file instead of the synthetic VOC register — write
//! one with `cargo run -p charles-datagen --bin datagen`.

#![forbid(unsafe_code)]

use charles_bench::baselines::{
    clique_clusters, exhaustive_segmentations, facet_segmentations, random_segmentations,
    CliqueOptions, ExhaustiveOptions, RandomOptions,
};
use charles_bench::{
    adaptive_segmentations, explorer_over, fmt_duration, header, homogeneity, quantile_cut_query,
    rank_by_surprise, row, surprise, time_once, AdaptiveOptions,
};
use charles_core::{
    compose, cut_segmentation, hb_cuts, indep, product, Advisor, Config, Explorer, LazyGenerator,
    MedianStrategy,
};
use charles_datagen::{
    astro_table, correlated_pair_table, sweep_table, voc_table, weblog_table, DependencyKind,
};
use charles_sdl::{eval, Query, Segmentation};
use charles_store::{Backend, DataType, RowTable, Table, TableBuilder, Value};
use charles_viz::render_panel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset: Option<PathBuf> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--dataset" {
            let path = it.next().unwrap_or_else(|| {
                eprintln!("--dataset requires a path to a .charles file");
                std::process::exit(2);
            });
            dataset = Some(PathBuf::from(path));
        } else {
            args.push(a.to_lowercase());
        }
    }
    // The one list of ids: what is valid and what runs, in order.
    let experiments: [(&str, &dyn Fn()); 12] = [
        ("e1", &e1_figure2),
        ("e2", &e2_figure3),
        ("e3", &e3_figure4),
        ("e4", &|| e4_figure1(dataset.as_deref())),
        ("e5", &e5_horizontal),
        ("e6", &e6_vertical),
        ("e7", &|| e7_backend(dataset.as_deref())),
        ("e8", &e8_indep),
        ("e9", &e9_quality),
        ("e10", &e10_quantile),
        ("e11", &e11_lazy),
        ("e12", &e12_homogeneity_surprise),
    ];
    // Reject before running anything: a misspelt or retired id must not
    // pass vacuously.
    if let Some(bad) = args
        .iter()
        .find(|a| !experiments.iter().any(|(id, _)| id == a))
    {
        let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment id {bad:?}; valid ids: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    for (id, run) in experiments {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}

fn banner(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id} — {title}");
    println!("==================================================================");
}

/// E1 — Figure 2: CUT, COMPOSE and PRODUCT on the boats example.
fn e1_figure2() {
    banner(
        "E1",
        "Figure 2: cut, composition and product of segmentations",
    );
    let mut b = TableBuilder::new("boats");
    b.add_column("type", DataType::Str)
        .add_column("tonnage", DataType::Int)
        .add_column("year", DataType::Int);
    for (ty, t, y) in [
        ("fluit", 1200, 1700),
        ("fluit", 1800, 1720),
        ("fluit", 2500, 1736),
        ("fluit", 4000, 1744),
        ("jacht", 1500, 1750),
        ("jacht", 2800, 1760),
        ("jacht", 3500, 1770),
        ("jacht", 4800, 1780),
    ] {
        b.push_row(vec![Value::str(ty), Value::Int(t), Value::Int(y)])
            .unwrap();
    }
    let t = b.finish();
    let ex = Explorer::new(
        &t,
        Config::default(),
        Query::wildcard(&["type", "tonnage", "year"]),
    )
    .unwrap();
    let base = Segmentation::singleton(ex.context().clone());
    let a = cut_segmentation(&ex, &base, "type").unwrap().unwrap();
    let bb = cut_segmentation(&ex, &base, "year").unwrap().unwrap();

    let show = |name: &str, s: &Segmentation| {
        println!("\n{name}:");
        for q in s.queries() {
            println!("  {:>2} rows  {q}", ex.count(q).unwrap());
        }
        println!(
            "  E = {:.3}, partition = {}",
            charles_core::entropy(&ex, s).unwrap(),
            s.check_partition(ex.backend(), ex.context_selection())
                .unwrap()
                .is_partition()
        );
    };
    show("set A (cut on type)", &a);
    show("set B (cut on year)", &bb);
    show(
        "CUT_tonnage(A)",
        &cut_segmentation(&ex, &a, "tonnage").unwrap().unwrap(),
    );
    show("COMPOSE(A, B)", &compose(&ex, &a, &bb).unwrap().unwrap());
    show(
        "A × B (empty cells pruned)",
        &product(&ex, &a, &bb).unwrap(),
    );
    println!(
        "\nINDEP(A, B) = {:.3}  (≪ 1: type and year are dependent, as the figure intends)",
        indep(&ex, &a, &bb).unwrap()
    );
}

/// E2 — Figure 3: the HB-cuts execution tree on five attributes.
fn e2_figure3() {
    banner(
        "E2",
        "Figure 3: example execution of HB-cuts (5 attributes)",
    );
    let mut rng = StdRng::seed_from_u64(42);
    let mut b = TableBuilder::new("t");
    for name in ["att1", "att2", "att3", "att4", "att5"] {
        b.add_column(name, DataType::Int);
    }
    for _ in 0..5000 {
        let a2: i64 = rng.gen_range(0..100);
        let a3 = a2 + rng.gen_range(-3i64..=3);
        let a1 = a2 / 2 + rng.gen_range(-2i64..=2);
        let a4: i64 = rng.gen_range(0..100);
        let a5 = a4 + rng.gen_range(-3i64..=3);
        b.push_row(vec![
            Value::Int(a1),
            Value::Int(a2),
            Value::Int(a3),
            Value::Int(a4),
            Value::Int(a5),
        ])
        .unwrap();
    }
    let t = b.finish();
    let ex = explorer_over(&t, Config::default(), 5);
    let out = hb_cuts(&ex).unwrap();
    println!(
        "seeds: {:?}  (skipped: {:?})",
        out.trace.seeds, out.trace.skipped
    );
    for step in &out.trace.steps {
        println!(
            "  {} {:?} × {:?}  INDEP={:.3} depth={}",
            if step.accepted { "compose" } else { "REJECT " },
            step.left_attrs,
            step.right_attrs,
            step.indep,
            step.depth
        );
    }
    println!(
        "stop: {:?}; returned {} segmentations (paper's figure: 8)",
        out.trace.stop,
        out.ranked.len()
    );
    for (i, r) in out.ranked.iter().enumerate() {
        println!(
            "  #{i} E={:.3} attrs={:?} depth={}",
            r.score.entropy,
            r.segmentation.attributes(),
            r.segmentation.depth()
        );
    }
}

/// E3 — Figure 4: stopping-criteria conformance.
fn e3_figure4() {
    banner("E3", "Figure 4: algorithm conformance (stopping criteria)");
    let t = voc_table(10_000, 11);
    header(&["maxIndep", "maxDepth", "answers", "compositions", "stop"]);
    for (mi, md) in [(0.0, 12), (0.99, 12), (1.0, 12), (0.99, 4), (1.0, 64)] {
        let cfg = Config::default().with_max_indep(mi).with_max_depth(md);
        let ex = Explorer::new(
            &t,
            cfg,
            Query::wildcard(&[
                "type_of_boat",
                "tonnage",
                "departure_harbour",
                "cape_arrival",
                "built",
            ]),
        )
        .unwrap();
        let out = hb_cuts(&ex).unwrap();
        row(&[
            format!("{mi}"),
            format!("{md}"),
            format!("{}", out.ranked.len()),
            format!("{}", out.trace.steps.iter().filter(|s| s.accepted).count()),
            format!("{:?}", out.trace.stop.unwrap()),
        ]);
    }
}

/// E4 — Figure 1: the advisor interface on the VOC data (or, with
/// `--dataset <path>`, on a saved `.charles` file served lazily).
fn e4_figure1(dataset: Option<&Path>) {
    let (ships, label): (Box<dyn Backend>, String) = match dataset {
        None => (
            Box::new(voc_table(20_000, 1713)),
            "synthetic VOC shipping data".into(),
        ),
        Some(path) => {
            let disk =
                Table::open(path).unwrap_or_else(|e| panic!("cannot open dataset {path:?}: {e}"));
            let label = format!("{:?} ({} rows, from disk)", disk.name(), disk.len());
            (Box::new(disk), label)
        }
    };
    banner("E4", &format!("Figure 1: the Charles interface on {label}"));
    let ships = ships.as_ref();
    // The default run keeps the exact Figure 1 context (the five
    // attributes of the paper's panel); a --dataset run cannot assume
    // those attribute names and takes a wildcard over the first five
    // columns instead.
    let context = match dataset {
        None => charles_sdl::parse_query(
            "(type_of_boat: , tonnage: , departure_harbour: , cape_arrival: , built: )",
            ships.schema(),
        )
        .unwrap(),
        Some(_) => charles_bench::context_over(ships, 5.min(ships.schema().arity())),
    };
    let advisor = Advisor::new(ships);
    let advice = match advisor.advise(context) {
        Ok(a) => a,
        Err(e) => {
            // A degenerate --dataset (empty, uniform) is an advisor
            // error, not a harness crash.
            println!("advisor could not segment this dataset: {e}");
            return;
        }
    };
    println!(
        "{}",
        render_panel(ships, &advice, 0, 110).expect("panel renders")
    );
    println!(
        "backend ops: {} scans, {} counts, {} medians; cache: {} hits / {} misses",
        advice.backend_ops.scans,
        advice.backend_ops.counts,
        advice.backend_ops.medians,
        advice.cache.sel_hits,
        advice.cache.sel_misses
    );
}

/// E5 — §5.1 horizontal scalability + memoization ablation + the
/// exhaustive-search wall.
fn e5_horizontal() {
    banner(
        "E5",
        "horizontal scalability: runtime vs #attributes (50k rows)",
    );
    header(&[
        "attrs",
        "hb-cuts",
        "hb (no memo)",
        "answers",
        "exhaustive",
        "exh answers",
    ]);
    for k in [2usize, 4, 6, 8, 10, 12] {
        let t = sweep_table(50_000, k, 5);
        let (d_memo, out) = time_once(|| {
            let ex = explorer_over(&t, Config::default(), k);
            hb_cuts(&ex).unwrap()
        });
        // What the ablation switches off is the §5.1 reuse *between
        // INDEP probes*: no pair value and no resolved operand survives
        // an iteration, so every probe of every round re-evaluates both
        // operands' pieces as whole conjunctions (at 12 attributes ≈ 12×
        // the run time, all of it those scans). CUT and COMPOSE are the
        // same in both columns — a piece inheriting its parent's bitmap
        // is what a conjunction is, not a memo.
        let (d_nomemo, _) = time_once(|| {
            let ex = explorer_over(&t, Config::default().with_memoize(false), k);
            hb_cuts(&ex).unwrap()
        });
        // Exhaustive enumeration only up to 8 attributes (2^k explosion).
        let (d_exh, n_exh) = if k <= 8 {
            let (d, r) = time_once(|| {
                let ex = explorer_over(&t, Config::default(), k);
                exhaustive_segmentations(
                    &ex,
                    ExhaustiveOptions {
                        max_subset: k,
                        max_depth: 16,
                    },
                )
                .unwrap()
            });
            (fmt_duration(d), format!("{}", r.len()))
        } else {
            ("—".into(), "—".into())
        };
        row(&[
            format!("{k}"),
            fmt_duration(d_memo),
            fmt_duration(d_nomemo),
            format!("{}", out.ranked.len()),
            d_exh,
            n_exh,
        ]);
    }
}

/// E6 — §5.1 vertical scalability + §5.2 sampled medians ablation.
fn e6_vertical() {
    banner(
        "E6",
        "vertical scalability: runtime vs #tuples (4 attributes)",
    );
    header(&["rows", "exact medians", "sampled (1k)", "entropy Δ"]);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let t = sweep_table(n, 4, 6);
        let (d_exact, out_exact) = time_once(|| {
            let ex = explorer_over(&t, Config::default(), 4);
            hb_cuts(&ex).unwrap()
        });
        let (d_sample, out_sample) = time_once(|| {
            let ex = explorer_over(
                &t,
                Config::default().with_median(MedianStrategy::Sampled {
                    size: 1024,
                    seed: 9,
                }),
                4,
            );
            hb_cuts(&ex).unwrap()
        });
        let delta = (out_exact.ranked[0].score.entropy - out_sample.ranked[0].score.entropy).abs();
        row(&[
            format!("{n}"),
            fmt_duration(d_exact),
            fmt_duration(d_sample),
            format!("{delta:.4}"),
        ]);
    }
}

/// E7 — §5.1 "column stores suit Charles' workload": column vs row engine
/// (plus, under `--dataset`, the lazily loaded `.charles` file itself).
fn e7_backend(dataset: Option<&Path>) {
    banner("E7", "backend ablation: columnar vs row-store engine");
    let (col, disk): (Table, Option<Table>) = match dataset {
        None => (voc_table(200_000, 7), None),
        Some(path) => {
            let open = || {
                Table::open(path).unwrap_or_else(|e| panic!("cannot open dataset {path:?}: {e}"))
            };
            // Two handles: the row store below loads every column of the
            // first, so only a fresh one measures the lazy engine's
            // first-touch I/O.
            (open(), Some(open()))
        }
    };
    let rowstore = RowTable::from_table(&col).expect("load the dataset into the row store");
    let context = match dataset {
        None => "(type_of_boat: , tonnage: , departure_harbour: , built: )".to_string(),
        Some(_) => charles_bench::context_over(&col, 4.min(col.schema().arity())).to_string(),
    };
    let mut engines: Vec<(&str, &dyn Backend)> = vec![("columnar", &col), ("row-store", &rowstore)];
    if let Some(d) = &disk {
        engines.push(("disk (lazy)", d));
    }

    header(&["engine", "advise time", "scans", "counts", "medians"]);
    for (name, backend) in &engines {
        let advisor = Advisor::new(*backend);
        let (d, advice) = time_once(|| advisor.advise_str(&context));
        match advice {
            Ok(advice) => row(&[
                name.to_string(),
                fmt_duration(d),
                format!("{}", advice.backend_ops.scans),
                format!("{}", advice.backend_ops.counts),
                format!("{}", advice.backend_ops.medians),
            ]),
            // Degenerate datasets (empty, uniform) are advisor errors,
            // not harness crashes — report and move on.
            Err(e) => row(&[
                name.to_string(),
                format!("({e})"),
                "—".into(),
                "—".into(),
                "—".into(),
            ]),
        }
    }

    // Microbenchmark: one predicate count + one median, per engine. The
    // default run pins the historical VOC predicate; a --dataset run
    // derives an interquartile range over the first numeric column.
    let micro = match dataset {
        None => Some(("tonnage".to_string(), "(tonnage: [300,700])".to_string())),
        // First numeric column that actually has values (quantile is
        // None for empty or all-null columns — skip those rather than
        // panic on a degenerate dataset).
        Some(_) => col
            .schema()
            .columns()
            .iter()
            .filter(|c| c.ty.is_numeric())
            .find_map(|c| {
                let all = col.all_rows();
                let lo = col.quantile(&c.name, &all, 0.25).ok().flatten()?;
                let hi = col.quantile(&c.name, &all, 0.75).ok().flatten()?;
                Some((c.name.clone(), format!("({}: [{},{}])", c.name, lo, hi)))
            }),
    };
    if let Some((attr, pred_text)) = micro {
        println!(
            "\nper-operation microbenchmark ({} rows, {pred_text}):",
            col.len()
        );
        header(&["engine", "count(pred)", "median(sel)"]);
        let q = charles_sdl::parse_query(&pred_text, col.schema()).unwrap();
        let pred = eval::lower(&q);
        for (name, backend) in &engines {
            let d_count = charles_bench::time_mean(20, || backend.count(&pred).unwrap());
            let sel = backend.eval(&pred).unwrap();
            let d_median = charles_bench::time_mean(20, || backend.median(&attr, &sel).unwrap());
            row(&[
                name.to_string(),
                fmt_duration(d_count),
                fmt_duration(d_median),
            ]);
        }
    }
}

/// E8 — Proposition 1: the INDEP dial.
fn e8_indep() {
    banner(
        "E8",
        "Proposition 1: INDEP vs controlled dependency (40k rows)",
    );
    header(&["noise", "INDEP", "compositions", "stop"]);
    for step in 0..=10 {
        let noise = step as f64 / 10.0;
        let kind = match step {
            0 => DependencyKind::Functional,
            10 => DependencyKind::Independent,
            _ => DependencyKind::Noisy { noise },
        };
        let t = correlated_pair_table(40_000, 64, kind, 1000 + step);
        let ex = explorer_over(&t, Config::default(), 2);
        let base = Segmentation::singleton(ex.context().clone());
        let sa = cut_segmentation(&ex, &base, "a").unwrap().unwrap();
        let sb = cut_segmentation(&ex, &base, "b").unwrap().unwrap();
        let v = indep(&ex, &sa, &sb).unwrap();
        let out = hb_cuts(&ex).unwrap();
        row(&[
            format!("{noise:.1}"),
            format!("{v:.4}"),
            format!("{}", out.trace.steps.iter().filter(|s| s.accepted).count()),
            format!("{:?}", out.trace.stop.unwrap()),
        ]);
    }
}

/// E9 — quality comparison across methods and datasets.
fn e9_quality() {
    banner("E9", "quality: HB-cuts vs baselines (20k rows per dataset)");
    let datasets: Vec<(&str, Table, usize)> = vec![
        ("voc", voc_table(20_000, 21), 5),
        ("astro", astro_table(20_000, 22), 5),
        ("weblog", weblog_table(20_000, 23), 5),
    ];
    for (name, t, k) in &datasets {
        println!("\ndataset: {name}");
        header(&[
            "method",
            "time",
            "best E",
            "balance",
            "breadth",
            "simplicity",
            "answers",
        ]);
        let describe = |label: &str, d: std::time::Duration, ranked: &[charles_core::Ranked]| {
            if let Some(best) = ranked.first() {
                row(&[
                    label.to_string(),
                    fmt_duration(d),
                    format!("{:.3}", best.score.entropy),
                    format!("{:.3}", best.score.balance()),
                    format!("{}", best.score.breadth),
                    format!("{}", best.score.simplicity),
                    format!("{}", ranked.len()),
                ]);
            }
        };
        {
            let ex = explorer_over(t, Config::default(), *k);
            let (d, out) = time_once(|| hb_cuts(&ex).unwrap());
            describe("hb-cuts", d, &out.ranked);
        }
        {
            let ex = explorer_over(t, Config::default(), *k);
            let (d, out) = time_once(|| facet_segmentations(&ex, 8).unwrap());
            describe("facets", d, &out);
        }
        {
            let ex = explorer_over(t, Config::default(), *k);
            let (d, out) = time_once(|| {
                random_segmentations(
                    &ex,
                    RandomOptions {
                        count: 8,
                        target_depth: 8,
                        seed: 3,
                    },
                )
                .unwrap()
            });
            describe("random", d, &out);
        }
        {
            let ex = explorer_over(t, Config::default(), *k);
            let (d, out) = time_once(|| {
                adaptive_segmentations(
                    &ex,
                    AdaptiveOptions {
                        restarts: 8,
                        target_depth: 8,
                        exploration: 0.9,
                        seed: 4,
                    },
                )
                .unwrap()
            });
            describe("adaptive", d, &out);
        }
        {
            let ex = explorer_over(t, Config::default(), *k);
            let (d, out) = time_once(|| {
                exhaustive_segmentations(
                    &ex,
                    ExhaustiveOptions {
                        max_subset: 3,
                        max_depth: 16,
                    },
                )
                .unwrap()
            });
            describe("exhaustive≤3", d, &out);
        }
        {
            let ex = explorer_over(t, Config::default(), *k);
            let (d, cells) = time_once(|| clique_clusters(&ex, CliqueOptions::default()).unwrap());
            row(&[
                "clique".to_string(),
                fmt_duration(d),
                "—".into(),
                "—".into(),
                format!("{}", cells.iter().map(|c| c.dims).max().unwrap_or(0)),
                "—".into(),
                format!("{} cells", cells.len()),
            ]);
        }
    }
}

/// E10 — §5.2 quantile cuts: "there is no way to obtain a pie-chart
/// displaying the second third of the population" with median cuts.
///
/// Observable: how well any piece of each method matches the population's
/// middle rank band [1/3, 2/3] (Jaccard overlap in rank space). Median
/// cuts always place a boundary at rank 0.5 — inside the band — so they
/// can never isolate it; tercile cuts hit it exactly. We also report
/// the value-width of the matching piece: the Gaussian middle third is
/// value-narrow but population-dense, which is why the paper wants it.
fn e10_quantile() {
    banner(
        "E10",
        "quantile cuts: isolating the dense second third (50k Gaussian rows)",
    );
    let mut rng = StdRng::seed_from_u64(5);
    let mut b = TableBuilder::new("gauss");
    b.add_column("size", DataType::Float);
    for _ in 0..50_000 {
        let g: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        b.push_row(vec![Value::Float(g * 10.0 + 100.0)]).unwrap();
    }
    let gauss = b.finish();
    let ex = Explorer::new(&gauss, Config::default(), Query::wildcard(&["size"])).unwrap();
    let n = ex.context_size() as f64;

    // Rank band [a, b] of a piece: fraction of rows strictly below its
    // bounds. Jaccard overlap with the middle third [1/3, 2/3].
    let rank_band = |q: &Query| -> (f64, f64) {
        let sel = ex.selection(q).unwrap();
        let (lo, hi) = ex.backend().min_max("size", &sel).unwrap().unwrap();
        let below = |v: &Value| {
            let p = charles_sdl::Constraint::range_with(
                Value::Float(f64::NEG_INFINITY),
                v.clone(),
                false,
            )
            .unwrap();
            let q = ex.context().refined("size", p).unwrap();
            ex.count(&q).unwrap() as f64 / n
        };
        (below(&lo), below(&hi))
    };
    let jaccard_middle = |band: (f64, f64)| -> f64 {
        let (a, b) = band;
        let (lo, hi) = (1.0 / 3.0, 2.0 / 3.0);
        let inter = (b.min(hi) - a.max(lo)).max(0.0);
        let union = (b.max(hi) - a.min(lo)).max(1e-12);
        inter / union
    };
    let piece_width = |q: &Query| -> f64 {
        let sel = ex.selection(q).unwrap();
        let (lo, hi) = ex.backend().min_max("size", &sel).unwrap().unwrap();
        hi.as_f64().unwrap() - lo.as_f64().unwrap()
    };

    header(&["method", "pieces", "best Jaccard", "piece width", "entropy"]);
    // Median route: iterated binary cuts to 4 pieces — bands are the
    // quartiles; the best match of [1/3,2/3] is [1/4,1/2] or [1/2,3/4].
    let mut med = Segmentation::singleton(ex.context().clone());
    for _ in 0..2 {
        med = cut_segmentation(&ex, &med, "size").unwrap().unwrap();
    }
    let (best_j_med, width_med) = med
        .queries()
        .iter()
        .map(|q| (jaccard_middle(rank_band(q)), piece_width(q)))
        .fold((0.0f64, 0.0f64), |acc, x| if x.0 > acc.0 { x } else { acc });
    row(&[
        "median cuts".into(),
        format!("{}", med.depth()),
        format!("{best_j_med:.3}"),
        format!("{width_med:.1}"),
        format!("{:.3}", charles_core::entropy(&ex, &med).unwrap()),
    ]);
    // Quantile route: terciles isolate the band exactly.
    let terciles = Segmentation::new(
        quantile_cut_query(&ex, ex.context(), "size", 3)
            .unwrap()
            .expect("cuttable"),
    );
    let (best_j_q, width_q) = terciles
        .queries()
        .iter()
        .map(|q| (jaccard_middle(rank_band(q)), piece_width(q)))
        .fold((0.0f64, 0.0f64), |acc, x| if x.0 > acc.0 { x } else { acc });
    row(&[
        "terciles".into(),
        format!("{}", terciles.depth()),
        format!("{best_j_q:.3}"),
        format!("{width_q:.1}"),
        format!("{:.3}", charles_core::entropy(&ex, &terciles).unwrap()),
    ]);

    println!("\nGaussian terciles (the paper's dense second third):");
    for q in terciles.queries() {
        println!(
            "  {:>6} rows  width {:>6.1}  {}",
            ex.count(q).unwrap(),
            piece_width(q),
            q
        );
    }
    println!(
        "\nmedian cuts put a boundary at rank 0.50 — inside the middle third —\n\
         so no median-route piece can reach Jaccard 1.0; terciles do."
    );

    // Discrete skew: on weblog.hour the diurnal mass makes equal-width
    // facet bins lopsided while equi-depth quantiles stay balanced.
    let weblog = weblog_table(50_000, 31);
    let exw = Explorer::new(&weblog, Config::default(), Query::wildcard(&["hour"])).unwrap();
    let quart = Segmentation::new(
        quantile_cut_query(&exw, exw.context(), "hour", 4)
            .unwrap()
            .expect("cuttable"),
    );
    println!(
        "\nweblog.hour 4-quantiles: E = {:.3} over {} pieces (ln 4 = {:.3})",
        charles_core::entropy(&exw, &quart).unwrap(),
        quart.depth(),
        4f64.ln()
    );
}

/// E12 — the measures the paper left open: homogeneity (§3's deliberate
/// gap) and surprise (§5.2's "interestingness"). Checks the paper's bet
/// that dependency-directed cuts create "good enough" groups without a
/// clustering objective: HB-cuts must beat random splits on homogeneity.
fn e12_homogeneity_surprise() {
    banner(
        "E12",
        "homogeneity & surprise: scoring the paper's structural bet",
    );
    let datasets: Vec<(&str, Table, usize)> = vec![
        ("voc", voc_table(20_000, 41), 5),
        ("astro", astro_table(20_000, 42), 5),
        ("weblog", weblog_table(20_000, 43), 5),
    ];
    header(&["dataset", "method", "homogeneity", "surprise", "entropy"]);
    for (name, t, k) in &datasets {
        let ex = explorer_over(t, Config::default(), *k);
        let hb = hb_cuts(&ex).unwrap();
        let best = &hb.ranked[0];
        let h = homogeneity(&ex, &best.segmentation).unwrap();
        let s = surprise(&ex, &best.segmentation).unwrap();
        row(&[
            name.to_string(),
            "hb-cuts".into(),
            format!("{:.3}", h.mean_gain),
            format!("{:.3}", s.weighted),
            format!("{:.3}", best.score.entropy),
        ]);
        let rand = random_segmentations(
            &ex,
            RandomOptions {
                count: 6,
                target_depth: best.segmentation.depth().max(2),
                seed: 13,
            },
        )
        .unwrap();
        let mut h_sum = 0.0;
        let mut s_sum = 0.0;
        let mut e_sum = 0.0;
        for r in &rand {
            h_sum += homogeneity(&ex, &r.segmentation).unwrap().mean_gain;
            s_sum += surprise(&ex, &r.segmentation).unwrap().weighted;
            e_sum += r.score.entropy;
        }
        let m = rand.len() as f64;
        row(&[
            name.to_string(),
            "random".into(),
            format!("{:.3}", h_sum / m),
            format!("{:.3}", s_sum / m),
            format!("{:.3}", e_sum / m),
        ]);
    }

    // Surprise as an alternative ranking lens on the VOC data.
    let t = voc_table(20_000, 41);
    let ex = explorer_over(&t, Config::default(), 5);
    let hb = hb_cuts(&ex).unwrap();
    let reordered = rank_by_surprise(&ex, hb.ranked.clone()).unwrap();
    println!("\nVOC answers re-ranked by surprise (top 3):");
    for (score, r) in reordered.iter().take(3) {
        println!(
            "  surprise={score:.3} E={:.3} attrs={:?}",
            r.score.entropy,
            r.segmentation.attributes()
        );
    }
}

/// E11 — §5.2 lazy generation: time-to-first-answer.
fn e11_lazy() {
    banner("E11", "lazy generation: time-to-first vs full enumeration");
    header(&["attrs", "first answer", "full run", "answers", "speedup"]);
    for k in [4usize, 6, 8, 10] {
        let t = sweep_table(50_000, k, 8);
        let ex = Explorer::new(&t, Config::default(), charles_bench::context_over(&t, k)).unwrap();
        let (d_first, _) = time_once(|| {
            let mut gen = LazyGenerator::new(&ex);
            gen.next_segmentation().unwrap()
        });
        let ex2 = Explorer::new(&t, Config::default(), charles_bench::context_over(&t, k)).unwrap();
        let (d_full, out) = time_once(|| hb_cuts(&ex2).unwrap());
        row(&[
            format!("{k}"),
            fmt_duration(d_first),
            fmt_duration(d_full),
            format!("{}", out.ranked.len()),
            format!(
                "{:.0}x",
                d_full.as_secs_f64() / d_first.as_secs_f64().max(1e-9)
            ),
        ]);
    }
}
