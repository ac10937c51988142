//! Reference ⇔ production equivalence of HB-cuts.
//!
//! `hb_cuts` runs Figure 4 over incremental per-run pair state (interned
//! candidate ids, a triangular INDEP matrix, a ban set for uncomposable
//! pairs). [`figure4_reference`] below is an independent implementation
//! of the same figure, written against the public primitives only
//! (`cut_segmentation`, `indep`, `compose`, `score`): every
//! iteration it enumerates all O(k²) pairs in the textbook nested loop
//! and orders them by a stable sort, carrying INDEP values in its own
//! map keyed by rendered fingerprints, and it ranks its answers by a
//! stable sort that renders both segmentations whole on every tie. It shares no selection code with
//! what it checks. The contract: **bitwise-identical advisor output**,
//! meaning the same compose trace (same pairs in the same order, same
//! skipped pairs, same `StopReason`) and the same ranked answers down to
//! the f64 score bits, across:
//!
//! * memoization on and off,
//! * the store's own one-pass `Backend::cut_stats` and `varies`, and
//!   the trait's provided bodies of both ([`Provided`]), whose answers
//!   must also be the store's,
//!
//! plus two count assertions: with memoization on, production evaluates
//! every candidate pair exactly once, and the predicate scans it issues
//! are a closed form of the trace (the context's conjuncts, one per cut
//! pair materialised — two where the cut could not tell that its halves
//! partition their parent, as behind the provided `cut_stats`, which
//! counts no values — and one per frequency table; none for the last
//! level of a rejected composition, which is counted, not cut: its
//! pieces are never scanned and take no frequency table).

use charles::advisor::{
    compose, cut_segmentation, fingerprint, hb_cuts, indep, score, ComposeStep, CoreError,
    CoreResult, Explorer, HbCutsOutput, Ranked, Score, SkippedPair, StopReason, Trace,
};
use charles::{sweep_table, voc_table, Config, Query, Segmentation, Table};
use charles_store::{Backend, Bitmap, FrequencyTable, Schema, StorePredicate, StoreResult, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

fn attrs_of(seg: &Segmentation) -> Vec<String> {
    seg.attributes().iter().map(|s| s.to_string()).collect()
}

/// Figure 4, line by line, with the two refinements the production loop
/// documents: an uncomposable most-dependent pair is skipped for the
/// next-most-dependent one (and never retried), and `Config::memoize`
/// decides whether INDEP values are carried from one iteration to the
/// next (§5.1).
fn figure4_reference(ex: &Explorer<'_>) -> CoreResult<HbCutsOutput> {
    let cfg = ex.config().clone();
    let mut trace = Trace::default();

    // Lines 2–5: one binary cut per attribute of the context.
    let base = Segmentation::singleton(ex.context().clone());
    let mut cand: Vec<Segmentation> = Vec::new();
    for attr in ex.attributes() {
        match cut_segmentation(ex, &base, attr)? {
            Some(seg) => {
                trace.seeds.push(attr.to_string());
                cand.push(seg);
            }
            None => trace.skipped.push(attr.to_string()),
        }
    }
    if cand.is_empty() {
        return Err(CoreError::NoCuttableAttribute);
    }

    let pair_key = |a: &str, b: &str| {
        if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        }
    };
    let mut carried: HashMap<(String, String), f64> = HashMap::new();
    let mut uncomposable: HashSet<(String, String)> = HashSet::new();
    let mut output: Vec<Segmentation> = Vec::new();

    // Lines 10–22.
    let stop = 'run: loop {
        if cand.len() < 2 {
            break StopReason::ExhaustedCandidates;
        }
        // Line 11: INDEP of every unordered pair; the stable sort keeps
        // enumeration order among equal values (first wins).
        let fps: Vec<String> = cand.iter().map(fingerprint).collect();
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..cand.len() {
            for j in (i + 1)..cand.len() {
                let key = pair_key(&fps[i], &fps[j]);
                let v = match carried.get(&key) {
                    Some(&v) if cfg.memoize => v,
                    _ => {
                        let v = indep(ex, &cand[i], &cand[j])?;
                        carried.insert(key, v);
                        v
                    }
                };
                pairs.push((i, j, v));
            }
        }
        pairs.sort_by(|a, b| a.2.total_cmp(&b.2));

        let mut accepted = None;
        for (i, j, ind) in pairs {
            let key = pair_key(&fps[i], &fps[j]);
            if uncomposable.contains(&key) {
                continue;
            }
            // Line 12.
            let Some(new_seg) = compose(ex, &cand[i], &cand[j])? else {
                if ind >= cfg.max_indep {
                    break 'run StopReason::IndependenceThreshold;
                }
                uncomposable.insert(key);
                trace.skipped_pairs.push(SkippedPair {
                    left_attrs: attrs_of(&cand[i]),
                    right_attrs: attrs_of(&cand[j]),
                    indep: ind,
                });
                continue;
            };
            // Line 15.
            let stop = if ind >= cfg.max_indep {
                Some(StopReason::IndependenceThreshold)
            } else if new_seg.depth() >= cfg.max_depth {
                Some(StopReason::DepthLimit)
            } else {
                None
            };
            trace.steps.push(ComposeStep {
                left_attrs: attrs_of(&cand[i]),
                right_attrs: attrs_of(&cand[j]),
                indep: ind,
                depth: new_seg.depth(),
                accepted: stop.is_none(),
            });
            if let Some(reason) = stop {
                break 'run reason;
            }
            accepted = Some((i, j, new_seg));
            break;
        }
        let Some((i, j, new_seg)) = accepted else {
            break StopReason::ComposeFailed;
        };
        // Lines 18–20 (j > i: remove j first so i stays valid).
        let s2 = cand.swap_remove(j);
        let s1 = cand.swap_remove(i);
        output.push(s1);
        output.push(s2);
        cand.push(new_seg);
    };
    trace.stop = Some(stop);

    // Lines 23–25.
    output.extend(cand);
    let mut ranked = Vec::new();
    for segmentation in output {
        let score = score(ex, &segmentation)?;
        ranked.push(Ranked {
            segmentation,
            score,
        });
    }
    ranked.sort_by(ranked_order);
    ranked.truncate(cfg.max_results);
    Ok(HbCutsOutput { ranked, trace })
}

/// The paper's order, written out: entropy descending with a NaN after
/// every number, then breadth descending, simplicity ascending, and the
/// whole rendered segmentation, rendered afresh on every comparison.
fn ranked_order(a: &Ranked, b: &Ranked) -> std::cmp::Ordering {
    let entropy = |s: &Score| (s.entropy.is_nan(), -s.entropy);
    let (ea, eb) = (entropy(&a.score), entropy(&b.score));
    ea.partial_cmp(&eb)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(b.score.breadth.cmp(&a.score.breadth))
        .then(a.score.simplicity.cmp(&b.score.simplicity))
        .then_with(|| a.segmentation.to_string().cmp(&b.segmentation.to_string()))
}

/// One ranked answer in exactly-comparable form: segmentation text plus
/// the raw bits of the entropy score and the integer score fields.
type RankedFingerprint = (String, u64, usize, usize, usize);

/// Exact comparable form: ranked segmentation text + raw score bits,
/// the full trace rendering (steps, skipped pairs, stop reason), and
/// nothing nondeterministic.
fn run_fingerprint(out: &HbCutsOutput) -> (Vec<RankedFingerprint>, String) {
    let ranked = out
        .ranked
        .iter()
        .map(|r| {
            (
                r.segmentation.to_string(),
                r.score.entropy.to_bits(),
                r.score.simplicity,
                r.score.breadth,
                r.score.depth,
            )
        })
        .collect();
    (ranked, format!("{:?}", out.trace))
}

/// The configuration matrix the equivalence must hold over.
fn config_matrix() -> Vec<(&'static str, Config)> {
    vec![
        ("memo", Config::default()),
        ("nomemo", Config::default().with_memoize(false)),
    ]
}

/// A backend's required methods and nothing else: `cut_stats` and
/// `varies` are the trait's provided bodies over them. The provided
/// `cut_stats` is `min_max` then `median` and counts no values, so no
/// cut over it can tell that its halves partition their parent: each
/// half scans for itself, as over any backend written without a
/// `cut_stats` of its own.
struct Provided<'a>(&'a dyn Backend);

impl Backend for Provided<'_> {
    fn row_count(&self) -> usize {
        self.0.row_count()
    }
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.0.eval(pred)
    }
    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.0.not_null(column)
    }
    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.0.count(pred)
    }
    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.0.median(column, sel)
    }
    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.0.sampled_median(column, sel, sample_size, seed)
    }
    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.0.quantile(column, sel, q)
    }
    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.0.min_max(column, sel)
    }
    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.0.next_above(column, sel, v)
    }
    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.0.mean_and_var(column, sel)
    }
    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.0.frequencies(column, sel)
    }
    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.0.distinct_count(column, sel)
    }
}

/// Assert reference ⇔ production equality for one backend + context over
/// the whole configuration matrix, on the backend and on its provided
/// bodies, and that the two answer alike. Returns the number of
/// configurations that produced at least one composition (so callers can
/// assert the comparison was not vacuous).
fn assert_equivalent(backend: &dyn Backend, ctx: &Query, label: &str) -> usize {
    let provided = Provided(backend);
    let mut composed = 0;
    for (cfg_label, cfg) in config_matrix() {
        let mut answers = Vec::new();
        for (engine, backend) in [("store", backend), ("provided", &provided as &dyn Backend)] {
            let inc = {
                let ex = Explorer::new(backend, cfg.clone(), ctx.clone()).unwrap();
                hb_cuts(&ex).unwrap()
            };
            let reference = {
                let ex = Explorer::new(backend, cfg.clone(), ctx.clone()).unwrap();
                figure4_reference(&ex).unwrap()
            };
            assert_eq!(
                run_fingerprint(&inc),
                run_fingerprint(&reference),
                "reference and production HB-cuts diverged ({label}, {engine}, {cfg_label})"
            );
            if engine == "store" && inc.trace.steps.iter().any(|s| s.accepted) {
                composed += 1;
            }
            answers.push(run_fingerprint(&inc));
        }
        assert_eq!(
            answers[0], answers[1],
            "the provided bodies answered otherwise ({label}, {cfg_label})"
        );
    }
    composed
}

#[test]
fn equivalent_on_voc_across_configs() {
    let table = voc_table(6_000, 23);
    let ctx = Query::wildcard(&[
        "type_of_boat",
        "tonnage",
        "departure_harbour",
        "cape_arrival",
        "built",
    ]);
    let composed = assert_equivalent(&table, &ctx, "table");
    assert!(composed > 0, "every configuration stopped before composing");
}

#[test]
fn equivalent_on_dependency_chain() {
    // The sweep table's chained dependencies force many compositions, so
    // the incremental state is carried across many iterations.
    let table = sweep_table(4_000, 8, 5);
    let names = Backend::schema(&table).names();
    let take: Vec<&str> = names.into_iter().take(8).collect();
    let ctx = Query::wildcard(&take);
    let composed = assert_equivalent(&table, &ctx, "sweep");
    assert!(composed > 0);
}

#[test]
fn equivalent_when_best_pairs_are_uncomposable() {
    // Duplicate binary columns make the most dependent pairs
    // uncomposable: the fallback path (ban + next-most-dependent pair)
    // must also be identical between the two implementations.
    let mut rng = StdRng::seed_from_u64(77);
    let mut b = charles::TableBuilder::new("t");
    for name in ["a", "b", "c", "d"] {
        b.add_column(name, charles_store::DataType::Int);
    }
    for _ in 0..1500 {
        let a: i64 = rng.gen_range(0..2);
        let c = a * 100 + rng.gen_range(0i64..80);
        let d: i64 = rng.gen_range(0..100);
        b.push_row(vec![
            charles::Value::Int(a),
            charles::Value::Int(a),
            charles::Value::Int(c),
            charles::Value::Int(d),
        ])
        .unwrap();
    }
    let table = b.finish();
    let ctx = Query::wildcard(&["a", "b", "c", "d"]);
    assert_equivalent(&table, &ctx, "uncomposable");
    // And the skip really happened (the comparison above was not
    // vacuous for the fallback path).
    let ex = Explorer::new(&table, Config::default(), ctx).unwrap();
    let out = hb_cuts(&ex).unwrap();
    assert!(
        !out.trace.skipped_pairs.is_empty(),
        "expected the duplicate-column pair to be skipped: {:?}",
        out.trace
    );
}

#[test]
fn every_candidate_pair_is_evaluated_exactly_once() {
    // The pair state is the INDEP memo: all k(k−1)/2 seed pairs on the
    // first iteration, then after each accepted composition only the
    // pairs of the new candidate with the other live ones.
    let k = 16usize;
    let table = sweep_table(3_000, k, 11);
    let names = Backend::schema(&table).names();
    let take: Vec<&str> = names.into_iter().take(k).collect();
    let ctx = Query::wildcard(&take);
    // max_indep 1.0 + a deep bound keeps the loop composing, the
    // worst case for the pair argmin.
    let cfg = Config::default().with_max_indep(1.0).with_max_depth(64);

    let run = |memoize: bool| {
        let ex = Explorer::new(&table, cfg.clone().with_memoize(memoize), ctx.clone()).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.trace.seeds.len(), k);
        let stats = ex.cache_stats();
        assert_eq!(stats.indep_probes(), stats.indep_misses);
        let accepted = out.trace.steps.iter().filter(|s| s.accepted).count();
        (stats.indep_misses, accepted)
    };
    let (evaluated, accepted) = run(true);
    assert!(accepted >= 3, "need several iterations: {accepted}");
    // Step s leaves k − s live candidates, one of them new.
    let expected = k * (k - 1) / 2 + (1..=accepted).map(|s| k - s - 1).sum::<usize>();
    assert_eq!(evaluated, expected as u64);
    let (ablated, _) = run(false);
    assert!(
        ablated > evaluated,
        "without reuse every pair is re-evaluated every iteration: {ablated} vs {evaluated}"
    );
}

/// What one HB-cuts run costs the backend, replayed from its trace.
#[derive(Debug, Default)]
struct ReplayedCost {
    /// Cut pairs materialised, by the kind of the attribute cut: two
    /// selections each. A pair costs one scan — the left half is
    /// `parent ∧ scan(conjunct)`, the right what that leaves of the
    /// parent — when the cut knew its statistics covered every row of the
    /// parent, and one scan per half when it did not.
    numeric_pairs: u64,
    nominal_pairs: u64,
    /// `frequencies` calls, one per nominal cut; each counts as a scan.
    frequency_tables: u64,
    /// What the §5.1 ablation looks up on top, having carried nothing:
    /// every piece of both operands of every pair of every iteration…
    ablated_lookups: u64,
    /// …each a whole conjunction, one scan per conjunct.
    ablated_scans: u64,
}

impl ReplayedCost {
    fn pieces(&self) -> u64 {
        2 * (self.numeric_pairs + self.nominal_pairs)
    }
}

/// Replay a trace over a table where every piece is cuttable on every
/// attribute: COMPOSE then doubles the depth per attribute of the right
/// operand (asserted step by step), and a candidate's pieces carry one
/// conjunct per attribute it lists.
fn replay_cost(ctx: &Query, trace: &Trace, nominal: &dyn Fn(&str) -> bool) -> ReplayedCost {
    assert!(trace.skipped.is_empty() && trace.skipped_pairs.is_empty());
    // A candidate lists the attributes its queries constrain, in the
    // context's order — the context's own constraints included.
    let listed = |cut: &[String]| -> Vec<String> {
        ctx.predicates()
            .iter()
            .filter(|p| p.is_constraining() || cut.iter().any(|c| **c == *p.attr))
            .map(|p| p.attr.to_string())
            .collect()
    };
    let mut cost = ReplayedCost::default();
    // `halves` pieces, the two halves of cuts on `attr`, materialised.
    fn materialise(cost: &mut ReplayedCost, nominal: bool, halves: u64) {
        let pairs = match nominal {
            true => &mut cost.nominal_pairs,
            false => &mut cost.numeric_pairs,
        };
        *pairs += halves / 2;
    }
    // Every seed is a binary cut of the context's extent: one pair.
    let mut live: Vec<(Vec<String>, u64)> = Vec::new();
    for seed in &trace.seeds {
        materialise(&mut cost, nominal(seed), 2);
        cost.frequency_tables += u64::from(nominal(seed));
        live.push((listed(std::slice::from_ref(seed)), 2));
    }
    // Each trace step is one iteration of the loop.
    for step in &trace.steps {
        let others = live.len() as u64 - 1;
        cost.ablated_lookups += others * live.iter().map(|(_, d)| d).sum::<u64>();
        cost.ablated_scans += others
            * live
                .iter()
                .map(|(attrs, d)| d * attrs.len() as u64)
                .sum::<u64>();

        // (Attribute lists name candidates only while they are distinct.)
        let at = |attrs: &Vec<String>| {
            assert_eq!(live.iter().filter(|(a, _)| a == attrs).count(), 1);
            live.iter().position(|(a, _)| a == attrs).unwrap()
        };
        let (l, r) = (at(&step.left_attrs), at(&step.right_attrs));
        let mut pieces = live[l].1;
        let mut handed: Option<&String> = None;
        for (level, attr) in step.right_attrs.iter().rev().enumerate() {
            // The first level cuts the bitmaps the left operand carries;
            // every later one first materialises the halves it was handed.
            if let Some(cut_on) = handed {
                materialise(&mut cost, nominal(cut_on), pieces);
            }
            // A rejected composition's last level is counted, not cut:
            // no frequency table.
            let counted = !step.accepted && level + 1 == step.right_attrs.len();
            if nominal(attr) && !counted {
                cost.frequency_tables += pieces;
            }
            pieces *= 2;
            handed = Some(attr);
        }
        assert_eq!(step.depth as u64, pieces, "{step:?}");
        // The last level is scanned only for a composition that stays.
        if step.accepted {
            let cut_on = handed.expect("a composition cuts on something");
            materialise(&mut cost, nominal(cut_on), pieces);
            let union = listed(&[step.left_attrs.clone(), step.right_attrs.clone()].concat());
            live.remove(l.max(r));
            live.remove(l.min(r));
            live.push((union, pieces));
        }
    }
    cost
}

/// Run HB-cuts with and without the §5.1 reuse and hold the run's scan
/// count and the explorer's selection counters to the replay, on the
/// table and on its provided bodies ([`Provided`]).
fn assert_scans_follow_the_trace(table: &Table, ctx: &Query, cfg: &Config) -> Trace {
    let trace = assert_scans_follow_the_trace_on(table, ctx, cfg, 1);
    let provided = assert_scans_follow_the_trace_on(&Provided(table), ctx, cfg, 2);
    assert_eq!(format!("{provided:?}"), format!("{trace:?}"));
    trace
}

fn assert_scans_follow_the_trace_on(
    backend: &dyn Backend,
    ctx: &Query,
    cfg: &Config,
    scans_per_numeric_pair: u64,
) -> Trace {
    let run = |memoize: bool| {
        let ex = Explorer::new(backend, cfg.clone().with_memoize(memoize), ctx.clone()).unwrap();
        let out = hb_cuts(&ex).unwrap();
        (out.trace, ex.cache_stats(), ex.backend_ops().scans)
    };
    let (trace, memo, scans) = run(true);
    let schema = backend.schema();
    let nominal = |attr: &str| !schema.type_of(attr).unwrap().is_numeric();
    let cost = replay_cost(ctx, &trace, &nominal);

    // The context's extent is one scan per conjunct it constrains; from
    // there every selection the run touches is derived from its parent's,
    // exactly once — nothing is looked up, so nothing hits — and no term
    // grows with the number of pairs evaluated. These tables hold no null
    // and no NaN, so every cut's halves partition their parent; the cut
    // knows it from the count its statistics come with — the median's
    // ranked values, a frequency table's total — and the pair costs one
    // scan. The provided `cut_stats` comes with no count, and each half
    // of its numeric cuts scans for itself.
    let context_scans = ctx.constraint_count() as u64;
    assert_eq!(
        scans,
        context_scans
            + scans_per_numeric_pair * cost.numeric_pairs
            + cost.nominal_pairs
            + cost.frequency_tables,
        "{cost:?}"
    );
    assert_eq!((memo.sel_hits, memo.sel_misses), (0, cost.pieces()));

    // The ablation cuts and composes the same way (a piece inheriting
    // its parent's bitmap is what a conjunction is, not a memo) but
    // carries no operand from one INDEP probe to the next.
    let (ablated_trace, ablated, ablated_scans) = run(false);
    assert_eq!(format!("{ablated_trace:?}"), format!("{trace:?}"));
    assert_eq!(ablated_scans, scans + cost.ablated_scans, "{cost:?}");
    assert_eq!(
        (ablated.sel_hits, ablated.sel_misses),
        (0, cost.pieces() + cost.ablated_lookups)
    );
    trace
}

#[test]
fn selection_lookups_follow_the_trace_not_the_pair_count() {
    // Sixteen numeric seeds over a wildcard context, composing until the
    // depth bound rejects a composition — whose last level of pieces is
    // never scanned.
    let k = 16usize;
    let table = sweep_table(3_000, k, 11);
    let names = Backend::schema(&table).names();
    let take: Vec<&str> = names.into_iter().take(k).collect();
    let cfg = Config::default().with_max_indep(1.0).with_max_depth(64);
    let trace = assert_scans_follow_the_trace(&table, &Query::wildcard(&take), &cfg);
    assert_eq!(trace.seeds.len(), k);
    assert_eq!(trace.stop, Some(StopReason::DepthLimit));
    assert!(trace.steps.iter().filter(|s| s.accepted).count() >= 3);

    // A context that constrains one of its attributes (every candidate
    // then lists it, and COMPOSE cuts on it again) with a nominal one
    // among the rest (each cut on it is a frequency table).
    let mut rng = StdRng::seed_from_u64(5);
    let mut b = charles::TableBuilder::new("t");
    b.add_column("x", charles_store::DataType::Int)
        .add_column("y", charles_store::DataType::Float)
        .add_column("k", charles_store::DataType::Str)
        .add_column("z", charles_store::DataType::Int);
    for _ in 0..6_000 {
        let x: i64 = rng.gen_range(0..1_000);
        let y = x as f64 + rng.gen_range(-200.0..200.0);
        let k = (x / 125 + rng.gen_range(0i64..3)) % 8;
        let z = x + rng.gen_range(-300i64..300);
        b.push_row(vec![
            charles::Value::Int(x),
            charles::Value::Float(y),
            charles::Value::Str(format!("c{k}")),
            charles::Value::Int(z),
        ])
        .unwrap();
    }
    let table = b.finish();
    let ctx =
        charles::parse_query("(x: [100,900], y: , k: , z: )", Backend::schema(&table)).unwrap();
    let trace = assert_scans_follow_the_trace(&table, &ctx, &cfg.with_max_depth(16));
    assert_eq!(trace.seeds, ["x", "y", "k", "z"]);
    assert!(trace.steps.iter().any(|s| s.accepted));
    assert!(trace.steps.iter().any(|s| !s.accepted), "{trace:?}");
}

/// A small table in the spirit of `partition_properties.rs`: two
/// numeric columns with a correlation dial, a nominal column that the
/// dial ties to `x` too, and `g`, `levels` bands of `x` — a
/// low-cardinality column that every piece cut narrowly enough on `x` or
/// `y` holds one value of. So runs hit compositions, both stops,
/// uncuttable attributes, and rejected compositions whose last level
/// holds pieces constant in the attribute it would be cut on.
fn small_table(n: usize, domain: i64, cats: usize, corr: f64, levels: i64, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = charles::TableBuilder::new("t");
    b.add_column("x", charles_store::DataType::Int)
        .add_column("y", charles_store::DataType::Int)
        .add_column("k", charles_store::DataType::Str)
        .add_column("g", charles_store::DataType::Int);
    for _ in 0..n {
        let x = rng.gen_range(0..domain);
        let y = if rng.gen_bool(corr) {
            x + rng.gen_range(-2i64..=2)
        } else {
            rng.gen_range(0..domain)
        };
        let k = if rng.gen_bool(corr) {
            x as usize * cats / domain as usize
        } else {
            rng.gen_range(0..cats)
        };
        b.push_row(vec![
            charles::Value::Int(x),
            charles::Value::Int(y),
            charles::Value::Str(format!("c{k}")),
            charles::Value::Int(x * levels / domain),
        ])
        .unwrap();
    }
    b.finish()
}

/// [`small_table`] with random dials.
fn arb_table() -> impl Strategy<Value = Table> {
    (
        30usize..150, // rows
        2i64..40,     // numeric domain
        1usize..5,    // categories
        0.0f64..1.0,  // correlation dial
        1i64..4,      // bands of `x` in `g`
        any::<u64>(), // seed
    )
        .prop_map(|(n, domain, cats, corr, levels, seed)| {
            small_table(n, domain, cats, corr, levels, seed)
        })
}

/// The wildcard context over every column of [`small_table`].
const SMALL_CONTEXT: [&str; 4] = ["x", "y", "k", "g"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: for arbitrary small tables and depth bounds, the
    /// reference and production HB-cuts produce identical compose traces
    /// (same pairs, same skipped pairs, same StopReason, same depths)
    /// and identical ranked output, with memoization on and off, on the
    /// table and on its provided bodies.
    #[test]
    fn naive_and_incremental_traces_match(t in arb_table(), max_depth in 3usize..13) {
        let ctx = Query::wildcard(&SMALL_CONTEXT);
        let provided = Provided(&t);
        let engines: [(&str, &dyn Backend); 2] = [("store", &t), ("provided", &provided)];
        // Contexts can be degenerate (all-constant columns): both paths
        // must then fail identically too.
        for (engine, backend) in engines {
            for (cfg_label, cfg) in config_matrix() {
                let cfg = cfg.with_max_depth(max_depth);
                let run = |reference: bool| {
                    let ex = Explorer::new(backend, cfg.clone(), ctx.clone()).unwrap();
                    if reference { figure4_reference(&ex) } else { hb_cuts(&ex) }
                };
                match (run(false), run(true)) {
                    (Ok(inc), Ok(reference)) => prop_assert_eq!(
                        run_fingerprint(&inc),
                        run_fingerprint(&reference),
                        "diverged on {} under {} at max_depth {}", engine, cfg_label, max_depth
                    ),
                    (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                    (a, b) => return Err(TestCaseError::fail(format!(
                        "one path failed, the other did not ({engine}, {cfg_label}): {a:?} vs {b:?}"
                    ))),
                }
            }
        }
    }
}

#[test]
fn rejected_steps_with_constant_last_level_pieces_match_under_both_stops() {
    // The property above is not vacuous where HB-cuts counts instead of
    // cutting: over a fixed grid of small tables, compositions are
    // rejected on either stop with a last level holding a piece of one
    // value of the attribute it would be cut on — whose count must still
    // be the cut's depth — and the reference agrees on every run.
    let mut seen = Vec::new();
    let ctx = Query::wildcard(&SMALL_CONTEXT);
    for seed in 0..24u64 {
        let t = small_table(60 + 5 * seed as usize, 24, 3, 0.8, 2, seed);
        for max_depth in [4, 6, 12] {
            for max_indep in [0.9, 0.99] {
                let cfg = Config::default()
                    .with_max_depth(max_depth)
                    .with_max_indep(max_indep)
                    .with_max_results(usize::MAX);
                let ex = Explorer::new(&t, cfg.clone(), ctx.clone()).unwrap();
                let out = hb_cuts(&ex).unwrap();
                let reference = {
                    let ex = Explorer::new(&t, cfg, ctx.clone()).unwrap();
                    figure4_reference(&ex).unwrap()
                };
                assert_eq!(
                    run_fingerprint(&out),
                    run_fingerprint(&reference),
                    "seed {seed}"
                );
                if let Some(step) = out.trace.steps.last().filter(|s| !s.accepted) {
                    seen.extend(constant_last_level(&ex, &out, step).then_some(out.trace.stop));
                }
            }
        }
    }
    for stop in [StopReason::DepthLimit, StopReason::IndependenceThreshold] {
        assert!(
            seen.contains(&Some(stop)),
            "{stop:?} never stopped on one: {seen:?}"
        );
    }
}

/// Whether a step's last level held a piece of one value of the
/// attribute it was cut on: the composition has fewer than twice the
/// pieces of that level's input, which is the left operand — the
/// output's segmentation on its attributes (the live candidates'
/// attribute sets are disjoint) — cut on the right operand's other
/// attributes, innermost first, as COMPOSE cuts it.
fn constant_last_level(ex: &Explorer<'_>, out: &HbCutsOutput, step: &ComposeStep) -> bool {
    let left = out
        .ranked
        .iter()
        .find(|r| attrs_of(&r.segmentation) == step.left_attrs)
        .expect("the left operand is in the output");
    let mut input = left.segmentation.clone();
    for attr in step.right_attrs[1..].iter().rev() {
        if let Some(cut) = cut_segmentation(ex, &input, attr).unwrap() {
            input = cut;
        }
    }
    step.depth < 2 * input.depth()
}
