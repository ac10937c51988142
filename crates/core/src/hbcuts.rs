//! HB-cuts — Hierarchical Binary cuts (paper §4, Figure 4).
//!
//! The heuristic: seed one binary segmentation per context attribute, then
//! repeatedly find the *most dependent* pair of candidates (minimum
//! INDEP), replace the pair by their composition, and stop when the best
//! pair is practically independent (`ind ≥ maxIndep`) or the composition
//! grows past the legibility bound (`dep ≥ maxDepth`). Every segmentation
//! ever created is returned, sorted by entropy.
//!
//! ```text
//! 1  function HB-CUTS(query, maxIndep, maxDepth)
//! 2      cand ← {}
//! 3      for i ← 0, nbAttributes(query) do
//! 4          cand ← cand ∪ {CUT_attri(query)}
//! 5      end for
//! 10     while true do
//! 11         {S1*, S2*} ← argmin_{S1,S2 ∈ cand} INDEP(S1, S2)
//! 12         newSeg ← COMPOSE(S1*, S2*)
//! 15         if ind ≥ maxIndep ∥ dep ≥ maxDepth then break
//! 18         cand ← cand ∪ {newSeg} − {S1*, S2*}
//! 20         output ← output ∪ {S1*, S2*}
//! 23     output ← output ∪ cand
//! 25     return sort(output)
//! ```
//!
//! # Incremental pair maintenance
//!
//! Line 11 is the hot loop of the whole system, and §5.1 asks one thing
//! of it: "the calculations of SDL products and entropy can be reused
//! from one iteration to the next". The per-run pair state (`PairState`)
//! is that reuse, and the only INDEP memo in the crate: every candidate
//! is interned to an integer id when it is created (seeded or composed)
//! and pair INDEP values live in a triangular matrix indexed by id
//! pairs. After composing `(i, j)` only the O(k) pairs touching the new
//! candidate are unknown, while every other pair's value is carried over
//! as a plain array read: no render, no lock, no allocation. Every id
//! pair is therefore evaluated exactly once per run. The operands are
//! carried the same way: a candidate is *resolved* once, when it is
//! created — its pieces' selections, their counts, whether they
//! partition the context and its entropy (`indep::Resolved`; each piece
//! arrives from CUT as its parent's bitmap plus the one conjunct that
//! narrows it, so resolving it is one scan of the parent's rows, fanned
//! out, and none for the right half of a cut that partitions its parent)
//! — so an evaluation is two field reads and a grid of intersection
//! counts of which only the free cells are AND-counted (one for a pair of
//! seeds: the pieces of a partitioning operand fix the rest), in a plain
//! loop; the final scores read the same entropies, and COMPOSE
//! cuts on from the same bitmaps: the loop never asks the explorer for
//! a selection by query, so it renders none. The argmin scans the
//! matrix in the `(i, j)` enumeration order of the textbook nested loop,
//! so first-wins tie-breaks — and hence the chosen pair, the trace and
//! the advice — are bitwise identical to the independent Figure 4
//! reference written against public primitives in
//! `tests/hbcuts_equivalence.rs`.
//!
//! The loop itself exists once, as the `Stepper`: [`hb_cuts`] seeds it
//! with every attribute and steps it to the stop; [`crate::lazy`]
//! seeds it one attribute per call and steps it on demand.
//!
//! # A rejected composition is counted, not cut
//!
//! Line 12 runs before line 15, so the figure builds every composition
//! its stop test then throws away — the one that ends every run on a
//! stop criterion. A step here first decides whether line 15 *could*
//! reject the composition: always when the pair is past `max_indep`,
//! otherwise when twice the last level's input pieces reach
//! `max_depth`. Then COMPOSE counts that level before it cuts it: each
//! input piece that holds two distinct values of the last attribute
//! cuts in two, each other one stays whole, which is the depth the cut
//! would give. A rejected composition records that depth and stops,
//! with no median and no frequency table taken on its last level; an
//! accepted one is cut from the selections the count holds. The trace
//! and the advice are the figure's, bit for bit
//! (`docs/adr/0025-a-rejected-composition-is-counted-not-cut.md`).
//!
//! A best pair whose composition fails (no attribute cuttable) does not
//! abort the run: it is recorded in [`Trace::skipped_pairs`], banned for
//! as long as both candidates live, and the loop falls back to the
//! next-most-dependent pair — matching the paper's greedy intent.
//! [`StopReason::ComposeFailed`] only fires when *every* remaining pair
//! is uncomposable.
//!
//! The [`Trace`] records every seed and composition step so the execution
//! tree of Figure 3 can be checked and displayed.

use crate::engine::Explorer;
use crate::error::{CoreError, CoreResult};
use crate::indep::{resolve, resolve_pieces, Resolved};
use crate::metrics::{score_with, Score};
use crate::primitives::{compose_pieces, cut_pieces, Composed};
use crate::ranking::{rank, Ranked};
use charles_sdl::Segmentation;
use std::collections::HashSet;

/// Why the composition loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Best pair had `INDEP ≥ max_indep` — remaining candidates are
    /// practically independent.
    IndependenceThreshold,
    /// The composition would exceed `max_depth` queries.
    DepthLimit,
    /// Fewer than two candidates remain — no pair to compose.
    ExhaustedCandidates,
    /// No remaining pair could be composed (every pair was skipped as
    /// uncomposable — see [`Trace::skipped_pairs`]).
    ComposeFailed,
}

/// One composition step considered by the loop.
#[derive(Debug, Clone)]
pub struct ComposeStep {
    /// Attributes of the first operand.
    pub left_attrs: Vec<String>,
    /// Attributes of the second operand.
    pub right_attrs: Vec<String>,
    /// INDEP of the chosen pair.
    pub indep: f64,
    /// Depth of the composition result.
    pub depth: usize,
    /// Whether the step was accepted (false = it triggered the stop).
    pub accepted: bool,
}

/// A most-dependent pair whose composition failed (no attribute of the
/// right operand was cuttable in any piece of the left). The loop skips
/// it and falls back to the next-most-dependent pair.
#[derive(Debug, Clone)]
pub struct SkippedPair {
    /// Attributes of the first operand.
    pub left_attrs: Vec<String>,
    /// Attributes of the second operand.
    pub right_attrs: Vec<String>,
    /// INDEP of the skipped pair.
    pub indep: f64,
}

/// Record of an HB-cuts execution (the Figure 3 tree).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Attributes successfully seeded (line 4 of Figure 4).
    pub seeds: Vec<String>,
    /// Attributes that could not be cut (constant in the context).
    pub skipped: Vec<String>,
    /// Composition steps in order.
    pub steps: Vec<ComposeStep>,
    /// Best pairs that could not be composed and were skipped in favour
    /// of the next-most-dependent pair, in the order encountered.
    pub skipped_pairs: Vec<SkippedPair>,
    /// Why the loop stopped.
    pub stop: Option<StopReason>,
}

/// The advisor's answer: ranked segmentations plus the execution trace.
#[derive(Debug, Clone)]
pub struct HbCutsOutput {
    /// All generated segmentations with scores, ranked best-first.
    pub ranked: Vec<Ranked>,
    /// Execution record.
    pub trace: Trace,
}

/// Per-run incremental pair state over interned candidate ids — the
/// §5.1 reuse, and the crate's only INDEP memo.
///
/// Ids are assigned once per candidate lifetime (never reused), so pair
/// values and the uncomposable ban set survive the `swap_remove`
/// shuffles of the live-candidate vector untouched.
#[derive(Default)]
struct PairState {
    /// Candidates interned so far (the next id).
    interned: u32,
    /// Lower-triangular INDEP matrix by id pair; NaN = not yet computed
    /// (INDEP itself is always finite — a quotient of finite entropies,
    /// clamped to ≤ 1).
    tri: Vec<f64>,
    /// Id pairs proven uncomposable this run.
    uncomposable: HashSet<(u32, u32)>,
}

fn uid_key(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl PairState {
    /// Intern a candidate: assign the next id.
    fn intern(&mut self) -> u32 {
        let id = self.interned;
        self.interned += 1;
        // Grow the triangle by one row: pairs (0..id, id).
        self.tri.extend(std::iter::repeat_n(f64::NAN, id as usize));
        id
    }

    fn idx(a: u32, b: u32) -> usize {
        let (lo, hi) = uid_key(a, b);
        hi as usize * (hi as usize - 1) / 2 + lo as usize
    }

    /// Pair value, NaN when not yet computed.
    fn get(&self, a: u32, b: u32) -> f64 {
        self.tri[Self::idx(a, b)]
    }

    fn set(&mut self, a: u32, b: u32, v: f64) {
        let i = Self::idx(a, b);
        self.tri[i] = v;
    }

    /// Mark an id pair as uncomposable for the rest of the run.
    fn ban(&mut self, a: u32, b: u32) {
        self.uncomposable.insert(uid_key(a, b));
    }

    /// The `(i, j)` position pairs to (re)compute this iteration.
    ///
    /// With memoization on, that is the pairs whose value is still
    /// unknown — all of them on the first iteration, afterwards exactly
    /// the O(k) pairs touching the newly composed candidate. With
    /// memoization off (the §5.1 ablation: *nothing* is reused from one
    /// iteration to the next) it is every pair, every iteration —
    /// matching the textbook loop bit-for-bit, because `E(S1 × S2)` is
    /// summed in operand order and a recomputation after a
    /// `swap_remove` reshuffle can visit the operands swapped, which
    /// moves the last ulp. Carrying values across iterations is reuse,
    /// so the ablation must not do it.
    fn frontier(&self, ids: &[u32], memoize: bool) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if !memoize || self.get(ids[i], ids[j]).is_nan() {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Skip-aware argmin over the stored pair values, in the `(i, j)`
    /// enumeration order of the nested loop (first-wins ties), excluding
    /// banned pairs. Every live pair's value must already be stored.
    fn best_pair(&self, ids: &[u32]) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if self.uncomposable.contains(&uid_key(ids[i], ids[j])) {
                    continue;
                }
                let v = self.get(ids[i], ids[j]);
                if best.map(|(_, _, b)| v < b).unwrap_or(true) {
                    best = Some((i, j, v));
                }
            }
        }
        best
    }
}

fn attrs_of(seg: &Segmentation) -> Vec<String> {
    seg.attributes().iter().map(|s| s.to_string()).collect()
}

/// Line 4: `CUT_attr(context)` — the context's extent narrowed by one
/// scan, the other half being what that leaves — resolved for INDEP, or
/// `None` for an attribute that is constant in the context.
pub(crate) fn seed_cut(
    ex: &Explorer<'_>,
    attr: &str,
) -> CoreResult<Option<(Segmentation, Resolved)>> {
    let (halves, cut, partition) = cut_pieces(ex, vec![ex.context_piece()], attr)?;
    cut.then(|| resolve_pieces(ex, halves, partition))
        .transpose()
}

/// The one HB-cuts loop (Figure 4, lines 2–22), one iteration per
/// [`Stepper::step`]: the live candidates with their interned ids and
/// resolved forms, the pair memo, the trace, and the segmentations
/// already retired to the output. [`hb_cuts`] and
/// [`crate::lazy::LazyGenerator`] differ only in how they seed it and
/// when they step it.
#[derive(Default)]
pub(crate) struct Stepper {
    cand: Vec<Segmentation>,
    /// Interned id of each live candidate, parallel to `cand`.
    ids: Vec<u32>,
    /// Each live candidate as INDEP and the scores read it — piece
    /// selections and entropy, resolved once when it was created —
    /// parallel to `cand`.
    resolved: Vec<Resolved>,
    state: PairState,
    trace: Trace,
    /// Line 20: composed pairs leave `cand` for the output, each with
    /// its entropy.
    retired: Vec<(Segmentation, f64)>,
}

impl Stepper {
    /// Line 4: record the outcome of [`seed_cut`] — a new candidate, or
    /// an attribute that is constant in the context.
    pub(crate) fn seed(&mut self, attr: &str, cut: Option<(Segmentation, Resolved)>) {
        match cut {
            Some((seg, resolved)) => {
                self.trace.seeds.push(attr.to_string());
                self.push(seg, resolved);
            }
            None => self.trace.skipped.push(attr.to_string()),
        }
    }

    fn push(&mut self, seg: Segmentation, resolved: Resolved) {
        self.ids.push(self.state.intern());
        self.cand.push(seg);
        self.resolved.push(resolved);
    }

    /// Remove the live candidate at `at`, keeping its entropy.
    fn take(&mut self, at: usize) -> (Segmentation, f64) {
        self.ids.swap_remove(at);
        let entropy = self.resolved.swap_remove(at).entropy;
        (self.cand.swap_remove(at), entropy)
    }

    /// The execution record so far; `stop` is set once a step returned
    /// `false`.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The newest live candidate with its score card: the seed or the
    /// composition a lazy run has just produced.
    pub(crate) fn newest(&self) -> Option<(Segmentation, Score)> {
        let seg = self.cand.last()?;
        Some((seg.clone(), score_with(seg, self.resolved.last()?.entropy)))
    }

    /// Lines 11–20, one iteration: evaluate the pairs not yet known,
    /// pick the most dependent pair, compose it, apply the stopping
    /// criteria. Returns whether a composition was accepted (it is now
    /// the newest live candidate); `false` once a stop criterion fired
    /// and was recorded in the trace.
    ///
    /// An uncomposable best pair is banned, recorded in the trace, and
    /// the argmin falls back to the next-most-dependent pair; only when
    /// no composable pair remains does the loop stop with
    /// [`StopReason::ComposeFailed`].
    ///
    /// On `Err` no candidate has been added, removed or recorded, so
    /// the same step can be retried.
    pub(crate) fn step(&mut self, ex: &Explorer<'_>) -> CoreResult<bool> {
        if self.cand.len() < 2 {
            self.trace.stop = Some(StopReason::ExhaustedCandidates);
            return Ok(false);
        }
        // Evaluate the unknown pairs (the incremental frontier) over the
        // carried operands — a plain loop: a probe is a handful of
        // AND-counts. The §5.1 ablation carries nothing, so it resolves
        // both operands anew for every probe, as `indep()` does.
        let memoize = ex.config().memoize;
        let n = ex.context_size();
        let frontier = self.state.frontier(&self.ids, memoize);
        ex.count_indep_evaluations(frontier.len() as u64);
        for (i, j) in frontier {
            let v = if memoize {
                self.resolved[i].indep(&self.resolved[j], n)
            } else {
                resolve(ex, &self.cand[i])?.indep(&resolve(ex, &self.cand[j])?, n)
            };
            self.state.set(self.ids[i], self.ids[j], v);
        }

        let max_indep = ex.config().max_indep;
        let (i, j, new_seg, resolved) = loop {
            // Line 11: argmin over unordered candidate pairs.
            let Some((i, j, ind)) = self.state.best_pair(&self.ids) else {
                self.trace.stop = Some(StopReason::ComposeFailed);
                return Ok(false);
            };

            // Line 12: compose; an uncomposable pair is skipped (greedy
            // fallback) rather than aborting the run — unless even this
            // most-dependent pair is past the independence threshold, in
            // which case every remaining pair is too and line 15's stop
            // fires directly (no composition exists to record as a step).
            // Without this check the fallback would ban its way through
            // past-threshold pairs, burning compose work and misreporting
            // ComposeFailed.
            // COMPOSE cuts on from the bitmaps the left operand carries.
            // Line 15 throws away every composition of a pair past the
            // threshold, and otherwise one of `max_depth` pieces or
            // more: COMPOSE counts such a composition's last level
            // instead of cutting it.
            let reject_at = if ind >= max_indep {
                0
            } else {
                ex.config().max_depth
            };
            let composed = compose_pieces(
                ex,
                self.resolved[i].pieces(&self.cand[i]),
                &self.cand[j].attributes(),
                reject_at,
            )?;
            let Some(composed) = composed else {
                if ind >= max_indep {
                    self.trace.stop = Some(StopReason::IndependenceThreshold);
                    return Ok(false);
                }
                self.state.ban(self.ids[i], self.ids[j]);
                self.trace.skipped_pairs.push(SkippedPair {
                    left_attrs: attrs_of(&self.cand[i]),
                    right_attrs: attrs_of(&self.cand[j]),
                    indep: ind,
                });
                continue;
            };
            let step = |depth, accepted| ComposeStep {
                left_attrs: attrs_of(&self.cand[i]),
                right_attrs: attrs_of(&self.cand[j]),
                indep: ind,
                depth,
                accepted,
            };

            // Lines 15–16: stopping criteria — what COMPOSE rejected.
            let (pieces, partitions) = match composed {
                Composed::Pieces(pieces, partitions) => (pieces, partitions),
                Composed::Rejected(depth) => {
                    self.trace.steps.push(step(depth, false));
                    self.trace.stop = Some(if ind >= max_indep {
                        StopReason::IndependenceThreshold
                    } else {
                        StopReason::DepthLimit
                    });
                    return Ok(false);
                }
            };
            let step = step(pieces.len(), true);
            // An accepted composition joins the candidates resolved — its
            // last level of pieces scanned only now, and the fallible
            // part, so it comes before the step is recorded.
            // Its pieces partition the context where S1's did and every
            // cut COMPOSE made partitioned its piece.
            let partition = self.resolved[i].partition && partitions;
            let (new_seg, resolved) = resolve_pieces(ex, pieces, partition)?;
            self.trace.steps.push(step);
            break (i, j, new_seg, resolved);
        };

        // Lines 18–20: replace the pair by the composition. Remove j
        // first (j > i) so indices stay valid.
        let s2 = self.take(j);
        let s1 = self.take(i);
        self.retired.push(s1);
        self.retired.push(s2);
        self.push(new_seg, resolved);
        Ok(true)
    }

    /// Lines 23–25: everything still in `cand` joins the output, which
    /// is scored from the carried entropies, ranked (by entropy,
    /// descending, with deterministic tie-breaks) and truncated.
    fn finish(self, max_results: usize) -> HbCutsOutput {
        let live = self
            .cand
            .into_iter()
            .zip(self.resolved.iter().map(|r| r.entropy));
        let scored = self
            .retired
            .into_iter()
            .chain(live)
            .map(|(seg, entropy)| {
                let score = score_with(&seg, entropy);
                (seg, score)
            })
            .collect();
        let mut ranked = rank(scored);
        ranked.truncate(max_results);
        HbCutsOutput {
            ranked,
            trace: self.trace,
        }
    }
}

/// Run HB-cuts over an explorer's context (Figure 4, lines 1–26).
///
/// Per iteration it evaluates INDEP only for the O(k) frontier pairs
/// touching the newly composed candidate and carries every other pair
/// value in run-local state (see the module docs).
pub fn hb_cuts(ex: &Explorer<'_>) -> CoreResult<HbCutsOutput> {
    // Lines 2–5: seed with one binary cut per attribute (one walk for
    // the median, one scan for the halves), in attribute order.
    let mut stepper = Stepper::default();
    for attr in ex.attributes() {
        let cut = seed_cut(ex, attr)?;
        stepper.seed(attr, cut);
    }
    if stepper.cand.is_empty() {
        return Err(CoreError::NoCuttableAttribute);
    }

    // Lines 10–22: compose the most dependent pair until a stop fires.
    while stepper.step(ex)? {}

    Ok(stepper.finish(ex.config().max_results))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Config;
    use charles_sdl::Query;
    use charles_store::{DataType, TableBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Five attributes with the Figure 3 dependency structure:
    /// att2 ↔ att3 strongly dependent, att4 ↔ att5 strongly dependent,
    /// att1 dependent on (att2, att3); everything else independent.
    fn figure3_table(n: usize) -> charles_store::Table {
        let mut rng = StdRng::seed_from_u64(42);
        let mut b = TableBuilder::new("t");
        for name in ["att1", "att2", "att3", "att4", "att5"] {
            b.add_column(name, DataType::Int);
        }
        for _ in 0..n {
            let a2: i64 = rng.gen_range(0..100);
            let a3 = a2 + rng.gen_range(-3i64..=3); // tight function of a2
            let a1 = a2 / 2 + rng.gen_range(-2i64..=2); // depends on a2 (hence a3)
            let a4: i64 = rng.gen_range(0..100);
            let a5 = a4 + rng.gen_range(-3i64..=3); // tight function of a4
            b.push_row(vec![
                Value::Int(a1),
                Value::Int(a2),
                Value::Int(a3),
                Value::Int(a4),
                Value::Int(a5),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// Table where the most dependent pair is uncomposable: `a` and `b`
    /// are identical binary columns (INDEP exactly ½, but each half is
    /// constant in the other attribute so COMPOSE finds nothing to cut),
    /// while `c` tracks `a` loosely and composes fine.
    pub(crate) fn uncomposable_best_pair_table() -> charles_store::Table {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int)
            .add_column("c", DataType::Int);
        for _ in 0..2000 {
            let a: i64 = rng.gen_range(0..2);
            let c = a * 50 + rng.gen_range(0i64..40);
            b.push_row(vec![Value::Int(a), Value::Int(a), Value::Int(c)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn figure3_execution_produces_eight_segmentations() {
        let t = figure3_table(2000);
        let ctx = Query::wildcard(&["att1", "att2", "att3", "att4", "att5"]);
        // Depth 12 lets {att1,att2,att3} (8 pieces) form but not 16-piece sets.
        let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
        let out = hb_cuts(&ex).unwrap();
        // Figure 3: 5 seeds + 3 accepted compositions = 8 segmentations.
        assert_eq!(out.trace.seeds.len(), 5);
        let accepted = out.trace.steps.iter().filter(|s| s.accepted).count();
        assert_eq!(accepted, 3, "trace: {:?}", out.trace.steps);
        assert_eq!(out.ranked.len(), 8);
    }

    #[test]
    fn figure3_composition_tree_shape() {
        let t = figure3_table(2000);
        let ctx = Query::wildcard(&["att1", "att2", "att3", "att4", "att5"]);
        let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
        let out = hb_cuts(&ex).unwrap();
        let accepted: Vec<&ComposeStep> = out.trace.steps.iter().filter(|s| s.accepted).collect();
        // The two tight pairs must be composed (in some order) before the
        // looser att1–{att2,att3} link.
        let pairs: Vec<(Vec<String>, Vec<String>)> = accepted
            .iter()
            .map(|s| (s.left_attrs.clone(), s.right_attrs.clone()))
            .collect();
        let has_23 = pairs.iter().take(2).any(|(l, r)| {
            let mut all: Vec<&str> = l.iter().chain(r).map(|s| s.as_str()).collect();
            all.sort();
            all == ["att2", "att3"]
        });
        let has_45 = pairs.iter().take(2).any(|(l, r)| {
            let mut all: Vec<&str> = l.iter().chain(r).map(|s| s.as_str()).collect();
            all.sort();
            all == ["att4", "att5"]
        });
        assert!(has_23 && has_45, "first two compositions: {pairs:?}");
        // Third composition joins att1 with the {att2, att3} block.
        let (l, r) = &pairs[2];
        let mut third: Vec<&str> = l.iter().chain(r).map(|s| s.as_str()).collect();
        third.sort();
        assert_eq!(third, ["att1", "att2", "att3"]);
    }

    #[test]
    fn every_result_is_a_partition() {
        let t = figure3_table(500);
        let ctx = Query::wildcard(&["att1", "att2", "att3", "att4", "att5"]);
        let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
        let out = hb_cuts(&ex).unwrap();
        for r in &out.ranked {
            let report = r
                .segmentation
                .check_partition(&t, ex.context_selection())
                .unwrap();
            assert!(report.is_partition(), "{}: {report:?}", r.segmentation);
        }
    }

    #[test]
    fn results_sorted_by_entropy_descending() {
        let t = figure3_table(500);
        let ctx = Query::wildcard(&["att1", "att2", "att3", "att4", "att5"]);
        let ex = Explorer::new(&t, Config::default(), ctx).unwrap();
        let out = hb_cuts(&ex).unwrap();
        let entropies: Vec<f64> = out.ranked.iter().map(|r| r.score.entropy).collect();
        for w in entropies.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not sorted: {entropies:?}");
        }
    }

    #[test]
    fn independent_attributes_stop_immediately() {
        // Two independent attributes: the only pair has INDEP ≈ 1 ≥ 0.99,
        // so no composition is accepted and we get exactly the two seeds.
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int);
        for _ in 0..4000 {
            b.push_row(vec![
                Value::Int(rng.gen_range(0..1000)),
                Value::Int(rng.gen_range(0..1000)),
            ])
            .unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b"])).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.ranked.len(), 2);
        assert_eq!(out.trace.stop, Some(StopReason::IndependenceThreshold));
    }

    #[test]
    fn depth_limit_respected() {
        // Strongly dependent attributes with a tiny depth bound: the loop
        // must stop on DepthLimit and never emit a segmentation deeper
        // than the bound.
        let t = figure3_table(500);
        let ctx = Query::wildcard(&["att2", "att3"]);
        let cfg = Config::default().with_max_depth(3);
        let ex = Explorer::new(&t, cfg, ctx).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.trace.stop, Some(StopReason::DepthLimit));
        for r in &out.ranked {
            assert!(
                r.segmentation.depth() < 3 + 4,
                "depth {}",
                r.segmentation.depth()
            );
        }
        // Only the two seeds are returned (the composition was rejected).
        assert_eq!(out.ranked.len(), 2);
    }

    #[test]
    fn constant_attribute_is_skipped() {
        let mut b = TableBuilder::new("t");
        b.add_column("x", DataType::Int)
            .add_column("c", DataType::Int);
        for i in 0..100 {
            b.push_row(vec![Value::Int(i), Value::Int(1)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["x", "c"])).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.trace.seeds, vec!["x"]);
        assert_eq!(out.trace.skipped, vec!["c"]);
        assert_eq!(out.trace.stop, Some(StopReason::ExhaustedCandidates));
        assert_eq!(out.ranked.len(), 1);
    }

    #[test]
    fn all_constant_errors() {
        let mut b = TableBuilder::new("t");
        b.add_column("c", DataType::Int);
        for _ in 0..10 {
            b.push_row(vec![Value::Int(1)]).unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["c"])).unwrap();
        assert!(matches!(hb_cuts(&ex), Err(CoreError::NoCuttableAttribute)));
    }

    #[test]
    fn max_results_truncates() {
        let t = figure3_table(500);
        let ctx = Query::wildcard(&["att1", "att2", "att3", "att4", "att5"]);
        let cfg = Config::default().with_max_results(3);
        let ex = Explorer::new(&t, cfg, ctx).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.ranked.len(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = figure3_table(800);
        let ctx = Query::wildcard(&["att1", "att2", "att3", "att4", "att5"]);
        let run = || {
            let ex = Explorer::new(&t, Config::default(), ctx.clone()).unwrap();
            hb_cuts(&ex)
                .unwrap()
                .ranked
                .iter()
                .map(|r| r.segmentation.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn carried_pieces_equal_their_conjunctions() {
        // What the stepper carries for a candidate — each piece's
        // bitmap, derived from its parent's by one scan — is bit for bit
        // the piece's whole conjunction evaluated inside the context, at
        // every generation, under a context that already constrains a
        // numeric and a nominal attribute, with nulls in every column.
        let mut rng = StdRng::seed_from_u64(17);
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Float)
            .add_column("k", DataType::Str)
            .add_column("c", DataType::Int);
        for _ in 0..1500 {
            let a: i64 = rng.gen_range(0..200);
            let row = vec![
                Value::Int(a),
                Value::Float(a as f64 / 3.0 + rng.gen_range(0.0..9.0)),
                Value::str(format!("k{}", (a / 40 + rng.gen_range(0i64..2)) % 6)),
                Value::Int(a + rng.gen_range(-15i64..=15)),
            ];
            let row = row
                .into_iter()
                .map(|v| (!rng.gen_bool(0.1)).then_some(v))
                .collect();
            b.push_row_opt(row).unwrap();
        }
        let t = b.finish();
        let ctx = charles_sdl::parse_query(
            "(a: [10,180], b: , k: {k0, k1, k2, k3, k4}, c: )",
            t.schema(),
        )
        .unwrap();
        let cfg = Config::default().with_max_indep(1.0).with_max_depth(40);
        let ex = Explorer::new(&t, cfg, ctx).unwrap();

        let check = |stepper: &Stepper| {
            let mut pieces = 0;
            for (seg, resolved) in stepper.cand.iter().zip(&stepper.resolved) {
                assert_eq!(seg.depth(), resolved.sels().len());
                for (q, carried) in seg.queries().iter().zip(resolved.sels()) {
                    let mut evaluated = charles_sdl::eval::selection(q, &t).unwrap();
                    evaluated.and_inplace(ex.context_selection());
                    assert_eq!(**carried, evaluated, "{q}");
                    pieces += 1;
                }
            }
            pieces
        };
        let mut stepper = Stepper::default();
        for attr in ex.attributes() {
            stepper.seed(attr, seed_cut(&ex, attr).unwrap());
        }
        assert_eq!(check(&stepper), 8);
        let mut accepted = 0;
        while stepper.step(&ex).unwrap() {
            accepted += 1;
            assert!(check(&stepper) > 8);
        }
        assert!(accepted >= 2, "{:?}", stepper.trace());
        // The run never asked the explorer for a selection by query.
        assert_eq!(ex.cache_stats().sel_hits, 0);
    }

    #[test]
    fn uncomposable_best_pair_falls_back() {
        // The most dependent pair (a, b) has INDEP = ½ but cannot be
        // composed; the loop must skip it (recording the skip) and
        // compose a weaker — but composable — pair instead of aborting.
        let t = uncomposable_best_pair_table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b", "c"])).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert!(
            !out.trace.skipped_pairs.is_empty(),
            "the uncomposable (a, b) pair must be recorded: {:?}",
            out.trace
        );
        let skipped = &out.trace.skipped_pairs[0];
        let mut pair: Vec<&str> = skipped
            .left_attrs
            .iter()
            .chain(&skipped.right_attrs)
            .map(|s| s.as_str())
            .collect();
        pair.sort();
        assert_eq!(pair, ["a", "b"]);
        assert!((skipped.indep - 0.5).abs() < 1e-9, "{}", skipped.indep);
        assert!(
            out.trace.steps.iter().any(|s| s.accepted),
            "a weaker composable pair must be composed: {:?}",
            out.trace
        );
        assert_ne!(out.trace.stop, Some(StopReason::ComposeFailed));
    }

    #[test]
    fn all_pairs_uncomposable_stops_compose_failed() {
        // Three identical binary columns: every pair is maximally
        // dependent and none is composable — the loop must record every
        // skip and stop with ComposeFailed, returning just the seeds.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int)
            .add_column("d", DataType::Int);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(0..2);
            b.push_row(vec![Value::Int(v), Value::Int(v), Value::Int(v)])
                .unwrap();
        }
        let t = b.finish();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b", "d"])).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.trace.stop, Some(StopReason::ComposeFailed));
        assert_eq!(out.trace.skipped_pairs.len(), 3, "{:?}", out.trace);
        assert!(out.trace.steps.is_empty());
        assert_eq!(out.ranked.len(), 3, "only the three seeds return");
    }

    #[test]
    fn past_threshold_uncomposable_pair_stops_on_independence() {
        // When even the most dependent pair is past max_indep, the loop
        // must stop on the independence threshold whether or not that
        // pair happens to compose — not ban its way through every
        // remaining (equally past-threshold) pair into ComposeFailed.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int)
            .add_column("d", DataType::Int);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(0..2);
            b.push_row(vec![Value::Int(v), Value::Int(v), Value::Int(v)])
                .unwrap();
        }
        let t = b.finish();
        // Identical columns pair at INDEP = ½ exactly; a threshold of
        // 0.4 puts every pair past it.
        let cfg = Config::default().with_max_indep(0.4);
        let ex = Explorer::new(&t, cfg, Query::wildcard(&["a", "b", "d"])).unwrap();
        let out = hb_cuts(&ex).unwrap();
        assert_eq!(out.trace.stop, Some(StopReason::IndependenceThreshold));
        assert!(out.trace.skipped_pairs.is_empty(), "{:?}", out.trace);
        assert!(out.trace.steps.is_empty());
        assert_eq!(out.ranked.len(), 3);
    }
}
