//! Lazy segmentation generation (§5.2).
//!
//! "Currently, Charles generates all possible answers to a user query in
//! one go, then returns them. It may be beneficial to spread the
//! computation time: the system would only generate a small set of
//! queries, and create more upon request."
//!
//! [`LazyGenerator`] runs the HB-cuts loop incrementally: the seed cuts
//! are produced one per `next()` call, then each further call performs one
//! composition step of the same stepper [`crate::hb_cuts`] drives to the
//! end. The set of segmentations eventually yielded equals exactly the
//! eager output (seeds + accepted compositions), just in discovery order
//! instead of entropy order, and the [`Trace`] is the same — experiment
//! E11 measures the resulting time-to-first-answer gap.

use crate::engine::Explorer;
use crate::error::CoreResult;
use crate::hbcuts::{seed_cut, Stepper, StopReason, Trace};
use crate::metrics::Score;
use charles_sdl::Segmentation;

/// Incremental HB-cuts: call [`LazyGenerator::next_segmentation`]
/// repeatedly; `None` means the answer space is exhausted.
///
/// Pair INDEP values persist across `next()` calls, so each composing
/// call only evaluates the O(k) pairs touching the previously composed
/// candidate.
pub struct LazyGenerator<'e, 'a> {
    ex: &'e Explorer<'a>,
    attrs: Vec<String>,
    /// Next attribute to seed; past the end, calls compose.
    next_attr: usize,
    stepper: Stepper,
}

impl<'e, 'a> LazyGenerator<'e, 'a> {
    /// Start a lazy run over an explorer's context.
    pub fn new(ex: &'e Explorer<'a>) -> LazyGenerator<'e, 'a> {
        LazyGenerator {
            ex,
            attrs: ex.attributes().iter().map(|s| s.to_string()).collect(),
            next_attr: 0,
            stepper: Stepper::default(),
        }
    }

    /// Why the generator stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stepper.trace().stop
    }

    /// The execution record so far — once the generator has stopped, the
    /// [`Trace`] the eager run returns.
    pub fn trace(&self) -> &Trace {
        self.stepper.trace()
    }

    /// Produce the next segmentation (scored), or `None` when done.
    ///
    /// A call that fails has consumed nothing: the next call retries the
    /// same seed or the same composition step.
    pub fn next_segmentation(&mut self) -> CoreResult<Option<(Segmentation, Score)>> {
        while let Some(attr) = self.attrs.get(self.next_attr) {
            let cut = seed_cut(self.ex, attr)?;
            self.next_attr += 1;
            let cuttable = cut.is_some();
            self.stepper.seed(attr, cut);
            if cuttable {
                return Ok(self.stepper.newest());
            }
            // Uncuttable attribute: try the next one.
        }
        if self.stop_reason().is_some() || !self.stepper.step(self.ex)? {
            return Ok(None);
        }
        Ok(self.stepper.newest())
    }

    /// Drain everything that remains (turning the generator eager).
    pub fn collect_all(&mut self) -> CoreResult<Vec<(Segmentation, Score)>> {
        let mut out = Vec::new();
        while let Some(item) = self.next_segmentation()? {
            out.push(item);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::fingerprint;
    use crate::hbcuts::{hb_cuts, tests::uncomposable_best_pair_table};
    use charles_sdl::Query;
    use charles_store::{DataType, TableBuilder, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn table() -> charles_store::Table {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = TableBuilder::new("t");
        for name in ["a", "b", "c"] {
            b.add_column(name, DataType::Int);
        }
        for _ in 0..1000 {
            let a: i64 = rng.gen_range(0..50);
            let bb = a + rng.gen_range(-2i64..=2);
            let c: i64 = rng.gen_range(0..50);
            b.push_row(vec![Value::Int(a), Value::Int(bb), Value::Int(c)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn first_answer_arrives_after_one_step() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b", "c"])).unwrap();
        let mut gen = LazyGenerator::new(&ex);
        let first = gen.next_segmentation().unwrap();
        assert!(first.is_some());
        // The first answer is the seed cut on the first attribute.
        let (seg, _) = first.unwrap();
        assert_eq!(seg.attributes(), vec!["a"]);
        assert_eq!(seg.depth(), 2);
    }

    #[test]
    fn lazy_yields_same_set_as_eager() {
        // Both drive the same stepper, so beyond the yielded set the
        // whole trace must agree — also over a banned (uncomposable)
        // best pair and with the §5.1 reuse ablated.
        let ctx = Query::wildcard(&["a", "b", "c"]);
        let mut banned = 0;
        for t in [table(), uncomposable_best_pair_table()] {
            for memoize in [true, false] {
                let cfg = Config::default().with_memoize(memoize);
                let ex1 = Explorer::new(&t, cfg.clone(), ctx.clone()).unwrap();
                let eager = hb_cuts(&ex1).unwrap();
                let ex2 = Explorer::new(&t, cfg, ctx.clone()).unwrap();
                let mut gen = LazyGenerator::new(&ex2);
                let lazy: BTreeSet<String> = gen
                    .collect_all()
                    .unwrap()
                    .iter()
                    .map(|(s, _)| fingerprint(s))
                    .collect();
                let eager_set: BTreeSet<String> = eager
                    .ranked
                    .iter()
                    .map(|r| fingerprint(&r.segmentation))
                    .collect();
                assert_eq!(eager_set, lazy);
                assert_eq!(gen.stop_reason(), eager.trace.stop);
                assert_eq!(format!("{:?}", gen.trace()), format!("{:?}", eager.trace));
                banned += eager.trace.skipped_pairs.len();
            }
        }
        assert!(banned > 0, "no run went over a banned pair");
    }

    #[test]
    fn generator_reports_stop_reason() {
        let t = table();
        let ex = Explorer::new(&t, Config::default(), Query::wildcard(&["a", "b", "c"])).unwrap();
        let mut gen = LazyGenerator::new(&ex);
        assert!(gen.stop_reason().is_none());
        let _ = gen.collect_all().unwrap();
        assert!(gen.stop_reason().is_some());
        // Exhausted generator keeps returning None.
        assert!(gen.next_segmentation().unwrap().is_none());
    }
}
