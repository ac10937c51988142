//! Advisor configuration.

use crate::error::{CoreError, CoreResult};

/// Nominal columns with at most this many distinct values in a segment
/// are ordered by descending frequency for cutting, larger ones
/// alphabetically: "we choose to sort the values by order of occurrence
/// for columns with low cardinality, and alphabetically otherwise" (§4.1).
pub const NOMINAL_FREQ_SORT_LIMIT: usize = 20;

/// Tuning knobs for segmentation generation.
///
/// The defaults mirror the paper: `max_indep = 0.99` ("a threshold of 0.99
/// gave satisfying results with most data sets") and `max_depth = 12` ("a
/// pie chart with more than a dozen slices is hard to read").
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Stop composing once the most dependent pair has `INDEP ≥ max_indep`.
    pub max_indep: f64,
    /// Stop composing once a composition would reach this many queries.
    pub max_depth: usize,
    /// Upper bound on the number of segmentations returned to the user
    /// ("a large number of candidates is overwhelming", §5.1).
    pub max_results: usize,
    /// Reuse selections, entropies and INDEP values across iterations —
    /// the §5.1 optimization ("the calculations of SDL products and
    /// entropy can be reused from one iteration to the next"). Disabling
    /// this is the ablation measured by experiment E5: no pair value and
    /// no resolved operand is carried from one INDEP probe to the next
    /// (each probe re-evaluates both operands' pieces as whole
    /// conjunctions), and [`crate::Explorer::selection`] keeps no memo.
    /// It does not switch off CUT handing each piece its parent's bitmap
    /// to narrow by one scan: that is how a conjunction is evaluated,
    /// not something remembered.
    pub memoize: bool,
    /// Statically analyze every context at admission: reject ill-typed
    /// queries with structured diagnostics, prune provably-empty
    /// conjunctions before any backend work, and merge redundant
    /// conjuncts so equivalent contexts share one cache entry. Disable
    /// to feed contexts to the advisor verbatim (equivalence testing).
    pub analysis: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_indep: 0.99,
            max_depth: 12,
            max_results: 64,
            memoize: true,
            analysis: true,
        }
    }
}

impl Config {
    /// Validate the configuration before use.
    pub(crate) fn validate(&self) -> CoreResult<()> {
        if !(0.0..=1.0).contains(&self.max_indep) {
            return Err(CoreError::BadConfig(format!(
                "max_indep must lie in [0,1], got {}",
                self.max_indep
            )));
        }
        if self.max_depth < 2 {
            return Err(CoreError::BadConfig(
                "max_depth must be at least 2 (a segmentation needs two pieces)".into(),
            ));
        }
        if self.max_results == 0 {
            return Err(CoreError::BadConfig("max_results must be positive".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the INDEP stopping threshold.
    pub fn with_max_indep(mut self, v: f64) -> Config {
        self.max_indep = v;
        self
    }

    /// Builder-style setter for the depth bound.
    pub fn with_max_depth(mut self, v: usize) -> Config {
        self.max_depth = v;
        self
    }

    /// Builder-style setter for the result cap.
    pub fn with_max_results(mut self, v: usize) -> Config {
        self.max_results = v;
        self
    }

    /// Builder-style setter for memoization (E5 ablation switch).
    pub fn with_memoize(mut self, v: bool) -> Config {
        self.memoize = v;
        self
    }

    /// Builder-style setter for static context analysis.
    pub fn with_analysis(mut self, v: bool) -> Config {
        self.analysis = v;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.max_indep, 0.99);
        assert_eq!(c.max_depth, 12);
        assert!(c.analysis, "analysis is on by default");
        assert!(!c.with_analysis(false).analysis);
        assert!(Config::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(Config::default().with_max_indep(1.5).validate().is_err());
        assert!(Config::default().with_max_depth(1).validate().is_err());
        assert!(Config::default().with_max_results(0).validate().is_err());
    }

    #[test]
    fn builder_chain() {
        let c = Config::default().with_max_depth(8).with_max_results(5);
        assert_eq!((c.max_depth, c.max_results), (8, 5));
    }
}
