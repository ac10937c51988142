//! Synthetic sky-survey catalogue.
//!
//! The demo proposal promises "a few domain-specific databases, covering
//! topics such as history and astronomy". This generator produces an
//! object catalogue in the style of SDSS-like surveys: position (`ra`,
//! `dec`), photometry (`magnitude`), `redshift`, an object `class`
//! (star / galaxy / quasar / nebula) and the `survey` field that observed
//! it. The class drives the distributions — stars have zero redshift,
//! quasars are faint and far — giving HB-cuts real structure to find.

use charles_store::{DataType, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Approximate standard Gaussian via the Irwin–Hall construction
/// (sum of 12 uniforms, recentred) — good enough for data generation and
/// dependency-free.
fn gauss(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// The sky-survey relation's schema, shared by the eager and streaming
/// paths.
pub(crate) fn astro_schema() -> Schema {
    let mut s = Schema::new();
    for (name, ty) in [
        ("ra", DataType::Float),
        ("dec", DataType::Float),
        ("magnitude", DataType::Float),
        ("redshift", DataType::Float),
        ("class", DataType::Str),
        ("survey", DataType::Str),
    ] {
        s.add(name, ty).expect("static schema is well-formed");
    }
    s
}

/// One catalogue object, advancing the shared RNG.
fn astro_row(rng: &mut StdRng) -> Vec<Value> {
    let class_pick: f64 = rng.gen();
    // (class, share): stars dominate, then galaxies, quasars, nebulae.
    let class = if class_pick < 0.45 {
        "star"
    } else if class_pick < 0.80 {
        "galaxy"
    } else if class_pick < 0.95 {
        "quasar"
    } else {
        "nebula"
    };
    let (mag, z) = match class {
        // Bright, local.
        "star" => (12.0 + 2.5 * gauss(rng).abs(), 0.0),
        // Mid-range magnitude, modest redshift.
        "galaxy" => (17.0 + 1.5 * gauss(rng), (0.08 + 0.05 * gauss(rng)).max(0.0)),
        // Faint and far.
        "quasar" => (20.0 + 1.0 * gauss(rng), (2.0 + 0.8 * gauss(rng)).max(0.2)),
        // Extended local objects.
        _ => (15.0 + 2.0 * gauss(rng).abs(), 0.0),
    };
    // Two survey footprints: "north" covers dec > 0, "south" dec < 10 —
    // overlapping bands, so survey correlates with position.
    let dec = gauss(rng) * 30.0;
    let survey = if dec > 10.0 {
        "NGS"
    } else if dec < 0.0 {
        "SGS"
    } else if rng.gen_bool(0.5) {
        "NGS"
    } else {
        "SGS"
    };
    vec![
        Value::Float(rng.gen::<f64>() * 360.0),
        Value::Float(dec),
        Value::Float(mag.clamp(5.0, 28.0)),
        Value::Float(z.min(7.0)),
        Value::str(class),
        Value::str(survey),
    ]
}

/// The `n` objects of `astro_table(n, seed)` as a replayable row
/// iterator (the streaming producer).
pub(crate) fn astro_rows(n: usize, seed: u64) -> impl Iterator<Item = Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(move |_| astro_row(&mut rng))
}

/// Generate an `n`-object catalogue (deterministic per seed).
pub fn astro_table(n: usize, seed: u64) -> Table {
    let mut b = TableBuilder::new("sky");
    for c in astro_schema().columns() {
        b.add_column(&c.name, c.ty);
    }
    for row in astro_rows(n, seed) {
        b.push_row(row).expect("schema matches");
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{Backend, StorePredicate};

    #[test]
    fn schema_and_size() {
        let t = astro_table(500, 1);
        assert_eq!(t.len(), 500);
        assert_eq!(
            t.schema().names(),
            vec!["ra", "dec", "magnitude", "redshift", "class", "survey"]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = charles_store::write_csv_string(&astro_table(100, 9)).unwrap();
        let b = charles_store::write_csv_string(&astro_table(100, 9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stars_have_zero_redshift_quasars_do_not() {
        let t = astro_table(3000, 2);
        let stars = t
            .eval(&StorePredicate::set("class", vec![Value::str("star")]))
            .unwrap();
        let (_, hi) = t.min_max("redshift", &stars).unwrap().unwrap();
        assert_eq!(hi.as_f64().unwrap(), 0.0);
        let quasars = t
            .eval(&StorePredicate::set("class", vec![Value::str("quasar")]))
            .unwrap();
        let (lo, _) = t.min_max("redshift", &quasars).unwrap().unwrap();
        assert!(lo.as_f64().unwrap() >= 0.2);
    }

    #[test]
    fn quasars_are_fainter_than_stars() {
        let t = astro_table(3000, 3);
        let med = |class: &str| {
            let sel = t
                .eval(&StorePredicate::set("class", vec![Value::str(class)]))
                .unwrap();
            t.median("magnitude", &sel)
                .unwrap()
                .unwrap()
                .as_f64()
                .unwrap()
        };
        // Larger magnitude = fainter object.
        assert!(med("quasar") > med("star") + 3.0);
    }

    #[test]
    fn survey_correlates_with_declination() {
        let t = astro_table(3000, 4);
        let ngs = t
            .eval(&StorePredicate::set("survey", vec![Value::str("NGS")]))
            .unwrap();
        let med = t.median("dec", &ngs).unwrap().unwrap().as_f64().unwrap();
        let sgs = t
            .eval(&StorePredicate::set("survey", vec![Value::str("SGS")]))
            .unwrap();
        let med_s = t.median("dec", &sgs).unwrap().unwrap().as_f64().unwrap();
        assert!(med > med_s, "NGS median dec {med} ≤ SGS {med_s}");
    }

    #[test]
    fn values_within_physical_bounds() {
        let t = astro_table(1000, 5);
        let all = t.all_rows();
        let (lo, hi) = t.min_max("ra", &all).unwrap().unwrap();
        assert!(lo.as_f64().unwrap() >= 0.0 && hi.as_f64().unwrap() <= 360.0);
        let (lo, hi) = t.min_max("magnitude", &all).unwrap().unwrap();
        assert!(lo.as_f64().unwrap() >= 5.0 && hi.as_f64().unwrap() <= 28.0);
    }
}
