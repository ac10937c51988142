//! Synthetic VOC (Dutch East India Company) shipping relation.
//!
//! Figure 1 of the paper explores a table with the columns `tonnage`,
//! `type_of_boat`, `built`, `yard`, `departure_date`, `departure_harbour`,
//! `cape_arrival`, `trip`, `master`. The real Dutch-Asiatic Shipping
//! database is not redistributable, so this generator reproduces its
//! *shape*: the dependencies the advisor is supposed to discover —
//!
//! * `type_of_boat` ↔ `tonnage` (each class has its own tonnage band);
//! * `departure_harbour` ↔ `cape_arrival` (route structure: outbound
//!   Dutch harbours vs Asian return harbours);
//! * `built` ↔ `yard` (yards operate in eras) and `built` ↔
//!   `departure_date` (ships sail after they are built);
//! * `master` and `trip` are high-cardinality, near-independent columns —
//!   noise the advisor should ignore.

use charles_store::{DataType, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Boat classes with tonnage bands and period of service.
/// (name, min tonnage, max tonnage, first year, last year)
const CLASSES: [(&str, i64, i64, i64, i64); 5] = [
    ("fluit", 300, 700, 1620, 1750),
    ("jacht", 100, 400, 1600, 1720),
    ("spiegelretourschip", 700, 1200, 1650, 1795),
    ("pinas", 400, 800, 1600, 1690),
    ("hoeker", 150, 450, 1680, 1795),
];

/// Dutch outbound harbours (weights) and their typical Asian destination.
const ROUTES: [(&str, &str, f64); 6] = [
    ("Texel", "Batavia", 0.35),
    ("Rammekens", "Batavia", 0.15),
    ("Goeree", "Ceylon", 0.15),
    ("Texel", "Ceylon", 0.10),
    ("Wielingen", "Bengalen", 0.15),
    ("Rammekens", "Surat", 0.10),
];

/// Shipyards and their active eras.
const YARDS: [(&str, i64, i64); 4] = [
    ("Amsterdam", 1600, 1700),
    ("Zeeland", 1640, 1740),
    ("Rotterdam", 1680, 1795),
    ("Hoorn", 1600, 1670),
];

/// The VOC relation's schema, shared by the eager and streaming paths.
pub(crate) fn voc_schema() -> Schema {
    let mut s = Schema::new();
    for (name, ty) in [
        ("type_of_boat", DataType::Str),
        ("tonnage", DataType::Int),
        ("built", DataType::Date),
        ("yard", DataType::Str),
        ("departure_date", DataType::Date),
        ("departure_harbour", DataType::Str),
        ("cape_arrival", DataType::Str),
        ("trip", DataType::Int),
        ("master", DataType::Str),
    ] {
        s.add(name, ty).expect("static schema is well-formed");
    }
    s
}

/// One synthetic voyage, advancing the shared RNG (the deterministic
/// unit both [`voc_table`] and [`voc_rows`] are built from).
fn voc_row(rng: &mut StdRng) -> Vec<Value> {
    let (class, t_lo, t_hi, y_lo, y_hi) = CLASSES[rng.gen_range(0..CLASSES.len())];
    let tonnage = rng.gen_range(t_lo..=t_hi);
    let built_year = rng.gen_range(y_lo..=y_hi);
    // Yard chosen among those active when the ship was built.
    let active: Vec<&str> = YARDS
        .iter()
        .filter(|(_, a, b)| built_year >= *a && built_year <= *b)
        .map(|(name, _, _)| *name)
        .collect();
    let yard = if active.is_empty() {
        "Amsterdam"
    } else {
        active[rng.gen_range(0..active.len())]
    };
    // Ships sail 0–25 years after construction.
    let dep_year = built_year + rng.gen_range(0i64..=25);
    let (harbour, arrival) = pick_route(rng);
    let trip = rng.gen_range(1..=8);
    let master = format!("master_{:03}", rng.gen_range(0..150));
    vec![
        Value::str(class),
        Value::Int(tonnage),
        Value::date_ymd(built_year, rng.gen_range(1..=12), rng.gen_range(1..=28)),
        Value::str(yard),
        Value::date_ymd(dep_year, rng.gen_range(1..=12), rng.gen_range(1..=28)),
        Value::str(harbour),
        Value::str(arrival),
        Value::Int(trip),
        Value::Str(master),
    ]
}

/// The `n` voyages of `voc_table(n, seed)` as a row iterator — the
/// streaming producer: re-creating this iterator replays the identical
/// rows, which is what lets `generate_and_save` make one pass
/// per column without materialising the table.
pub(crate) fn voc_rows(n: usize, seed: u64) -> impl Iterator<Item = Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(move |_| voc_row(&mut rng))
}

/// Generate `n` synthetic VOC voyages (deterministic per seed).
pub fn voc_table(n: usize, seed: u64) -> Table {
    let mut b = TableBuilder::new("voc");
    for c in voc_schema().columns() {
        b.add_column(&c.name, c.ty);
    }
    for row in voc_rows(n, seed) {
        b.push_row(row).expect("schema matches");
    }
    b.finish()
}

fn pick_route(rng: &mut StdRng) -> (&'static str, &'static str) {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (h, a, w) in ROUTES {
        acc += w;
        if u <= acc {
            return (h, a);
        }
    }
    let (h, a, _) = ROUTES[ROUTES.len() - 1];
    (h, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{Backend, StorePredicate};

    #[test]
    fn schema_matches_figure1() {
        let t = voc_table(100, 1);
        let names = t.schema().names();
        assert_eq!(
            names,
            vec![
                "type_of_boat",
                "tonnage",
                "built",
                "yard",
                "departure_date",
                "departure_harbour",
                "cape_arrival",
                "trip",
                "master"
            ]
        );
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = charles_store::write_csv_string(&voc_table(50, 7)).unwrap();
        let b = charles_store::write_csv_string(&voc_table(50, 7)).unwrap();
        let c = charles_store::write_csv_string(&voc_table(50, 8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tonnage_depends_on_type() {
        // Class tonnage bands: a jacht never exceeds 400, a
        // spiegelretourschip never goes below 700.
        let t = voc_table(2000, 2);
        let jacht = t
            .eval(&StorePredicate::set(
                "type_of_boat",
                vec![Value::str("jacht")],
            ))
            .unwrap();
        let (_, hi) = t.min_max("tonnage", &jacht).unwrap().unwrap();
        assert!(hi.as_f64().unwrap() <= 400.0);
        let retour = t
            .eval(&StorePredicate::set(
                "type_of_boat",
                vec![Value::str("spiegelretourschip")],
            ))
            .unwrap();
        let (lo, _) = t.min_max("tonnage", &retour).unwrap().unwrap();
        assert!(lo.as_f64().unwrap() >= 700.0);
    }

    #[test]
    fn departure_never_precedes_construction() {
        let t = voc_table(500, 3);
        for i in 0..t.len() {
            let built = t.value(i, "built").unwrap().unwrap();
            let dep = t.value(i, "departure_date").unwrap().unwrap();
            // Same-year departures can precede the construction *day*, but
            // a departure year strictly before the build year is a bug.
            assert!(
                dep.as_f64().unwrap() >= built.as_f64().unwrap() - 372.0,
                "row {i}: dep {dep} < built {built}"
            );
        }
    }

    #[test]
    fn routes_link_harbour_and_arrival() {
        let t = voc_table(2000, 4);
        // Surat is only reached from Rammekens in the route table.
        let surat = t
            .eval(&StorePredicate::set(
                "cape_arrival",
                vec![Value::str("Surat")],
            ))
            .unwrap();
        assert!(surat.count_ones() > 0);
        let (ft, dict) = t.frequencies("departure_harbour", &surat).unwrap();
        for (code, count) in ft.entries() {
            if *count > 0 {
                assert_eq!(dict[*code as usize], "Rammekens");
            }
        }
    }

    #[test]
    fn master_is_high_cardinality_noise() {
        let t = voc_table(2000, 5);
        let distinct = t.distinct_count("master", &t.all_rows()).unwrap();
        assert!(distinct > 100, "only {distinct} masters");
    }
}
