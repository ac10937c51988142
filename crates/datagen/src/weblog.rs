//! Synthetic sessionised web log.
//!
//! The paper's introduction names web logs among the datasets scientists
//! and analysts grind. This generator produces a request log with the
//! skew that makes such logs awkward for naive median cuts (experiment
//! E10's natural habitat): Zipfian path popularity, heavy-tailed bytes
//! and latency, status codes dependent on the path, and a diurnal
//! hour-of-day pattern that differs per country.

use crate::zipf::Zipf;
use charles_store::{DataType, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COUNTRIES: [(&str, f64, i64); 5] = [
    // (country, traffic share, peak hour UTC)
    ("NL", 0.30, 13),
    ("US", 0.25, 20),
    ("DE", 0.20, 12),
    ("JP", 0.15, 4),
    ("BR", 0.10, 23),
];

const SECTIONS: [&str; 6] = ["home", "search", "product", "cart", "api", "admin"];

/// The web-log relation's schema, shared by the eager and streaming
/// paths.
pub fn weblog_schema() -> Schema {
    let mut s = Schema::new();
    for (name, ty) in [
        ("section", DataType::Str),
        ("method", DataType::Str),
        ("status", DataType::Int),
        ("bytes", DataType::Int),
        ("latency_ms", DataType::Float),
        ("country", DataType::Str),
        ("hour", DataType::Int),
    ] {
        s.add(name, ty).expect("static schema is well-formed");
    }
    s
}

/// One log line, advancing the shared RNG (the Zipf sampler is
/// stateless between rows, so it is passed by reference).
fn weblog_row(rng: &mut StdRng, paths: &Zipf) -> Vec<Value> {
    let section = SECTIONS[paths.sample(rng)];
    let method = match section {
        "cart" | "api" if rng.gen_bool(0.6) => "POST",
        _ => "GET",
    };
    // Status depends on the section: admin 403s, api 500s, rest mostly 200.
    let status: i64 = match section {
        "admin" => {
            if rng.gen_bool(0.7) {
                403
            } else {
                200
            }
        }
        "api" => {
            let r: f64 = rng.gen();
            if r < 0.85 {
                200
            } else if r < 0.95 {
                500
            } else {
                404
            }
        }
        _ => {
            if rng.gen_bool(0.95) {
                200
            } else {
                404
            }
        }
    };
    // Pareto-ish heavy tails for bytes and latency.
    let u: f64 = rng.gen::<f64>().max(1e-9);
    let bytes = (500.0 / u.powf(0.6)).min(5e7) as i64;
    let u2: f64 = rng.gen::<f64>().max(1e-9);
    let mut latency = 5.0 / u2.powf(0.8);
    if status == 500 {
        latency *= 10.0; // errors are slow
    }
    let (country, peak) = pick_country(rng);
    // Diurnal curve: hours cluster around the country's peak.
    let spread: i64 = rng.gen_range(-4i64..=4) + rng.gen_range(-4i64..=4);
    let hour = (peak + spread).rem_euclid(24);
    vec![
        Value::str(section),
        Value::str(method),
        Value::Int(status),
        Value::Int(bytes),
        Value::Float(latency.min(120_000.0)),
        Value::str(country),
        Value::Int(hour),
    ]
}

/// The `n` log lines of `weblog_table(n, seed)` as a replayable row
/// iterator (the streaming producer).
pub fn weblog_rows(n: usize, seed: u64) -> impl Iterator<Item = Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let paths = Zipf::new(SECTIONS.len(), 1.1);
    (0..n).map(move |_| weblog_row(&mut rng, &paths))
}

/// Generate `n` log lines (deterministic per seed).
pub fn weblog_table(n: usize, seed: u64) -> Table {
    let mut b = TableBuilder::new("weblog");
    for c in weblog_schema().columns() {
        b.add_column(&c.name, c.ty);
    }
    for row in weblog_rows(n, seed) {
        b.push_row(row).expect("schema matches");
    }
    b.finish()
}

fn pick_country(rng: &mut StdRng) -> (&'static str, i64) {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (c, w, peak) in COUNTRIES {
        acc += w;
        if u <= acc {
            return (c, peak);
        }
    }
    let (c, _, peak) = COUNTRIES[COUNTRIES.len() - 1];
    (c, peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::{Backend, StorePredicate};

    #[test]
    fn schema_and_determinism() {
        let t = weblog_table(200, 1);
        assert_eq!(t.len(), 200);
        assert_eq!(t.schema().arity(), 7);
        let a = charles_store::write_csv_string(&weblog_table(50, 3)).unwrap();
        let b = charles_store::write_csv_string(&weblog_table(50, 3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn paths_are_zipfian() {
        let t = weblog_table(5000, 2);
        let (ft, dict) = t.frequencies("section", &t.all_rows()).unwrap();
        let by_freq = ft.by_frequency();
        // The most popular section carries ≥ 2x the traffic of the third.
        assert!(by_freq[0].1 > 2 * by_freq[2].1, "{by_freq:?} {dict:?}");
    }

    #[test]
    fn admin_section_is_forbidden_mostly() {
        let t = weblog_table(5000, 4);
        let admin = t
            .eval(&StorePredicate::set("section", vec![Value::str("admin")]))
            .unwrap();
        let forbidden = t
            .eval(&charles_store::StorePredicate::and(vec![
                StorePredicate::set("section", vec![Value::str("admin")]),
                StorePredicate::set("status", vec![Value::Int(403)]),
            ]))
            .unwrap();
        assert!(forbidden.count_ones() * 2 > admin.count_ones());
    }

    #[test]
    fn errors_are_slower() {
        let t = weblog_table(20_000, 5);
        let ok = t
            .eval(&StorePredicate::set("status", vec![Value::Int(200)]))
            .unwrap();
        let err = t
            .eval(&StorePredicate::set("status", vec![Value::Int(500)]))
            .unwrap();
        if err.count_ones() > 10 {
            let m_ok = t
                .median("latency_ms", &ok)
                .unwrap()
                .unwrap()
                .as_f64()
                .unwrap();
            let m_err = t
                .median("latency_ms", &err)
                .unwrap()
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(m_err > m_ok * 3.0, "ok {m_ok} err {m_err}");
        }
    }

    #[test]
    fn latency_is_heavy_tailed() {
        let t = weblog_table(20_000, 6);
        let all = t.all_rows();
        let med = t
            .median("latency_ms", &all)
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        let p99 = t
            .quantile("latency_ms", &all, 0.99)
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(p99 > 10.0 * med, "median {med}, p99 {p99}");
    }

    #[test]
    fn hours_cluster_around_country_peak() {
        let t = weblog_table(20_000, 7);
        let jp = t
            .eval(&StorePredicate::set("country", vec![Value::str("JP")]))
            .unwrap();
        // JP peak is hour 4: the 4±3 window should hold a clear plurality.
        let window = t
            .eval(&charles_store::StorePredicate::and(vec![
                StorePredicate::set("country", vec![Value::str("JP")]),
                StorePredicate::range("hour", Value::Int(1), Value::Int(7), true),
            ]))
            .unwrap();
        assert!(
            window.count_ones() * 2 > jp.count_ones(),
            "{} of {}",
            window.count_ones(),
            jp.count_ones()
        );
    }
}
