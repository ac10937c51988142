//! Quickstart: ask Charles for advice on a small table.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds a toy VOC-style relation, asks the advisor to segment it, and
//! prints the ranked answers with their metrics, exactly the loop the
//! paper's §2 describes: context in, ranked segmentations out, pick one,
//! drill deeper.

use charles::sdl::query_to_sql;
use charles::store::DataType;
use charles::{Advisor, Session, TableBuilder, Value};
use std::sync::Arc;

fn main() {
    // 1. A relation. In real use this comes from CSV (`read_csv_str`) or
    //    a generator; here we write it out by hand so the output is easy
    //    to follow.
    let mut b = TableBuilder::new("boats");
    b.add_column("type_of_boat", DataType::Str)
        .add_column("tonnage", DataType::Int)
        .add_column("departure_harbour", DataType::Str);
    let rows = [
        ("fluit", 420, "Texel"),
        ("fluit", 480, "Texel"),
        ("fluit", 510, "Rammekens"),
        ("fluit", 550, "Rammekens"),
        ("jacht", 150, "Texel"),
        ("jacht", 210, "Goeree"),
        ("jacht", 260, "Goeree"),
        ("jacht", 320, "Texel"),
        ("spiegelretourschip", 800, "Wielingen"),
        ("spiegelretourschip", 900, "Wielingen"),
        ("spiegelretourschip", 1000, "Texel"),
        ("spiegelretourschip", 1150, "Wielingen"),
    ];
    for (ty, t, h) in rows {
        b.push_row(vec![Value::str(ty), Value::Int(t), Value::str(h)])
            .expect("row matches schema");
    }
    let table = b.finish();

    // 2. Ask for advice on the whole table, all three columns in scope.
    let advisor = Advisor::new(&table);
    let advice = advisor
        .advise_str("(type_of_boat: , tonnage: , departure_harbour: )")
        .expect("valid context");

    println!(
        "context: {} ({} rows)\n",
        advice.context, advice.context_size
    );
    println!("Charles proposes {} segmentations:\n", advice.ranked.len());
    for (i, r) in advice.ranked.iter().enumerate() {
        println!(
            "#{i}  entropy={:.3}  simplicity={}  breadth={}  pieces={}",
            r.score.entropy, r.score.simplicity, r.score.breadth, r.score.depth
        );
        for q in r.segmentation.queries() {
            println!("      {q}");
        }
        println!();
    }

    // 3. Every segment is a plain SQL query — Charles is a front-end for
    //    SQL systems.
    let best = &advice.ranked[0];
    println!("best answer as SQL:");
    for q in best.segmentation.queries() {
        println!("  {}", query_to_sql(q, "boats"));
    }

    // 4. Drill down: take the first segment of the best answer as the new
    //    context and ask again.
    let mut session = Session::new(Arc::new(table));
    session
        .start("(type_of_boat: , tonnage: , departure_harbour: )")
        .expect("context parses");
    let deeper = session.drill(0, 0).expect("segment exists");
    println!(
        "\nafter drilling into the first segment ({} rows), Charles suggests:",
        deeper.context_size
    );
    if let Some(r) = deeper.ranked.first() {
        for q in r.segmentation.queries() {
            println!("  {q}");
        }
    } else {
        println!("  (segment too uniform to split further)");
    }
}
