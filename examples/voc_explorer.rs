//! The Figure 1 experience in a terminal: explore the VOC shipping data.
//!
//! ```sh
//! cargo run --example voc_explorer            # guided tour (no input)
//! cargo run --example voc_explorer -- -i      # interactive REPL
//! ```
//!
//! Interactive commands:
//!
//! * `<n>`        — show ranked answer n in the detail panel
//! * `d <n> <m>`  — drill into segment m of answer n (it becomes the context)
//! * `b`          — back up one level
//! * `sql <n>`    — print answer n as SQL statements
//! * `q`          — quit

use charles::viz::{context_panel, multi_level_pie, render_panel, PieLevel};
use charles::{voc_table, Session};
use charles_sdl::{eval, segmentation_to_sql};
use std::io::{BufRead, Write};
use std::sync::Arc;

const CONTEXT: &str = "(type_of_boat: , tonnage: , departure_harbour: , cape_arrival: , built: )";

fn main() {
    let interactive = std::env::args().any(|a| a == "-i" || a == "--interactive");
    let ships = Arc::new(voc_table(20_000, 1713));
    let mut session = Session::new(ships.clone());
    session.start(CONTEXT).expect("context parses");

    if interactive {
        repl(&ships, &mut session);
    } else {
        tour(&ships, &mut session);
    }
}

/// Non-interactive guided tour: show the panel, drill once, show again.
fn tour(ships: &charles::Table, session: &mut Session) {
    let advice = session.current().expect("started");
    println!("{}", context_panel(&advice.context));
    println!(
        "{}",
        render_panel(ships, advice, 0, 110).expect("panel renders")
    );

    // §5.2 hierarchical display: the best answer as a two-ring pie, the
    // inner ring grouping segments by their constraint on the first
    // composed attribute.
    let best = &advice.ranked[0].segmentation;
    if let Some(first_attr) = best.attributes().first().copied() {
        let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
        for q in best.queries() {
            let key = q
                .constraint(first_attr)
                .map(|c| c.to_string())
                .unwrap_or_default();
            let cover = eval::count(q, ships).unwrap_or(0) as f64;
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, ws)) => ws.push(cover),
                None => groups.push((key, vec![cover])),
            }
        }
        let level = PieLevel {
            groups: groups.into_iter().map(|(_, ws)| ws).collect(),
        };
        println!("best answer as a multi-level pie (inner ring: {first_attr}):\n");
        for line in multi_level_pie(&level, 7).lines() {
            println!("   {line}");
        }
    }

    println!("→ drilling into segment 0 of the best answer …\n");
    let deeper = session.drill(0, 0).expect("drillable");
    println!("{}", context_panel(&deeper.context));
    println!(
        "{}",
        render_panel(ships, deeper, 0, 110).expect("panel renders")
    );
    println!("run with -i for the interactive version");
}

fn repl(ships: &charles::Table, session: &mut Session) {
    let stdin = std::io::stdin();
    let mut selected = 0usize;
    loop {
        let advice = session.current().expect("session started");
        println!("{}", context_panel(&advice.context));
        match render_panel(ships, advice, selected, 110) {
            Ok(panel) => println!("{panel}"),
            Err(e) => println!("render error: {e}"),
        }
        print!("charles[{}]> ", session.depth());
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["q"] | ["quit"] => break,
            ["b"] | ["back"] => {
                if session.back().is_none() {
                    println!("(already at the root context)");
                }
                selected = 0;
            }
            ["d", n, m] => match (n.parse::<usize>(), m.parse::<usize>()) {
                (Ok(n), Ok(m)) => match session.drill(n, m) {
                    Ok(_) => selected = 0,
                    Err(e) => println!("cannot drill: {e}"),
                },
                _ => println!("usage: d <answer> <segment>"),
            },
            ["sql", n] => {
                if let Ok(n) = n.parse::<usize>() {
                    if let Some(r) = advice.ranked.get(n) {
                        for stmt in segmentation_to_sql(&r.segmentation, "voc") {
                            println!("{stmt}");
                        }
                    } else {
                        println!("no answer #{n}");
                    }
                }
            }
            [n] => match n.parse::<usize>() {
                Ok(n) if n < advice.ranked.len() => selected = n,
                _ => println!("commands: <n> | d <n> <m> | b | sql <n> | q"),
            },
            _ => println!("commands: <n> | d <n> <m> | b | sql <n> | q"),
        }
    }
}
