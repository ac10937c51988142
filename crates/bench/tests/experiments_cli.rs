//! The `experiments` binary rejects what it cannot run: an unknown id
//! used to select nothing, print nothing and exit 0, so a stale
//! invocation (a retired id, a typo) passed vacuously.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_id_exits_2_and_lists_the_valid_ids() {
    let out = experiments(&["e99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("e99"), "{stderr}");
    for id in ["e1", "e7", "e12"] {
        assert!(stderr.split_whitespace().any(|w| w == id), "{stderr}");
    }
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}

#[test]
fn retired_ids_are_unknown_and_block_the_valid_ids_beside_them() {
    // One bad id rejects the whole invocation, valid ids included.
    for retired in ["e13", "e14"] {
        let out = experiments(&["e1", retired]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("valid ids: e1 "), "{stderr}");
        assert!(stderr.trim_end().ends_with(" e12"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "e1 must not run before {retired} is rejected"
        );
    }
}

#[test]
fn json_is_not_a_flag_exits_2_with_the_id_list_before_anything_runs() {
    let out = experiments(&["e12", "--json", "out.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--json"), "{stderr}");
    assert!(stderr.split_whitespace().any(|w| w == "e12"), "{stderr}");
    assert!(out.stdout.is_empty(), "e12 must not run before the check");
}

#[test]
fn known_id_runs() {
    let out = experiments(&["e1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("E1"));
}
