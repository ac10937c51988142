//! The build's CPU baseline: every x86_64 build targets x86-64-v3, so
//! the bitmap kernels' AND-counts and popcounts compile to `popcnt` and
//! AVX2 (`docs/adr/0029-the-build-targets-x86-64-v3.md`). The flags
//! live in `.cargo/config.toml`; a build that lost them is a binary no
//! figure in the ADRs or the benchmark was measured on, so it fails
//! here rather than ship slower unnoticed.

#[test]
#[cfg(target_arch = "x86_64")]
fn the_build_targets_x86_64_v3() {
    let features = [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx2", cfg!(target_feature = "avx2")),
    ];
    let missing: Vec<&str> = features
        .iter()
        .filter(|&&(_, on)| !on)
        .map(|&(name, _)| name)
        .collect();
    assert!(
        missing.is_empty(),
        "this build lacks {missing:?}: `.cargo/config.toml` compiles every x86_64 \
         build with `-C target-cpu=x86-64-v3`, and setting RUSTFLAGS replaces the \
         config's flags rather than adding to them (add `-C target-cpu=x86-64-v3` \
         to it, or unset it)"
    );
}
