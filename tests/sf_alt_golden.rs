//! Golden reference for SF-ALT (which has no CLI subcommand): fixed-seed
//! trace JSONL, summary JSON and outcome digest recorded as test data,
//! reproduced byte for byte under both channels at 1, 2 and 7 worker
//! threads. SF and SSF have the same reference at the CLI level
//! (`crates/cli/tests/golden.rs`).
//!
//! `UPDATE_GOLDEN=1 cargo test --test sf_alt_golden` rewrites the files.

use std::path::{Path, PathBuf};

use noisy_pull_repro::prelude::*;
use np_bench::report::{trace_jsonl, RunSummary};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, actual: &str, context: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        want == actual,
        "{context}: output differs from {}",
        path.display()
    );
}

/// FNV-1a over the round count and the final opinions — the digest the
/// CLI prints for `--digest`.
fn outcome_digest(world: &World<AlternatingSourceFilter>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = world.round().to_le_bytes();
    let opinions = world.opinions();
    for byte in bytes
        .iter()
        .copied()
        .chain(opinions.iter().map(|o| o.as_byte()))
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("SF-ALT digest: {hash:#018x}\n")
}

fn case(name: &str, kind: ChannelKind) {
    let config = PopulationConfig::new(192, 1, 2, 192).unwrap();
    let params = SfParams::derive(&config, 0.15, 2.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
    for threads in [1, 2, 7] {
        let mut world = World::new(
            &AlternatingSourceFilter::new(params),
            config,
            &noise,
            kind,
            7,
        )
        .unwrap();
        world.set_threads(threads);
        world.record_trace();
        world.run(params.total_rounds());
        let trace = world.take_trace().unwrap();
        let last = trace.last().unwrap();
        let summary = RunSummary::from_final_metrics("SF-ALT", &config, 7, last).to_json();
        let context = format!("{name} at {threads} threads");
        check(&format!("{name}.digest"), &outcome_digest(&world), &context);
        check(
            &format!("{name}.trace.jsonl"),
            &trace_jsonl(trace.rounds()),
            &context,
        );
        check(&format!("{name}.summary.json"), &summary, &context);
    }
}

#[test]
fn sf_alt_aggregated_matches_golden() {
    case("sf-alt-agg", ChannelKind::Aggregated);
}

#[test]
fn sf_alt_exact_matches_golden() {
    case("sf-alt-exact", ChannelKind::Exact);
}
