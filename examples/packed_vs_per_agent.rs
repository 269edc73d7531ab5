//! Packed-vs-per-agent artifact diff: SF's packed bit-plane lane kernels
//! (`SourceFilter`) and the per-agent reference (the same `SfAgent`
//! record stepped one agent at a time through the engine's `ScalarState`
//! adapter) must write byte-identical trajectory artifacts for the same
//! seed — per-round JSONL trace and end-of-run summary, under both the
//! aggregated (popcount-histogram) and exact (unpack-seam) channels.
//!
//! Both sides run SF's one update rule and one display rule; the diff
//! checks the lanes, chunking, bit-plane packing and lazy RNG creation
//! against plain per-agent plumbing. The per-agent run is the reference:
//! it re-derives the bytes on every invocation, so the diff never goes
//! stale against trajectory changes that move both sides together.
//!
//! ```text
//! cargo run --release --example packed_vs_per_agent [OUT_DIR]
//! ```
//!
//! Writes `{per_agent,packed}_{agg,exact}_trace.jsonl` and the matching
//! `*_summary.json` files into `OUT_DIR` (default
//! `target/experiments/packed_vs_per_agent`), then exits nonzero if any
//! per-agent/packed pair differs.

use std::path::{Path, PathBuf};

use noisy_pull_repro::prelude::*;
use np_bench::report::{trace_jsonl, RunSummary};
use np_engine::protocol::ColumnarProtocol;

#[path = "../tests/support/per_agent.rs"]
mod per_agent;
use per_agent::PerAgent;

const N: usize = 256;
const SEED: u64 = 7;
const DELTA: f64 = 0.2;

/// Runs one protocol to its schedule budget and returns the rendered
/// `(trace_jsonl, summary_json)` pair.
fn run<P: ColumnarProtocol>(
    protocol: &P,
    kind: ChannelKind,
) -> Result<(String, String), Box<dyn std::error::Error>> {
    let config = PopulationConfig::new(N, 0, 1, N)?;
    let params = SfParams::derive(&config, DELTA, 1.0)?;
    let noise = NoiseMatrix::uniform(2, DELTA)?;
    let mut world = World::new(protocol, config, &noise, kind, SEED)?;
    world.record_trace();
    world.run(params.total_rounds());
    let trace = world.take_trace().expect("record_trace preceded the run");
    let last = trace.last().ok_or("schedule budget was zero rounds")?;
    let summary = RunSummary::from_final_metrics("sf", world.config(), world.seed(), last);
    Ok((trace_jsonl(trace.rounds()), summary.to_json()))
}

fn write(dir: &Path, name: &str, text: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args().nth(1).map_or_else(
        || Path::new("target/experiments").join("packed_vs_per_agent"),
        PathBuf::from,
    );
    std::fs::create_dir_all(&out)?;
    println!("packed-vs-per-agent artifact diff: n={N} seed={SEED} δ={DELTA}");

    let mut mismatches = 0usize;
    for (kind, tag) in [
        (ChannelKind::Aggregated, "agg"),
        (ChannelKind::Exact, "exact"),
    ] {
        let config = PopulationConfig::new(N, 0, 1, N)?;
        let params = SfParams::derive(&config, DELTA, 1.0)?;
        let (ref_trace, ref_summary) = run(&PerAgent(SourceFilter::new(params)), kind)?;
        let (packed_trace, packed_summary) = run(&SourceFilter::new(params), kind)?;
        write(&out, &format!("per_agent_{tag}_trace.jsonl"), &ref_trace)?;
        write(&out, &format!("packed_{tag}_trace.jsonl"), &packed_trace)?;
        write(&out, &format!("per_agent_{tag}_summary.json"), &ref_summary)?;
        write(&out, &format!("packed_{tag}_summary.json"), &packed_summary)?;
        let trace_ok = ref_trace == packed_trace;
        let summary_ok = ref_summary == packed_summary;
        println!(
            "  {tag}: trace {} ({} rounds), summary {}",
            if trace_ok { "identical" } else { "DIFFERS" },
            ref_trace.lines().count(),
            if summary_ok { "identical" } else { "DIFFERS" },
        );
        mismatches += usize::from(!trace_ok) + usize::from(!summary_ok);
    }
    println!("artifacts: {}", out.display());
    if mismatches > 0 {
        return Err(format!("{mismatches} artifact pair(s) differ").into());
    }
    Ok(())
}
