//! Golden reference for `run sf` / `run ssf` / `cluster`: fixed-seed
//! trace JSONL, summary JSON and digest lines recorded as test data, which
//! every build must reproduce byte for byte at 1, 2 and 7 worker threads.
//!
//! These recordings are the semantic reference for the SF and SSF
//! transitions: a change to either update or display rule shows up here
//! as a byte diff. `UPDATE_GOLDEN=1 cargo test -p np-cli --test golden`
//! rewrites the files; a legitimate trajectory change must say why in
//! CHANGELOG.md.

use std::path::{Path, PathBuf};
use std::process::Command;

const THREADS: [&str; 3] = ["1", "2", "7"];

const SSF: &[&str] = &[
    "run",
    "ssf",
    "--n",
    "128",
    "--delta",
    "0.1",
    "--c1",
    "8",
    "--seed",
    "7",
    "--budget-intervals",
    "20",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_noisy-pull"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "exit {:?} for {args:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The stdout lines that name a digest (wall-clock lines are excluded:
/// they differ run to run).
fn digest_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| l.contains("digest:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compares `actual` with the golden file `name`, or rewrites it under
/// `UPDATE_GOLDEN=1`.
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

/// Runs one traced case at every thread count and checks all three
/// artifacts against the recordings.
fn traced_case(case: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("np-golden-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for threads in THREADS {
        let trace = dir.join(format!("t{threads}.jsonl"));
        let summary = dir.join(format!("s{threads}.json"));
        let (trace_s, summary_s) = (trace.to_str().unwrap(), summary.to_str().unwrap());
        let mut full = args.to_vec();
        full.extend([
            "--threads",
            threads,
            "--digest",
            "--trace",
            trace_s,
            "--metrics-out",
            summary_s,
        ]);
        let stdout = run(&full);
        let context = format!("{case} at {threads} threads");
        check(&format!("{case}.digest"), &digest_lines(&stdout), &context);
        let trace = std::fs::read_to_string(&trace).unwrap();
        check(&format!("{case}.trace.jsonl"), &trace, &context);
        let summary = std::fs::read_to_string(&summary).unwrap();
        check(&format!("{case}.summary.json"), &summary, &context);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn with(base: &[&'static str], extra: &[&'static str]) -> Vec<&'static str> {
    base.iter().chain(extra).copied().collect()
}

#[test]
fn sf_aggregated_matches_golden() {
    traced_case("sf-agg", &["run", "sf", "--n", "256", "--seed", "7"]);
}

#[test]
fn sf_exact_matches_golden() {
    traced_case(
        "sf-exact",
        &["run", "sf", "--n", "256", "--seed", "7", "--exact"],
    );
}

#[test]
fn ssf_aggregated_matches_golden() {
    traced_case("ssf-agg", SSF);
}

#[test]
fn ssf_exact_matches_golden() {
    traced_case("ssf-exact", &with(SSF, &["--exact"]));
}

#[test]
fn ssf_poisoned_memory_start_matches_golden() {
    traced_case(
        "ssf-poisoned",
        &with(SSF, &["--adversary", "poisoned-memory"]),
    );
}

/// The faulted run of `scripts/ci.sh`: mid-run corruption, a noise ramp
/// and sleepers.
#[test]
fn ssf_faulted_matches_golden() {
    traced_case(
        "ssf-faulted",
        &with(
            SSF,
            &[
                "--fault",
                "20:all-wrong:0.5",
                "--fault",
                "30:ramp:0.15:8",
                "--fault",
                "30:sleep:0.25:3",
            ],
        ),
    );
}

#[test]
fn cluster_digest_matches_golden() {
    let stdout = run(&[
        "cluster", "--n", "64", "--delta", "0.05", "--c1", "1", "--seed", "7",
    ]);
    check("cluster.digest", &digest_lines(&stdout), "cluster");
}
