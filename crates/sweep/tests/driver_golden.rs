//! Golden reference for the run driver: settle rounds and converged flags
//! per seed, and two sweep `report.json` files, recorded before the
//! experiment harness's `SfSetup`/`SsfSetup` drivers, the sweep's own
//! job loops and the CLI's run loops were merged into `np_sweep::driver`.
//! These recordings replace those drivers as the reference: every build
//! must reproduce them byte for byte.
//!
//! The matrix covers SF at `h = n` and at `h = 8` (the exact channel
//! `auto_channel` picks for tiny samples), conflicting sources, SSF under
//! every adversary, SF-ALT as EXP-VARIANT runs it, a `ring:8` point for
//! SF and SSF as EXP-TOPO runs them, mean-field SF and SSF over their
//! full budgets, and a per-agent and a mean-field sweep.
//! `UPDATE_GOLDEN=1 cargo test -p np-sweep --test driver_golden` rewrites
//! the files; a legitimate change must say why in CHANGELOG.md.

use std::path::{Path, PathBuf};

use noisy_pull::adversary::SsfAdversary;
use np_engine::topology::TopologySpec;
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{auto_channel, StopRule};
use np_sweep::scheduler::{run_sweep, SweepOptions};
use np_sweep::spec::{BackendKind, JobSpec, ProtocolKind, SweepSpec};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` with the golden file `name`, or rewrites it under
/// `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(actual, want, "{name} differs from the golden recording");
}

fn seeds(master: u64, runs: u64) -> Vec<u64> {
    let sequence = SeedSequence::new(master);
    (0..runs).map(|i| sequence.seed_at(i)).collect()
}

/// One golden line per seed: the job's full-budget settle round.
fn record(out: &mut String, case: &str, job: &JobSpec, seeds: &[u64]) {
    for &seed in seeds {
        let finish = JobSpec {
            seed,
            ..job.clone()
        }
        .run(StopRule::FullBudget)
        .expect("valid job");
        let settled = finish.settled.map_or("-".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "{case} seed={seed} settled={settled} converged={}\n",
            finish.converged()
        ));
    }
}

#[test]
fn driver_reproduces_the_recorded_settle_rounds() {
    let mut out = String::new();
    for h in [128usize, 8] {
        let job = JobSpec {
            h,
            channel: auto_channel(h),
            ..JobSpec::new(ProtocolKind::Sf, 128, 0.15)
        };
        record(
            &mut out,
            &format!("sf n=128 h={h} d=0.15 c1=1"),
            &job,
            &seeds(7, 4),
        );
    }
    let conflict = JobSpec {
        s0: 2,
        s1: 3,
        ..JobSpec::new(ProtocolKind::Sf, 128, 0.1)
    };
    record(
        &mut out,
        "sf n=128 s0=2 s1=3 d=0.1 c1=1",
        &conflict,
        &seeds(8, 3),
    );
    for adversary in SsfAdversary::ALL {
        let job = JobSpec {
            c1: 8.0,
            adversary,
            ..JobSpec::new(ProtocolKind::Ssf, 128, 0.1)
        };
        let case = format!("ssf n=128 adv={} d=0.1 c1=8 b=10", adversary.name());
        record(&mut out, &case, &job, &seeds(9, 3));
    }
    let alt = JobSpec::new(ProtocolKind::SfAlt, 128, 0.2);
    let alt_seeds: Vec<u64> = (0..4).map(|s| 0xFA ^ s).collect();
    record(&mut out, "sf-alt n=128 d=0.2 c1=1", &alt, &alt_seeds);
    let ring = TopologySpec::Ring { k: 8 };
    for seed in seeds(10, 3) {
        let sf = JobSpec {
            topology: ring,
            ..JobSpec::new(ProtocolKind::Sf, 128, 0.15)
        };
        record(&mut out, "sf n=128 ring:8 d=0.15 c1=1", &sf, &[seed]);
        let ssf = JobSpec {
            topology: ring,
            c1: 8.0,
            budget_intervals: 8,
            ..JobSpec::new(ProtocolKind::Ssf, 128, 0.15)
        };
        record(&mut out, "ssf n=128 ring:8 d=0.15 c1=8 b=8", &ssf, &[seed]);
    }
    for seed in seeds(11, 3) {
        let sf = JobSpec {
            backend: BackendKind::MeanField,
            ..JobSpec::new(ProtocolKind::Sf, 4096, 0.2)
        };
        record(&mut out, "mean-field sf n=4096 d=0.2 c1=1", &sf, &[seed]);
        // Small n: the mean-field SSF flush law is O(interval·h) per
        // update, which dominates debug-build test time at larger n.
        let ssf = JobSpec {
            backend: BackendKind::MeanField,
            ..JobSpec::new(ProtocolKind::Ssf, 64, 0.1)
        };
        record(
            &mut out,
            "mean-field ssf n=64 d=0.1 c1=16 b=10",
            &ssf,
            &[seed],
        );
    }
    check_golden("driver.txt", &out);
}

#[test]
fn sweeps_reproduce_the_recorded_reports() {
    for (name, spec) in [
        (
            "sweep-report.json",
            "protocol = sf, ssf\nn = 48, 64\ndelta = 0.1\ntopology = complete, ring:4\n\
             runs = 2\nseed = 5\n",
        ),
        (
            "sweep-report-mean-field.json",
            "protocol = sf, ssf\nn = 64\ndelta = 0.1\nruns = 3\nseed = 6\nbackend = mean-field\n",
        ),
    ] {
        let out = std::env::temp_dir().join(format!("np_sweep_driver_golden_{name}"));
        std::fs::remove_dir_all(&out).ok();
        let mut opts = SweepOptions::new(out.clone());
        opts.checkpoint_every = 8;
        let spec = SweepSpec::parse(spec).expect("valid spec");
        let outcome = run_sweep(&spec, &opts).expect("sweep runs");
        let report = std::fs::read_to_string(outcome.report.expect("report written"))
            .expect("report readable");
        check_golden(name, &report);
        std::fs::remove_dir_all(&out).ok();
    }
}
