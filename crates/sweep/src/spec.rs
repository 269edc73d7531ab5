//! The declarative sweep specification and its `key = value` grid parser.
//!
//! A spec is a plain-text file of `key = value[, value…]` lines; `#`
//! starts a comment and blank lines are ignored. Four keys accept comma
//! grids (`protocol`, `n`, `delta`, `topology`); the sweep is their
//! cartesian product times `runs` repetitions. Example:
//!
//! ```text
//! # Theorem 4 regime, two population sizes
//! protocol = sf, ssf
//! n        = 256, 1024
//! delta    = 0.1
//! runs     = 3
//! seed     = 7
//! ```
//!
//! [`SweepSpec::jobs`] expands the grid in *spec order* (protocol, then
//! `n`, then `delta`, then `topology`, then run index) into [`JobSpec`]s
//! with stable ids `{protocol}-n{n}-d{delta}[-{topo}]-r{run}` (the topo
//! segment appears only for non-complete topologies, so complete-graph
//! ids — and their derived seeds — are unchanged from pre-topology
//! sweeps). Each job's seed is derived from the master seed and the id
//! alone, so the expansion is a pure function of the spec text — the
//! property `--resume` relies on.

use noisy_pull::adversary::SsfAdversary;
use np_engine::channel::ChannelKind;
use np_engine::topology::TopologySpec;
use np_stats::seeds::SeedSequence;

use crate::SweepError;

/// The protocols a sweep can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Algorithm SF.
    Sf,
    /// Algorithm SSF.
    Ssf,
    /// The alternating-display SF variant.
    SfAlt,
}

impl ProtocolKind {
    /// The spec/manifest name of the protocol.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Sf => "sf",
            ProtocolKind::Ssf => "ssf",
            ProtocolKind::SfAlt => "sf-alt",
        }
    }

    /// Parses a spec/manifest protocol name.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, SweepError> {
        match name {
            "sf" => Ok(ProtocolKind::Sf),
            "ssf" => Ok(ProtocolKind::Ssf),
            "sf-alt" => Ok(ProtocolKind::SfAlt),
            other => Err(SweepError(format!(
                "unknown protocol `{other}`; known: sf, ssf, sf-alt"
            ))),
        }
    }

    /// The display alphabet size of the protocol's channel.
    pub fn alphabet_size(self) -> usize {
        match self {
            ProtocolKind::Sf | ProtocolKind::SfAlt => 2,
            ProtocolKind::Ssf => 4,
        }
    }

    /// The default analysis constant `c1` (matches the CLI defaults).
    pub fn default_c1(self) -> f64 {
        match self {
            ProtocolKind::Sf | ProtocolKind::SfAlt => 1.0,
            ProtocolKind::Ssf => 16.0,
        }
    }
}

/// The simulation engine a sweep's jobs run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The per-agent engine (default): full checkpoint/resume support.
    PerAgent,
    /// The mean-field counts engine: class-count dynamics, no snapshots
    /// (jobs are cheap enough to re-run atomically), `sf`/`ssf` only.
    MeanField,
}

impl BackendKind {
    /// The spec name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::PerAgent => "per-agent",
            BackendKind::MeanField => "mean-field",
        }
    }

    /// Parses a spec backend name.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, SweepError> {
        match name {
            "per-agent" => Ok(BackendKind::PerAgent),
            "mean-field" => Ok(BackendKind::MeanField),
            other => Err(SweepError(format!(
                "unknown backend `{other}`; known: per-agent, mean-field"
            ))),
        }
    }
}

/// A parsed sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Protocol grid (required, non-empty).
    pub protocols: Vec<ProtocolKind>,
    /// Population-size grid (required, non-empty).
    pub ns: Vec<usize>,
    /// Noise-level grid (required, non-empty).
    pub deltas: Vec<f64>,
    /// Sample size; `None` or `0` means `h = n` per job.
    pub h: Option<usize>,
    /// Sources preferring 0 (default 0).
    pub s0: usize,
    /// Sources preferring 1 (default 1).
    pub s1: usize,
    /// Analysis constant; `None` means the per-protocol default.
    pub c1: Option<f64>,
    /// Seeded repetitions per grid point (default 1).
    pub runs: usize,
    /// Master seed (default 42).
    pub seed: u64,
    /// SSF round budget in update intervals (default 10).
    pub budget_intervals: u64,
    /// Simulation engine for every job (default per-agent).
    pub backend: BackendKind,
    /// Interaction-graph grid (default: the complete graph only).
    pub topologies: Vec<TopologySpec>,
}

/// One job: a single seeded run at one grid point. Sweeps expand it from
/// a spec; the CLI and the experiment binaries build it directly (see
/// [`JobSpec::new`]). [`crate::driver`] turns it into a world and runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable id, `{protocol}-n{n}-d{delta}-r{run}` — the manifest key
    /// (empty outside sweeps).
    pub id: String,
    /// Protocol to run.
    pub protocol: ProtocolKind,
    /// Population size.
    pub n: usize,
    /// Sample size (already resolved; never 0).
    pub h: usize,
    /// Sources preferring 0.
    pub s0: usize,
    /// Sources preferring 1.
    pub s1: usize,
    /// Uniform noise level.
    pub delta: f64,
    /// Analysis constant (already resolved).
    pub c1: f64,
    /// Derived per-job seed.
    pub seed: u64,
    /// Run index within the grid point.
    pub run: usize,
    /// SSF round budget in update intervals.
    pub budget_intervals: u64,
    /// Simulation engine for this job.
    pub backend: BackendKind,
    /// Interaction graph the job's world samples over.
    pub topology: TopologySpec,
    /// Initial-state corruption (SSF only; sweeps use `None`).
    pub adversary: SsfAdversary,
    /// Observation channel of the per-agent world (sweeps use
    /// `Aggregated`).
    pub channel: ChannelKind,
}

impl JobSpec {
    /// A single-source, `h = n`, complete-graph per-agent job with the
    /// protocol's default `c1`, a 10-interval SSF budget, no adversary,
    /// the aggregated channel and seed 0. Callers override fields with
    /// struct-update syntax.
    pub fn new(protocol: ProtocolKind, n: usize, delta: f64) -> Self {
        JobSpec {
            id: String::new(),
            protocol,
            n,
            h: n,
            s0: 0,
            s1: 1,
            delta,
            c1: protocol.default_c1(),
            seed: 0,
            run: 0,
            budget_intervals: 10,
            backend: BackendKind::PerAgent,
            topology: TopologySpec::Complete,
            adversary: SsfAdversary::None,
            channel: ChannelKind::Aggregated,
        }
    }
}

impl SweepSpec {
    /// Parses a spec from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for unknown or duplicate keys, malformed
    /// values, empty grids, or missing required keys (`protocol`, `n`,
    /// `delta`).
    pub fn parse(text: &str) -> Result<Self, SweepError> {
        let mut protocols: Option<Vec<ProtocolKind>> = None;
        let mut ns: Option<Vec<usize>> = None;
        let mut deltas: Option<Vec<f64>> = None;
        let mut h: Option<usize> = None;
        let mut s0: Option<usize> = None;
        let mut s1: Option<usize> = None;
        let mut c1: Option<f64> = None;
        let mut runs: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut budget_intervals: Option<u64> = None;
        let mut backend: Option<BackendKind> = None;
        let mut topologies: Option<Vec<TopologySpec>> = None;

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |why: String| SweepError(format!("spec line {}: {why}", lineno + 1));
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(at(format!("key `{key}` has no value")));
            }
            match key {
                "protocol" => {
                    let grid: Result<Vec<ProtocolKind>, SweepError> = value
                        .split(',')
                        .map(|v| ProtocolKind::parse(v.trim()))
                        .collect();
                    set_once(
                        &mut protocols,
                        key,
                        grid.map_err(|e| at(e.to_string()))?,
                        &at,
                    )?;
                }
                "n" => set_once(&mut ns, key, parse_grid(value, key, &at)?, &at)?,
                "delta" => set_once(&mut deltas, key, parse_grid(value, key, &at)?, &at)?,
                "h" => set_once(&mut h, key, parse_scalar(value, key, &at)?, &at)?,
                "s0" => set_once(&mut s0, key, parse_scalar(value, key, &at)?, &at)?,
                "s1" => set_once(&mut s1, key, parse_scalar(value, key, &at)?, &at)?,
                "c1" => set_once(&mut c1, key, parse_scalar(value, key, &at)?, &at)?,
                "runs" => set_once(&mut runs, key, parse_scalar(value, key, &at)?, &at)?,
                "seed" => set_once(&mut seed, key, parse_scalar(value, key, &at)?, &at)?,
                "budget-intervals" => {
                    set_once(
                        &mut budget_intervals,
                        key,
                        parse_scalar(value, key, &at)?,
                        &at,
                    )?;
                }
                "backend" => {
                    set_once(
                        &mut backend,
                        key,
                        BackendKind::parse(value).map_err(|e| at(e.to_string()))?,
                        &at,
                    )?;
                }
                "topology" => {
                    let grid: Result<Vec<TopologySpec>, SweepError> = value
                        .split(',')
                        .map(|v| TopologySpec::parse(v.trim()).map_err(|e| at(e.to_string())))
                        .collect();
                    set_once(&mut topologies, key, grid?, &at)?;
                }
                other => {
                    return Err(at(format!(
                        "unknown key `{other}`; known: protocol, n, delta, h, s0, s1, c1, \
                         runs, seed, budget-intervals, backend, topology"
                    )))
                }
            }
        }

        let require = |name: &str| SweepError(format!("spec is missing required key `{name}`"));
        let spec = SweepSpec {
            protocols: protocols.ok_or_else(|| require("protocol"))?,
            ns: ns.ok_or_else(|| require("n"))?,
            deltas: deltas.ok_or_else(|| require("delta"))?,
            h,
            s0: s0.unwrap_or(0),
            s1: s1.unwrap_or(1),
            c1,
            runs: runs.unwrap_or(1),
            seed: seed.unwrap_or(42),
            budget_intervals: budget_intervals.unwrap_or(10),
            backend: backend.unwrap_or(BackendKind::PerAgent),
            topologies: topologies.unwrap_or_else(|| vec![TopologySpec::Complete]),
        };
        if spec.runs == 0 {
            return Err(SweepError("spec: `runs` must be at least 1".into()));
        }
        // The job rules depend only on protocol, backend and topology, so
        // one probe job per pair checks the whole grid without expanding it.
        for &protocol in &spec.protocols {
            for &topology in &spec.topologies {
                let probe = JobSpec {
                    backend: spec.backend,
                    topology,
                    ..JobSpec::new(protocol, 1, 0.0)
                };
                probe
                    .check()
                    .map_err(|e| SweepError(format!("spec: {e}")))?;
            }
        }
        Ok(spec)
    }

    /// Reads and parses a spec file.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for I/O failures or parse errors.
    pub fn load(path: &std::path::Path) -> Result<Self, SweepError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SweepError(format!("cannot read spec {}: {e}", path.display())))?;
        SweepSpec::parse(&text)
    }

    /// Expands the grid into the deterministic job list, in spec order
    /// (protocol → `n` → `delta` → topology → run index).
    ///
    /// Complete-graph jobs keep the pre-topology id shape
    /// `{protocol}-n{n}-d{delta}-r{run}` — and therefore the exact seeds
    /// of older sweeps; non-complete topologies splice a `-{topo}` segment
    /// before the run index.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let master = SeedSequence::new(self.seed);
        let mut jobs = Vec::new();
        for &protocol in &self.protocols {
            for &n in &self.ns {
                for &delta in &self.deltas {
                    for &topology in &self.topologies {
                        for run in 0..self.runs {
                            let id = if topology.is_complete() {
                                format!("{}-n{n}-d{delta}-r{run}", protocol.name())
                            } else {
                                format!(
                                    "{}-n{n}-d{delta}-{}-r{run}",
                                    protocol.name(),
                                    topology.label().replace(':', "")
                                )
                            };
                            let seed = master.child_of_label(&id).seed_at(0);
                            jobs.push(JobSpec {
                                id,
                                protocol,
                                n,
                                h: match self.h {
                                    None | Some(0) => n,
                                    Some(h) => h,
                                },
                                s0: self.s0,
                                s1: self.s1,
                                delta,
                                c1: self.c1.unwrap_or_else(|| protocol.default_c1()),
                                seed,
                                run,
                                budget_intervals: self.budget_intervals,
                                backend: self.backend,
                                topology,
                                adversary: SsfAdversary::None,
                                channel: ChannelKind::Aggregated,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

fn set_once<T>(
    slot: &mut Option<T>,
    key: &str,
    value: T,
    at: &dyn Fn(String) -> SweepError,
) -> Result<(), SweepError> {
    if slot.is_some() {
        return Err(at(format!("duplicate key `{key}`")));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_scalar<T: std::str::FromStr>(
    value: &str,
    key: &str,
    at: &dyn Fn(String) -> SweepError,
) -> Result<T, SweepError> {
    value
        .parse()
        .map_err(|_| at(format!("key `{key}`: cannot parse `{value}`")))
}

fn parse_grid<T: std::str::FromStr>(
    value: &str,
    key: &str,
    at: &dyn Fn(String) -> SweepError,
) -> Result<Vec<T>, SweepError> {
    value
        .split(',')
        .map(|v| {
            let v = v.trim();
            v.parse()
                .map_err(|_| at(format!("key `{key}`: cannot parse `{v}`")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
        # comment\n\
        protocol = sf, ssf\n\
        n = 64, 128   # trailing comment\n\
        delta = 0.1\n\
        runs = 2\n\
        seed = 7\n";

    #[test]
    fn parses_grids_and_defaults() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(spec.protocols, vec![ProtocolKind::Sf, ProtocolKind::Ssf]);
        assert_eq!(spec.ns, vec![64, 128]);
        assert_eq!(spec.deltas, vec![0.1]);
        assert_eq!(spec.h, None);
        assert_eq!((spec.s0, spec.s1), (0, 1));
        assert_eq!(spec.c1, None);
        assert_eq!(spec.runs, 2);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.budget_intervals, 10);
        assert_eq!(spec.backend, BackendKind::PerAgent);
    }

    #[test]
    fn parses_mean_field_backend() {
        let spec = SweepSpec::parse("protocol=sf\nn=32\ndelta=0.1\nbackend=mean-field\n").unwrap();
        assert_eq!(spec.backend, BackendKind::MeanField);
        assert_eq!(spec.jobs()[0].backend, BackendKind::MeanField);
        for kind in [BackendKind::PerAgent, BackendKind::MeanField] {
            assert_eq!(BackendKind::parse(kind.name()).unwrap(), kind);
        }
    }

    #[test]
    fn expansion_order_ids_and_seeds() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 8); // 2 protocols x 2 n x 1 delta x 2 runs
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "sf-n64-d0.1-r0",
                "sf-n64-d0.1-r1",
                "sf-n128-d0.1-r0",
                "sf-n128-d0.1-r1",
                "ssf-n64-d0.1-r0",
                "ssf-n64-d0.1-r1",
                "ssf-n128-d0.1-r0",
                "ssf-n128-d0.1-r1",
            ]
        );
        // Seeds are distinct per job and stable across re-expansions.
        let seeds: std::collections::BTreeSet<u64> = jobs.iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), jobs.len());
        assert_eq!(spec.jobs(), jobs);
        // h defaults to n per job; c1 to the protocol default.
        assert_eq!(jobs[0].h, 64);
        assert_eq!(jobs[2].h, 128);
        assert_eq!(jobs[0].c1, 1.0);
        assert_eq!(jobs[4].c1, 16.0);
    }

    #[test]
    fn explicit_h_zero_means_n() {
        let spec = SweepSpec::parse("protocol=sf\nn=32\ndelta=0.1\nh=0\n").unwrap();
        assert_eq!(spec.jobs()[0].h, 32);
        let spec = SweepSpec::parse("protocol=sf\nn=32\ndelta=0.1\nh=4\n").unwrap();
        assert_eq!(spec.jobs()[0].h, 4);
    }

    #[test]
    fn rejects_malformed_specs() {
        let check = |text: &str, needle: &str| {
            let e = SweepSpec::parse(text).unwrap_err().to_string();
            assert!(e.contains(needle), "`{text}` → {e}");
        };
        check("protocol sf\n", "key = value");
        check("protocol = gremlin\n", "unknown protocol");
        check("protocol = sf\nn = x\ndelta = 0.1\n", "cannot parse `x`");
        check("protocol = sf\nn = 64\n", "missing required key `delta`");
        check("n = 64\ndelta = 0.1\n", "missing required key `protocol`");
        check(
            "protocol = sf\nprotocol = ssf\nn=1\ndelta=0.1\n",
            "duplicate",
        );
        check("protocol = sf\nn=64\ndelta=0.1\nruns=0\n", "at least 1");
        check("protocol = sf\nn=64\ndelta=0.1\nbogus=1\n", "unknown key");
        check("protocol =\nn=64\ndelta=0.1\n", "no value");
        check(
            "protocol = sf\nn=64\ndelta=0.1\nbackend=gremlin\n",
            "unknown backend",
        );
        check(
            "protocol = sf-alt\nn=64\ndelta=0.1\nbackend=mean-field\n",
            "does not support protocol sf-alt",
        );
    }

    #[test]
    fn topology_grid_expands_with_suffixed_ids() {
        let spec =
            SweepSpec::parse("protocol=sf\nn=32\ndelta=0.1\ntopology=complete, ring:4\nruns=1\n")
                .unwrap();
        assert_eq!(
            spec.topologies,
            vec![TopologySpec::Complete, TopologySpec::Ring { k: 4 }]
        );
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2);
        // Complete jobs keep the pre-topology id — and therefore the exact
        // seeds of pre-topology sweeps; ring jobs splice a segment.
        assert_eq!(jobs[0].id, "sf-n32-d0.1-r0");
        assert_eq!(jobs[1].id, "sf-n32-d0.1-ring4-r0");
        let bare = SweepSpec::parse("protocol=sf\nn=32\ndelta=0.1\nruns=1\n").unwrap();
        assert_eq!(bare.jobs()[0].seed, jobs[0].seed);
        assert_ne!(jobs[0].seed, jobs[1].seed);
        assert_eq!(jobs[1].topology, TopologySpec::Ring { k: 4 });
    }

    #[test]
    fn topology_defaults_to_complete() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(spec.topologies, vec![TopologySpec::Complete]);
        assert!(spec.jobs().iter().all(|j| j.topology.is_complete()));
    }

    #[test]
    fn rejects_topology_misuse() {
        let check = |text: &str, needle: &str| {
            let e = SweepSpec::parse(text).unwrap_err().to_string();
            assert!(e.contains(needle), "`{text}` → {e}");
        };
        check(
            "protocol=sf\nn=32\ndelta=0.1\ntopology=torus:3\n",
            "unknown topology `torus:3`",
        );
        check(
            "protocol=sf\nn=32\ndelta=0.1\ntopology=ring:2\nbackend=mean-field\n",
            "does not support topology ring:2",
        );
    }

    #[test]
    fn protocol_kind_round_trips() {
        for kind in [ProtocolKind::Sf, ProtocolKind::Ssf, ProtocolKind::SfAlt] {
            assert_eq!(ProtocolKind::parse(kind.name()).unwrap(), kind);
        }
        assert_eq!(ProtocolKind::Sf.alphabet_size(), 2);
        assert_eq!(ProtocolKind::Ssf.alphabet_size(), 4);
        assert_eq!(ProtocolKind::SfAlt.alphabet_size(), 2);
    }
}
