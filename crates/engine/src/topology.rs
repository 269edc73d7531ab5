//! Graph-restricted PULL: who an agent is allowed to observe.
//!
//! The paper's analysis — and everything in this repo up to PR 8 —
//! assumes uniform PULL over the *complete* graph: every agent samples
//! its `h` observations from the whole population. This module introduces
//! the [`Topology`] seam that restricts sampling to a neighborhood:
//!
//! - [`TopologySpec::Complete`] — the default. No neighbor lists are
//!   materialized and the engine's hot path is byte-identical to the
//!   topology-free code.
//! - [`TopologySpec::Ring`]`{ k }` — the circulant graph where agent `i`
//!   is adjacent to `i ± 1, …, i ± k` (mod `n`); degree `2k`.
//! - [`TopologySpec::RandomRegular`]`{ d }` — a random simple `d`-regular
//!   graph from the configuration model (pair random stubs, then repair
//!   self-loops and multi-edges by degree-preserving edge switches).
//! - [`TopologySpec::PowerLaw`]`{ alpha }` — degrees drawn from a
//!   truncated Pareto law `P(D ≥ x) ∝ x^{-(α-1)}`, clamped to
//!   `[1, n-1]`, realized with the same stub-pairing machinery.
//!
//! Generation is a pure function of `(spec, n, master seed)`: every
//! random draw comes from the dedicated [`StreamStage::Topology`] streams
//! (degree of agent `i` from stream `i`; the shuffle and repair walk from
//! stream `n`, which no agent owns), so the same seed always yields the
//! same graph — across processes, thread counts and platforms. The
//! [`Topology::csr_bytes`] serialization pins that contract in tests.
//!
//! Neighbor lists are stored in a CSR-style layout — one flat `Vec<u32>`
//! of neighbors plus an `n + 1` offset table — so the channel's
//! per-neighborhood sampling reads each agent's neighbors as one
//! contiguous, sorted slice.

use std::collections::BTreeSet;

use rand::Rng;

use crate::streams::{RoundStreams, StreamStage};
use crate::{EngineError, Result};

fn bad(detail: impl Into<String>) -> EngineError {
    EngineError::BadTopology {
        detail: detail.into(),
    }
}

/// Which graph the PULL samples are restricted to. Parsed from the CLI /
/// sweep-spec syntax `complete | ring:K | regular:D | powerlaw:A`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Uniform PULL over all `n` agents (the paper's model; the default).
    Complete,
    /// Circulant ring: agent `i` sees `i ± 1, …, i ± k` (mod `n`).
    Ring {
        /// Half-width of the neighborhood; the degree is `2k`.
        k: usize,
    },
    /// Random simple `d`-regular graph (configuration model + repair).
    RandomRegular {
        /// The common degree.
        d: usize,
    },
    /// Random graph with truncated-Pareto degrees, exponent `alpha`.
    PowerLaw {
        /// Pareto exponent; must exceed 1. Smaller ⇒ heavier tail.
        alpha: f64,
    },
}

impl TopologySpec {
    /// Parses the `complete | ring:K | regular:D | powerlaw:A` syntax.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadTopology`] for unknown kinds or
    /// out-of-domain parameters (`ring:0`, `regular:0`, `powerlaw:1.0`).
    pub fn parse(text: &str) -> Result<Self> {
        let (kind, param) = match text.split_once(':') {
            Some((kind, param)) => (kind, Some(param)),
            None => (text, None),
        };
        match (kind, param) {
            ("complete", None) => Ok(TopologySpec::Complete),
            ("ring", Some(p)) => {
                let k: usize = p
                    .parse()
                    .map_err(|_| bad(format!("ring half-width `{p}` is not an integer")))?;
                if k == 0 {
                    return Err(bad("ring half-width must be at least 1"));
                }
                Ok(TopologySpec::Ring { k })
            }
            ("regular", Some(p)) => {
                let d: usize = p
                    .parse()
                    .map_err(|_| bad(format!("regular degree `{p}` is not an integer")))?;
                if d == 0 {
                    return Err(bad("regular degree must be at least 1"));
                }
                Ok(TopologySpec::RandomRegular { d })
            }
            ("powerlaw", Some(p)) => {
                let alpha: f64 = p
                    .parse()
                    .map_err(|_| bad(format!("power-law exponent `{p}` is not a number")))?;
                if !alpha.is_finite() || alpha <= 1.0 {
                    return Err(bad(format!(
                        "power-law exponent must be a finite number > 1, got {p}"
                    )));
                }
                Ok(TopologySpec::PowerLaw { alpha })
            }
            _ => Err(bad(format!(
                "unknown topology `{text}` (expected complete, ring:K, regular:D or powerlaw:A)"
            ))),
        }
    }

    /// The canonical spec string (`parse(label())` round-trips).
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Complete => "complete".to_string(),
            TopologySpec::Ring { k } => format!("ring:{k}"),
            TopologySpec::RandomRegular { d } => format!("regular:{d}"),
            TopologySpec::PowerLaw { alpha } => format!("powerlaw:{alpha}"),
        }
    }

    /// Whether this is the complete graph (the zero-cost default path).
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologySpec::Complete)
    }
}

/// A built graph: the spec it came from plus CSR neighbor lists.
///
/// [`TopologySpec::Complete`] stores no lists at all — `is_complete()`
/// is the branch the engine takes to stay on the unrestricted hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    spec: TopologySpec,
    n: usize,
    /// CSR offsets: agent `i`'s neighbors are
    /// `neighbors[offsets[i]..offsets[i + 1]]`. Empty for Complete.
    offsets: Vec<usize>,
    /// Flat neighbor array, sorted within each agent's slice.
    neighbors: Vec<u32>,
    min_degree: usize,
    max_degree: usize,
}

impl Topology {
    /// Builds the graph for `spec` over `n` agents, deterministically
    /// from `seed` (the world's master seed).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadTopology`] when the spec cannot cover
    /// the population (ring wider than the cycle, degree ≥ n, odd total
    /// stub count, or a degree sequence the switch repair cannot realize
    /// as a simple graph).
    pub fn build(spec: TopologySpec, n: usize, seed: u64) -> Result<Self> {
        if n == 0 {
            return Err(bad("topology over an empty population"));
        }
        match spec {
            TopologySpec::Complete => Ok(Topology {
                spec,
                n,
                offsets: Vec::new(),
                neighbors: Vec::new(),
                min_degree: n - 1,
                max_degree: n - 1,
            }),
            TopologySpec::Ring { k } => {
                // `k > (n-1)/2` is `2k > n-1` without computing 2k, which
                // overflows for a k taken from a spec or a snapshot.
                if k > (n - 1) / 2 {
                    return Err(bad(format!(
                        "ring:{k} is too wide for n = {n} agents (degree 2k must stay below n)"
                    )));
                }
                let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n);
                for i in 0..n {
                    let mut row: Vec<u32> = (1..=k)
                        .flat_map(|j| [(i + j) % n, (i + n - j) % n])
                        .map(|v| v as u32)
                        .collect();
                    row.sort_unstable();
                    lists.push(row);
                }
                Ok(Topology::from_lists(spec, n, lists))
            }
            TopologySpec::RandomRegular { d } => {
                if d >= n {
                    return Err(bad(format!("regular:{d} needs degree below n (n = {n})")));
                }
                if !(n * d).is_multiple_of(2) {
                    return Err(bad(format!(
                        "regular:{d} over n = {n} agents has an odd stub count (n·d must be even)"
                    )));
                }
                let degrees = vec![d; n];
                let lists = realize_degrees(&degrees, n, seed)?;
                Ok(Topology::from_lists(spec, n, lists))
            }
            TopologySpec::PowerLaw { alpha } => {
                if n < 2 {
                    return Err(bad("powerlaw needs at least 2 agents"));
                }
                let streams = RoundStreams::new(seed, 0);
                let mut degrees: Vec<usize> = (0..n)
                    .map(|i| {
                        let mut rng = streams.rng(i, StreamStage::Topology);
                        // Truncated Pareto with x_min = 1:
                        // D = ⌊u^{-1/(α-1)}⌋ clamped to [1, n-1].
                        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        let raw = u.powf(-1.0 / (alpha - 1.0));
                        (raw.floor() as usize).clamp(1, n - 1)
                    })
                    .collect();
                if degrees.iter().sum::<usize>() % 2 != 0 {
                    // Parity fix: one extra stub on the first agent that
                    // can take it (deterministic, degree-sequence local).
                    let i = degrees
                        .iter()
                        .position(|&d| d < n - 1)
                        .ok_or_else(|| bad("powerlaw parity fix impossible (all degrees maxed)"))?;
                    degrees[i] += 1;
                }
                let lists = realize_degrees(&degrees, n, seed)?;
                Ok(Topology::from_lists(spec, n, lists))
            }
        }
    }

    fn from_lists(spec: TopologySpec, n: usize, lists: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        let mut min_degree = usize::MAX;
        let mut max_degree = 0;
        for row in &lists {
            min_degree = min_degree.min(row.len());
            max_degree = max_degree.max(row.len());
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len());
        }
        Topology {
            spec,
            n,
            offsets,
            neighbors,
            min_degree,
            max_degree,
        }
    }

    /// The spec this graph was built from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Population size the graph covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether this is the complete graph (no neighbor lists stored).
    pub fn is_complete(&self) -> bool {
        self.spec.is_complete()
    }

    /// Agent `i`'s sorted neighbor slice.
    ///
    /// # Panics
    ///
    /// Panics for [`TopologySpec::Complete`] (no lists are materialized —
    /// callers must branch on [`Topology::is_complete`] first) and for
    /// out-of-range agents.
    pub fn neighbors(&self, agent: usize) -> &[u32] {
        assert!(
            !self.is_complete(),
            "complete topology has no materialized neighbor lists"
        );
        &self.neighbors[self.offsets[agent]..self.offsets[agent + 1]]
    }

    /// Agent `i`'s degree (`n - 1` for Complete).
    pub fn degree(&self, agent: usize) -> usize {
        if self.is_complete() {
            self.n - 1
        } else {
            self.offsets[agent + 1] - self.offsets[agent]
        }
    }

    /// The smallest degree in the graph.
    pub fn min_degree(&self) -> usize {
        self.min_degree
    }

    /// The largest degree in the graph.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// A canonical little-endian byte rendering of the CSR layout
    /// (`n`, offsets, neighbors). Two topologies are the same graph iff
    /// their bytes agree — the determinism tests pin same-seed equality.
    pub fn csr_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (1 + self.offsets.len()) + 4 * self.neighbors.len());
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &v in &self.neighbors {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

/// Realizes a degree sequence as a simple graph: configuration-model
/// stub pairing, then degree-preserving edge switches to clear self-loops
/// and multi-edges. All randomness comes from stream `n` of the
/// [`StreamStage::Topology`] family (no agent owns that index).
fn realize_degrees(degrees: &[usize], n: usize, seed: u64) -> Result<Vec<Vec<u32>>> {
    let mut stubs: Vec<u32> = Vec::with_capacity(degrees.iter().sum());
    for (i, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(i as u32, d));
    }
    debug_assert!(
        stubs.len().is_multiple_of(2),
        "caller ensures an even stub count"
    );
    let mut rng = RoundStreams::new(seed, 0).rng(n, StreamStage::Topology);
    // Seeded Fisher–Yates.
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    let mut edges: Vec<(u32, u32)> = stubs
        .chunks_exact(2)
        .map(|pair| (pair[0], pair[1]))
        .collect();
    let norm = |a: u32, b: u32| if a <= b { (a, b) } else { (b, a) };
    // `seen` holds every *good* (simple, first-occurrence) edge; the rest
    // go to the repair queue.
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, &(a, b)) in edges.iter().enumerate() {
        if a == b || !seen.insert(norm(a, b)) {
            queue.push(i);
        }
    }
    // Each switch replaces a bad edge (a,b) and a good edge (c,d) with
    // (a,d) and (c,b) — degrees are preserved, and both new edges are
    // checked to be simple and fresh before committing.
    let mut budget = 200usize * edges.len().max(16);
    while let Some(&i) = queue.last() {
        if budget == 0 {
            return Err(bad(
                "degree sequence could not be realized as a simple graph \
                 (edge-switch repair budget exhausted; try another seed)",
            ));
        }
        budget -= 1;
        let j = rng.gen_range(0..edges.len());
        if j == i || queue.contains(&j) {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        let e1 = norm(a, d);
        let e2 = norm(c, b);
        if a == d || c == b || e1 == e2 || seen.contains(&e1) || seen.contains(&e2) {
            continue;
        }
        seen.remove(&norm(c, d));
        seen.insert(e1);
        seen.insert(e2);
        edges[i] = (a, d);
        edges[j] = (c, b);
        queue.pop();
    }
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        lists[a as usize].push(b);
        lists[b as usize].push(a);
    }
    for row in &mut lists {
        row.sort_unstable();
    }
    Ok(lists)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degrees_of(t: &Topology) -> Vec<usize> {
        (0..t.n()).map(|i| t.degree(i)).collect()
    }

    /// Simple-graph check: sorted lists, no self-loops, no duplicates,
    /// and every edge present in both directions.
    fn assert_simple(t: &Topology) {
        for i in 0..t.n() {
            let row = t.neighbors(i);
            for w in row.windows(2) {
                assert!(w[0] < w[1], "agent {i}: unsorted or duplicate neighbor");
            }
            for &j in row {
                assert_ne!(j as usize, i, "agent {i}: self-loop");
                assert!(
                    t.neighbors(j as usize).contains(&(i as u32)),
                    "edge ({i},{j}) is not symmetric"
                );
            }
        }
    }

    #[test]
    fn spec_parse_round_trips() {
        for text in ["complete", "ring:4", "regular:8", "powerlaw:2.5"] {
            let spec = TopologySpec::parse(text).expect("parses");
            assert_eq!(spec.label(), text);
        }
        assert!(TopologySpec::parse("complete").unwrap().is_complete());
        assert!(!TopologySpec::parse("ring:1").unwrap().is_complete());
    }

    #[test]
    fn spec_parse_rejects_malformed_input() {
        for text in [
            "torus:3",
            "ring",
            "ring:0",
            "ring:x",
            "regular:0",
            "regular:2.5",
            "powerlaw:1.0",
            "powerlaw:abc",
            "powerlaw:inf",
            "complete:1",
            "",
        ] {
            let err = TopologySpec::parse(text).expect_err(text);
            assert!(matches!(err, EngineError::BadTopology { .. }), "{text}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn complete_is_listless() {
        let t = Topology::build(TopologySpec::Complete, 100, 7).expect("builds");
        assert!(t.is_complete());
        assert_eq!(t.degree(0), 99);
        assert_eq!(t.min_degree(), 99);
        assert_eq!(t.max_degree(), 99);
        assert!(t.csr_bytes().len() == 8); // just n — no CSR arrays
    }

    #[test]
    #[should_panic(expected = "no materialized neighbor lists")]
    fn complete_neighbors_panics() {
        let t = Topology::build(TopologySpec::Complete, 4, 0).expect("builds");
        let _ = t.neighbors(0);
    }

    #[test]
    fn ring_structure_is_exact() {
        let t = Topology::build(TopologySpec::Ring { k: 2 }, 7, 1).expect("builds");
        assert_eq!(t.neighbors(0), &[1, 2, 5, 6]);
        assert_eq!(t.neighbors(3), &[1, 2, 4, 5]);
        assert_eq!(t.min_degree(), 4);
        assert_eq!(t.max_degree(), 4);
        assert_simple(&t);
    }

    #[test]
    fn ring_rejects_oversized_span() {
        // n = 7 supports k ≤ 3; k = 4 would wrap onto itself.
        assert!(Topology::build(TopologySpec::Ring { k: 3 }, 7, 1).is_ok());
        let err = Topology::build(TopologySpec::Ring { k: 4 }, 7, 1).expect_err("too wide");
        assert!(err.to_string().contains("ring:4"));
    }

    #[test]
    fn ring_rejects_a_half_width_whose_degree_overflows() {
        // 2k wraps to 0 for k = 2⁶³: the width check must not compute it.
        for k in [usize::MAX / 2 + 1, usize::MAX] {
            let err = Topology::build(TopologySpec::Ring { k }, 16, 1).expect_err("too wide");
            assert!(matches!(err, EngineError::BadTopology { .. }), "{err}");
            assert!(err.to_string().contains("too wide for n = 16"), "{err}");
        }
    }

    #[test]
    fn random_regular_has_uniform_degree() {
        let t = Topology::build(TopologySpec::RandomRegular { d: 4 }, 64, 99).expect("builds");
        assert_eq!(degrees_of(&t), vec![4; 64]);
        assert_simple(&t);
    }

    #[test]
    fn random_regular_rejects_impossible_grids() {
        // Odd n · odd d leaves an unmatched stub.
        let err =
            Topology::build(TopologySpec::RandomRegular { d: 3 }, 9, 0).expect_err("odd stubs");
        assert!(err.to_string().contains("odd stub count"));
        // Degree must stay below n.
        let err = Topology::build(TopologySpec::RandomRegular { d: 8 }, 8, 0).expect_err("d = n");
        assert!(err.to_string().contains("below n"));
    }

    #[test]
    fn powerlaw_degrees_are_positive_and_simple() {
        let t = Topology::build(TopologySpec::PowerLaw { alpha: 2.5 }, 64, 3).expect("builds");
        assert!(t.min_degree() >= 1);
        assert!(t.max_degree() <= 63);
        assert_eq!(degrees_of(&t).iter().sum::<usize>() % 2, 0);
        assert_simple(&t);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        for spec in [
            TopologySpec::Ring { k: 3 },
            TopologySpec::RandomRegular { d: 6 },
            TopologySpec::PowerLaw { alpha: 2.2 },
        ] {
            let a = Topology::build(spec, 48, 42).expect("builds");
            let b = Topology::build(spec, 48, 42).expect("builds");
            assert_eq!(a.csr_bytes(), b.csr_bytes(), "{}", spec.label());
            assert_eq!(a, b);
        }
        // Different seeds give different random graphs (rings are
        // seed-independent by construction, so only the random families).
        let a = Topology::build(TopologySpec::RandomRegular { d: 6 }, 48, 42).expect("builds");
        let b = Topology::build(TopologySpec::RandomRegular { d: 6 }, 48, 43).expect("builds");
        assert_ne!(a.csr_bytes(), b.csr_bytes());
    }

    #[test]
    fn empty_population_is_rejected() {
        let err = Topology::build(TopologySpec::Complete, 0, 0).expect_err("empty");
        assert!(err.to_string().contains("empty population"));
    }
}
