//! The `np-bench/v1` perf-trajectory format: [`PerfPoint`]s, their JSON
//! document ([`bench_json`]), and the aggregation of a batch of runs into
//! one point ([`perf_point`]).
//!
//! Sweep reports (`report.json`) and the committed `BENCH_*.json` files
//! share this format. Wall-clock fields are allowed here because perf
//! points record performance; the sweep pins them to 0 in its reports so
//! those stay byte-comparable.

use std::time::Duration;

use np_stats::estimate::Running;

use crate::manifest::{json_f64, json_string};

/// One point of a perf trajectory: a batch of seeded runs at one
/// configuration, aggregated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfPoint {
    /// Point label (e.g. `"n=16384"`).
    pub label: String,
    /// Population size at this point.
    pub n: usize,
    /// Seeded runs at this point.
    pub runs: usize,
    /// How many of them converged.
    pub converged: usize,
    /// Mean rounds-to-settle over converged runs (`null` if none).
    pub mean_rounds: Option<f64>,
    /// Mean wall-clock per run, milliseconds.
    pub mean_wall_ms: f64,
    /// Median wall-clock per run, milliseconds (nearest rank over the
    /// per-run samples). Omitted from the JSON when absent so artifacts
    /// without per-run samples stay schema-valid.
    pub median_wall_ms: Option<f64>,
    /// 95th-percentile wall-clock per run, milliseconds. Paired with
    /// `median_wall_ms`: both present or both absent.
    pub p95_wall_ms: Option<f64>,
    /// Simulation backend that produced this point (`"per-agent"`,
    /// `"mean-field"`, `"sim-cluster"`). Omitted from the JSON when absent.
    pub backend: Option<String>,
    /// Graph degree at this point (topology benches only). Omitted from
    /// the JSON when absent.
    pub degree: Option<u64>,
    /// Fraction of runs that converged, `converged / runs` (topology and
    /// cluster benches, where partial convergence is the signal). Omitted
    /// from the JSON when absent.
    pub convergence_rate: Option<f64>,
    /// Total peer-to-peer messages put on the wire across the point's
    /// runs (cluster benches only). Omitted from the JSON when absent.
    pub messages_total: Option<u64>,
}

/// Nearest-rank quantiles of per-run wall samples: `(median, p95)`.
/// Returns `None` for an empty slice.
pub fn wall_quantiles(samples_ms: &[f64]) -> Option<(f64, f64)> {
    if samples_ms.is_empty() {
        return None;
    }
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let k = (q * sorted.len() as f64).ceil() as usize;
        sorted[k.max(1) - 1]
    };
    Some((rank(0.5), rank(0.95)))
}

/// Aggregates one batch into a perf point: each run is its settle (or
/// recovery) round, `None` if it never got there, and its wall time.
/// Means are Welford running means ([`Running`]) in run order, so a
/// committed artifact regenerates to the same bytes.
pub fn perf_point(
    label: &str,
    n: usize,
    runs: impl IntoIterator<Item = (Option<u64>, Duration)>,
) -> PerfPoint {
    let mut rounds = Running::new();
    let mut wall = Running::new();
    let mut samples_ms = Vec::new();
    let mut converged = 0usize;
    for (settled, elapsed) in runs {
        if let Some(r) = settled {
            converged += 1;
            rounds.push(r as f64);
        }
        let ms = elapsed.as_secs_f64() * 1e3;
        wall.push(ms);
        samples_ms.push(ms);
    }
    let quantiles = wall_quantiles(&samples_ms);
    PerfPoint {
        label: label.to_string(),
        n,
        runs: samples_ms.len(),
        converged,
        mean_rounds: rounds.mean().ok(),
        mean_wall_ms: wall.mean().unwrap_or(0.0),
        median_wall_ms: quantiles.map(|q| q.0),
        p95_wall_ms: quantiles.map(|q| q.1),
        ..PerfPoint::default()
    }
}

impl PerfPoint {
    fn to_json(&self) -> String {
        let mut body = format!(
            "    {{\"label\": {}, \"n\": {}, \"runs\": {}, \"converged\": {}, \
             \"mean_rounds\": {}, \"mean_wall_ms\": {}",
            json_string(&self.label),
            self.n,
            self.runs,
            self.converged,
            self.mean_rounds.map_or("null".to_string(), json_f64),
            json_f64(self.mean_wall_ms)
        );
        if let (Some(median), Some(p95)) = (self.median_wall_ms, self.p95_wall_ms) {
            body.push_str(&format!(
                ", \"median_wall_ms\": {}, \"p95_wall_ms\": {}",
                json_f64(median),
                json_f64(p95)
            ));
        }
        if let Some(backend) = &self.backend {
            body.push_str(&format!(", \"backend\": {}", json_string(backend)));
        }
        if let Some(degree) = self.degree {
            body.push_str(&format!(", \"degree\": {degree}"));
        }
        if let Some(rate) = self.convergence_rate {
            body.push_str(&format!(", \"convergence_rate\": {}", json_f64(rate)));
        }
        if let Some(messages) = self.messages_total {
            body.push_str(&format!(", \"messages_total\": {messages}"));
        }
        body.push('}');
        body
    }
}

/// Renders a perf trajectory as the `np-bench/v1` document.
pub fn bench_json(bench: &str, points: &[PerfPoint]) -> String {
    let body: Vec<String> = points.iter().map(PerfPoint::to_json).collect();
    format!(
        "{{\n  \"schema\": \"np-bench/v1\",\n  \"bench\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_string(bench),
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_document_shape() {
        let points = vec![
            PerfPoint {
                label: "n=64".to_string(),
                n: 64,
                runs: 4,
                converged: 4,
                mean_rounds: Some(12.5),
                mean_wall_ms: 3.25,
                ..PerfPoint::default()
            },
            PerfPoint {
                label: "n=128".to_string(),
                n: 128,
                runs: 4,
                converged: 0,
                mean_rounds: None,
                mean_wall_ms: 6.5,
                median_wall_ms: Some(6.25),
                p95_wall_ms: Some(8.0),
                backend: Some("mean-field".to_string()),
                ..PerfPoint::default()
            },
        ];
        let doc = bench_json("scale", &points);
        assert!(doc.contains("\"schema\": \"np-bench/v1\""));
        assert!(doc.contains("\"bench\": \"scale\""));
        assert!(doc.contains("\"mean_rounds\": 12.5"));
        assert!(doc.contains("\"mean_rounds\": null"));
        assert_eq!(doc.matches("\"label\"").count(), 2);
        // Backend key is trailing and only present when set.
        assert!(doc.contains("\"p95_wall_ms\": 8, \"backend\": \"mean-field\"}"));
        assert_eq!(doc.matches("\"backend\"").count(), 1);
        // Topology keys stay absent unless set.
        assert!(!doc.contains("degree"));
        assert!(!doc.contains("convergence_rate"));
    }

    #[test]
    fn topology_point_appends_degree_and_rate() {
        let point = PerfPoint {
            label: "sf ring:4 d=0.20".to_string(),
            n: 256,
            runs: 8,
            converged: 6,
            mean_rounds: Some(41.5),
            mean_wall_ms: 2.0,
            degree: Some(8),
            convergence_rate: Some(0.75),
            ..PerfPoint::default()
        };
        let doc = bench_json("topology", &[point]);
        assert!(doc.contains("\"degree\": 8, \"convergence_rate\": 0.75}"));
    }

    #[test]
    fn cluster_point_appends_messages_total() {
        let point = PerfPoint {
            label: "lat=50us drop=0".to_string(),
            n: 256,
            runs: 8,
            converged: 8,
            mean_rounds: Some(90.0),
            mean_wall_ms: 95.0,
            median_wall_ms: Some(92.0),
            p95_wall_ms: Some(110.0),
            convergence_rate: Some(1.0),
            messages_total: Some(4_096_000),
            ..PerfPoint::default()
        };
        let doc = bench_json("cluster", &[point]);
        assert!(doc.contains("\"convergence_rate\": 1, \"messages_total\": 4096000}"));
    }

    #[test]
    fn perf_point_aggregates_converged_runs_only() {
        let ms = Duration::from_millis;
        let point = perf_point(
            "n=64",
            64,
            [(Some(10), ms(4)), (None, ms(8)), (Some(20), ms(6))],
        );
        assert_eq!(point.label, "n=64");
        assert_eq!(point.n, 64);
        assert_eq!(point.runs, 3);
        assert_eq!(point.converged, 2);
        assert_eq!(point.mean_rounds, Some(15.0));
        assert!((point.mean_wall_ms - 6.0).abs() < 1e-9);
        assert_eq!(point.median_wall_ms, Some(6.0));
        assert_eq!(point.p95_wall_ms, Some(8.0));
    }

    #[test]
    fn perf_point_with_no_convergence_has_null_mean_rounds() {
        let point = perf_point("stuck", 8, [(None, Duration::from_millis(1))]);
        assert_eq!(point.converged, 0);
        assert_eq!(point.mean_rounds, None);
    }

    #[test]
    fn wall_quantiles_use_nearest_rank() {
        assert_eq!(wall_quantiles(&[]), None);
        assert_eq!(wall_quantiles(&[3.0, 1.0, 2.0]), Some((2.0, 3.0)));
    }
}
