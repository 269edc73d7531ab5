//! Aligned console tables, CSV files, and hand-rolled JSON writers for
//! experiment output.
//!
//! Every experiment binary prints one or more [`Table`]s and mirrors them
//! as CSV under `target/experiments/` so plots can be regenerated without
//! re-running simulations. The observability layer adds three JSON
//! artifacts: per-round JSONL traces ([`trace_jsonl`]), end-of-run
//! summaries ([`RunSummary`]), and the repo's perf-trajectory files
//! ([`save_bench_json`] → `BENCH_<name>.json` at the workspace root, in
//! the `np_sweep::perf` format).
//! (All hand-rolled: no serialization crate is in the approved offline
//! dependency set — see DESIGN.md §2.)
//!
//! Traces and summaries are built from [`RoundMetrics`] only — pure
//! trajectory data — so their bytes are identical across thread counts.
//! Wall-clock numbers are allowed only in the bench perf points, which are
//! never byte-compared.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};

use np_engine::faults::FaultRecovery;
use np_engine::metrics::RoundMetrics;
use np_engine::population::PopulationConfig;
use np_sweep::manifest::{json_f64, json_string};
use np_sweep::perf::{bench_json, PerfPoint};

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use np_bench::report::Table;
///
/// let mut t = Table::new("demo", &["n", "rounds"]);
/// t.push_row(&[&1024, &42.5]);
/// let text = t.render();
/// assert!(text.contains("rounds"));
/// assert!(t.to_csv().starts_with("n,rounds\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one row; each cell is rendered with `Display`.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn push_row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV (header + rows, comma-separated; cells
    /// containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| csv_cell(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| csv_cell(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `dir/<name>.csv`, creating the
    /// directory if needed, and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Convenience wrapper: prints the table and saves it under
    /// [`experiments_dir`]`()/<name>.csv`, reporting the path on stdout.
    /// I/O failures are reported but not fatal (the console output is the
    /// primary artifact).
    pub fn emit(&self, name: &str) {
        self.print();
        match self.save_csv(&experiments_dir(), name) {
            Ok(path) => println!("[csv] {}\n", path.display()),
            Err(e) => println!("[csv] write failed: {e}\n"),
        }
    }
}

fn csv_cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The standard output directory for experiment CSVs:
/// `target/experiments/` under the [`workspace_root`].
pub fn experiments_dir() -> PathBuf {
    workspace_root().join("target").join("experiments")
}

/// The workspace root (two levels above `crates/bench`); the home of the
/// committed `BENCH_*.json` perf-trajectory files.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Renders one round's metrics as a single JSON object — one line of the
/// JSONL trace, without the trailing newline.
///
/// Schema (stable field order):
/// `{"round":…,"correct":…,"margin":…,"stages":[[id,count],…],`
/// `"weak_formed":…,"weak_correct":…}` — stages sorted by id, empty
/// stages omitted. Rounds where fault events were injected carry one
/// extra trailing field, `"faults":["label",…]`; fault-free rounds
/// render byte-identically to the pre-fault schema.
pub fn round_json(m: &RoundMetrics) -> String {
    let stages: Vec<String> = m
        .stages
        .iter()
        .map(|&(id, count)| format!("[{id},{count}]"))
        .collect();
    let faults = if m.faults.is_empty() {
        String::new()
    } else {
        let labels: Vec<String> = m.faults.iter().map(|l| json_string(l)).collect();
        format!(",\"faults\":[{}]", labels.join(","))
    };
    format!(
        "{{\"round\":{},\"correct\":{},\"margin\":{},\"stages\":[{}],\
         \"weak_formed\":{},\"weak_correct\":{}{}}}",
        m.round,
        m.correct,
        json_f64(m.margin()),
        stages.join(","),
        m.weak_formed,
        m.weak_correct,
        faults
    )
}

/// Renders a recorded trace as JSONL: one [`round_json`] line per round,
/// each newline-terminated. Trajectory data only, so the bytes are
/// identical for every thread count.
pub fn trace_jsonl(rounds: &[RoundMetrics]) -> String {
    let mut out = String::new();
    for m in rounds {
        out.push_str(&round_json(m));
        out.push('\n');
    }
    out
}

/// Writes a recorded trace to `path` as JSONL, creating parent
/// directories if needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn save_trace_jsonl(path: &Path, rounds: &[RoundMetrics]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, trace_jsonl(rounds))
}

/// End-of-run summary: the machine-readable counterpart of a CLI run's
/// console report. Trajectory data only — no thread count, no timings —
/// so two runs of the same seed produce byte-identical summaries
/// regardless of parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Protocol label (e.g. `"sf"`, `"ssf"`).
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Sample size.
    pub h: usize,
    /// Sources preferring 0.
    pub s0: usize,
    /// Sources preferring 1.
    pub s1: usize,
    /// Master seed.
    pub seed: u64,
    /// Completed rounds.
    pub rounds: u64,
    /// Whether the run ended in correct consensus.
    pub consensus: bool,
    /// Agents holding the correct opinion at the end.
    pub final_correct: usize,
    /// Final margin over `n/2` (the paper's `A_ℓ`).
    pub final_margin: f64,
    /// Agents whose weak opinion had formed at the end.
    pub weak_formed: usize,
    /// Of those, how many weak opinions were correct.
    pub weak_correct: usize,
    /// Per-event fault recovery results (empty for fault-free runs, in
    /// which case the JSON rendering is unchanged from the pre-fault
    /// schema).
    pub faults: Vec<FaultRecovery>,
}

impl RunSummary {
    /// Builds a summary from the run's final [`RoundMetrics`] snapshot.
    pub fn from_final_metrics(
        protocol: &str,
        config: &PopulationConfig,
        seed: u64,
        last: &RoundMetrics,
    ) -> Self {
        RunSummary {
            protocol: protocol.to_string(),
            n: config.n(),
            h: config.h(),
            s0: config.s0(),
            s1: config.s1(),
            seed,
            rounds: last.round,
            consensus: last.correct == last.n,
            final_correct: last.correct,
            final_margin: last.margin(),
            weak_formed: last.weak_formed,
            weak_correct: last.weak_correct,
            faults: Vec::new(),
        }
    }

    /// Attaches per-event fault recovery results (from
    /// [`np_engine::faults::recovery_times`]) to the summary.
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<FaultRecovery>) -> Self {
        self.faults = faults;
        self
    }

    /// Renders the summary as a single pretty-printed JSON object with a
    /// schema tag, newline-terminated. Runs with fault events gain a
    /// `"faults"` array of per-event recovery records; fault-free
    /// summaries render byte-identically to the pre-fault schema.
    pub fn to_json(&self) -> String {
        let faults = if self.faults.is_empty() {
            String::new()
        } else {
            let entries: Vec<String> = self
                .faults
                .iter()
                .map(|f| {
                    format!(
                        "    {{\"round\": {}, \"label\": {}, \
                         \"recovered_round\": {}, \"recovery_rounds\": {}}}",
                        f.round,
                        json_string(&f.label),
                        f.recovered_round
                            .map_or("null".to_string(), |r| r.to_string()),
                        f.recovery_rounds()
                            .map_or("null".to_string(), |r| r.to_string())
                    )
                })
                .collect();
            format!(",\n  \"faults\": [\n{}\n  ]", entries.join(",\n"))
        };
        format!(
            "{{\n  \"schema\": \"np-run-summary/v1\",\n  \"protocol\": {},\n  \
             \"n\": {},\n  \"h\": {},\n  \"s0\": {},\n  \"s1\": {},\n  \
             \"seed\": {},\n  \"rounds\": {},\n  \"consensus\": {},\n  \
             \"final_correct\": {},\n  \"final_margin\": {},\n  \
             \"weak_formed\": {},\n  \"weak_correct\": {}{}\n}}\n",
            json_string(&self.protocol),
            self.n,
            self.h,
            self.s0,
            self.s1,
            self.seed,
            self.rounds,
            self.consensus,
            self.final_correct,
            json_f64(self.final_margin),
            self.weak_formed,
            self.weak_correct,
            faults
        )
    }

    /// Writes the JSON rendering to `path`, creating parent directories
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// Writes the perf trajectory to `BENCH_<name>.json` and returns the
/// path: at the workspace root (the committed bench-history location)
/// for full runs, under [`experiments_dir`] for `NP_QUICK` smoke runs, so
/// a quick pass never overwrites a committed artifact with quick-grid
/// data.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn save_bench_json(name: &str, points: &[PerfPoint]) -> std::io::Result<PathBuf> {
    let path = bench_json_path(name, std::env::var_os("NP_QUICK").is_some());
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, bench_json(name, points))?;
    Ok(path)
}

/// Where [`save_bench_json`] writes `BENCH_<name>.json`.
fn bench_json_path(name: &str, quick: bool) -> PathBuf {
    let dir = if quick {
        experiments_dir()
    } else {
        workspace_root()
    };
    dir.join(format!("BENCH_{name}.json"))
}

/// Formats an `f64` with a sensible number of digits for tables.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_columns_panics() {
        let _ = Table::new("t", &[]);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn wrong_row_width_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(&[&1]);
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "v"]);
        t.push_row(&[&"x", &1]);
        t.push_row(&[&"longer", &22]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(&[&"plain"]);
        t.push_row(&[&"with,comma"]);
        t.push_row(&[&"with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.starts_with("a\n"));
    }

    #[test]
    fn save_csv_roundtrip() {
        let dir = std::env::temp_dir().join("np_bench_report_test");
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(&[&1, &2]);
        let path = t.save_csv(&dir, "unit").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_f64(6.54321), "6.54");
        assert_eq!(fmt_f64(123.456), "123.5");
        assert_eq!(fmt_f64(-0.5), "-0.5000");
    }

    #[test]
    fn experiments_dir_ends_correctly() {
        let d = experiments_dir();
        assert!(d.ends_with("target/experiments"));
    }

    fn metrics() -> RoundMetrics {
        RoundMetrics {
            round: 3,
            n: 8,
            correct: 5,
            stages: vec![(0, 7), (u32::MAX, 1)],
            weak_formed: 6,
            weak_correct: 4,
            faults: Vec::new(),
        }
    }

    #[test]
    fn round_json_matches_schema() {
        assert_eq!(
            round_json(&metrics()),
            "{\"round\":3,\"correct\":5,\"margin\":1,\
             \"stages\":[[0,7],[4294967295,1]],\
             \"weak_formed\":6,\"weak_correct\":4}"
        );
    }

    #[test]
    fn round_json_appends_fault_labels_only_when_present() {
        let mut m = metrics();
        m.faults = vec![
            "split-brain:4".to_string(),
            "ramp-noise:0.1->0.3/5".to_string(),
        ];
        assert_eq!(
            round_json(&m),
            "{\"round\":3,\"correct\":5,\"margin\":1,\
             \"stages\":[[0,7],[4294967295,1]],\
             \"weak_formed\":6,\"weak_correct\":4,\
             \"faults\":[\"split-brain:4\",\"ramp-noise:0.1->0.3/5\"]}"
        );
        // Fault-free rounds must keep the pre-fault bytes.
        assert!(!round_json(&metrics()).contains("faults"));
    }

    #[test]
    fn summary_faults_render_and_stay_absent_when_empty() {
        let config = PopulationConfig::new(8, 1, 2, 4).unwrap();
        let base = RunSummary::from_final_metrics("ssf", &config, 3, &metrics());
        assert!(!base.to_json().contains("\"faults\""));
        let summary = base.with_faults(vec![
            FaultRecovery {
                round: 5,
                label: "flip-sources:1".to_string(),
                recovered_round: Some(12),
            },
            FaultRecovery {
                round: 20,
                label: "sleep:3/4r".to_string(),
                recovered_round: None,
            },
        ]);
        let json = summary.to_json();
        assert!(json.contains(
            "{\"round\": 5, \"label\": \"flip-sources:1\", \
             \"recovered_round\": 12, \"recovery_rounds\": 7}"
        ));
        assert!(json.contains(
            "{\"round\": 20, \"label\": \"sleep:3/4r\", \
             \"recovered_round\": null, \"recovery_rounds\": null}"
        ));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn trace_jsonl_is_one_line_per_round() {
        let text = trace_jsonl(&[metrics(), metrics()]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(trace_jsonl(&[]).is_empty());
    }

    #[test]
    fn fractional_margin_renders_with_decimal() {
        let mut m = metrics();
        m.n = 9;
        assert!(round_json(&m).contains("\"margin\":0.5"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn run_summary_round_trips_fields() {
        let config = PopulationConfig::new(8, 1, 2, 4).unwrap();
        let summary = RunSummary::from_final_metrics("sf", &config, 42, &metrics());
        assert_eq!(summary.n, 8);
        assert_eq!(summary.h, 4);
        assert_eq!(summary.s0, 1);
        assert_eq!(summary.s1, 2);
        assert!(!summary.consensus);
        let json = summary.to_json();
        assert!(json.contains("\"schema\": \"np-run-summary/v1\""));
        assert!(json.contains("\"protocol\": \"sf\""));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"consensus\": false"));
        assert!(json.contains("\"final_margin\": 1"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn summary_reports_consensus_when_all_correct() {
        let config = PopulationConfig::new(8, 0, 1, 4).unwrap();
        let mut m = metrics();
        m.correct = 8;
        let summary = RunSummary::from_final_metrics("ssf", &config, 1, &m);
        assert!(summary.consensus);
        assert!(summary.to_json().contains("\"consensus\": true"));
    }

    #[test]
    fn trace_and_summary_files_round_trip() {
        let dir = std::env::temp_dir().join("np_bench_json_test");
        let trace_path = dir.join("t.jsonl");
        save_trace_jsonl(&trace_path, &[metrics()]).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(trace, round_json(&metrics()) + "\n");
        let config = PopulationConfig::new(8, 1, 2, 4).unwrap();
        let summary = RunSummary::from_final_metrics("sf", &config, 7, &metrics());
        let summary_path = dir.join("s.json");
        summary.save(&summary_path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&summary_path).unwrap(),
            summary.to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_runs_write_bench_json_under_target() {
        let full = bench_json_path("scale", false);
        assert_eq!(full, workspace_root().join("BENCH_scale.json"));
        let quick = bench_json_path("scale", true);
        assert_eq!(quick, experiments_dir().join("BENCH_scale.json"));
        assert!(quick.starts_with(workspace_root().join("target")));
    }

    #[test]
    fn workspace_root_contains_bench_crate() {
        assert!(workspace_root().join("crates").join("bench").is_dir());
    }
}
