//! Rule self-tests: every lint rule fires exactly where its bad fixture
//! says — no more, no fewer — stays silent on the clean fixture, and is
//! suppressed by `xtask-allow` directives. Fixtures live in
//! `tests/fixtures/` (a subdirectory, so cargo does not compile them as
//! test targets).
//!
//! The grouped/renamed-import fixtures are additionally checked against
//! the preserved legacy needle scanner ([`xtask::legacy`]) to *prove*
//! they dodge it: the rewrite's motivating false negatives are pinned
//! here as regression tests, not just described in comments.

use xtask::legacy;
use xtask::rules::{
    all_rule_names, BASE_RULES, HOT_LOOP_RULES, HOT_PATH_RULES, PHASE_KERNEL_RULES,
    PROTOCOL_CLOCK_RULES, SCOPES, SNAPSHOT_PATH_RULES, UNKNOWN_ALLOW_MSG,
};
use xtask::scanner::{analyze_source, FileClass, Finding, RuleSet};

/// The base rule set every library file gets, mirroring the driver.
const LIB: RuleSet = RuleSet::new("library", BASE_RULES);
const HOT: RuleSet = RuleSet::new("hot-path", HOT_PATH_RULES);
const CLOCK: RuleSet = RuleSet::new("protocol-clock", PROTOCOL_CLOCK_RULES);
const SNAP: RuleSet = RuleSet::new("snapshot-encode", SNAPSHOT_PATH_RULES);
const LOOP_STEP: RuleSet = RuleSet::in_fns("hot-loop", HOT_LOOP_RULES, &["step"]);
/// The phase-kernel rule set, confined to the kernel function names the
/// driver uses.
const KERNELS: RuleSet = RuleSet::in_fns(
    "phase-kernel",
    PHASE_KERNEL_RULES,
    &[
        "fill_exact_chunk",
        "fill_aggregated_chunk",
        "display_chunk",
        "display_chunk_packed",
        "step_chunk",
    ],
);

fn fixture_text(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("fixture {} unreadable: {err}", path.display()))
}

/// Scans a fixture with the given rule sets, returning `(rule, line)`
/// pairs sorted the way the scanner reports them.
fn analyze(name: &str, class: FileClass, sets: &[RuleSet]) -> Vec<(String, usize)> {
    analyze_source(class, &fixture_text(name), sets)
        .into_iter()
        .map(|f| (f.rule.to_owned(), f.line))
        .collect()
}

fn findings(name: &str, class: FileClass, sets: &[RuleSet]) -> Vec<Finding> {
    analyze_source(class, &fixture_text(name), sets)
}

fn expect(rule: &str, lines: &[usize]) -> Vec<(String, usize)> {
    lines.iter().map(|&l| (rule.to_owned(), l)).collect()
}

#[test]
fn ambient_randomness_fires_exactly_where_expected() {
    let got = analyze("ambient_randomness.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(got, expect("ambient-randomness", &[5, 6]));
}

#[test]
fn wall_clock_fires_exactly_where_expected() {
    let got = analyze("wall_clock.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(got, expect("wall-clock", &[7]));
}

#[test]
fn hash_iteration_fires_exactly_where_expected() {
    let got = analyze("hash_iteration.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(got, expect("hash-iteration", &[5, 6]));
}

#[test]
fn unwrap_fires_exactly_where_expected() {
    let got = analyze("unwrap.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(got, expect("unwrap", &[5, 9]));
}

#[test]
fn debug_print_fires_exactly_where_expected() {
    let got = analyze("debug_print.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(got, expect("debug-print", &[5, 6, 7]));
}

#[test]
fn float_eq_fires_exactly_where_expected() {
    let got = analyze("float_eq.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(got, expect("float-eq", &[5, 9, 13]));
}

#[test]
fn raw_stdrng_fires_only_under_hot_path_rules() {
    let hot = analyze("raw_stdrng.rs", FileClass::LibrarySource, &[LIB, HOT]);
    assert_eq!(hot, expect("raw-stdrng", &[5, 6]));
    // Outside the hot-path scope the rule never runs — and then the
    // fixture's raw-stdrng suppression suppresses nothing, which the
    // stale-allow analysis reports. Scoping and allow-accounting in one.
    let base = analyze("raw_stdrng.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(base, expect("stale-allow", &[15]));
}

#[test]
fn protocol_instant_fires_only_under_protocol_clock_rules() {
    let got = analyze(
        "protocol_instant.rs",
        FileClass::LibrarySource,
        &[LIB, CLOCK],
    );
    let want = vec![
        ("protocol-instant".to_owned(), 5),
        ("protocol-instant".to_owned(), 8),
        ("wall-clock".to_owned(), 8),
    ];
    assert_eq!(got, want);
    // Outside the protocol-clock scope only the generic wall-clock rule
    // applies (naming the type is legal), and the fixture's
    // protocol-instant suppression goes stale.
    let base = analyze("protocol_instant.rs", FileClass::LibrarySource, &[LIB]);
    assert_eq!(
        base,
        vec![("wall-clock".to_owned(), 8), ("stale-allow".to_owned(), 18)]
    );
}

#[test]
fn net_transport_clock_fires_outside_the_sanctioned_module() {
    // The np_net seam: transport code naming the wall clock directly
    // trips both clock rules; the clock.rs-style allow directive (same
    // wording as the real sanctioned site) silences them with nothing
    // left stale.
    let got = analyze(
        "net_transport_clock.rs",
        FileClass::LibrarySource,
        &[LIB, CLOCK],
    );
    let want = vec![
        ("protocol-instant".to_owned(), 6),
        ("wall-clock".to_owned(), 6),
    ];
    assert_eq!(got, want);
}

#[test]
fn snapshot_bytes_fires_only_under_snapshot_path_rules() {
    let got = analyze("snapshot_bytes.rs", FileClass::LibrarySource, &[LIB, SNAP]);
    let want = vec![
        ("snapshot-bytes".to_owned(), 5),
        ("snapshot-bytes".to_owned(), 7),
        ("hash-iteration".to_owned(), 10),
        ("snapshot-bytes".to_owned(), 10),
    ];
    assert_eq!(got, want);
}

#[test]
fn narrowing_cast_fires_exactly_where_expected() {
    let got = analyze("narrowing_cast.rs", FileClass::LibrarySource, &[LIB, SNAP]);
    assert_eq!(got, expect("narrowing-cast", &[6, 7]));
}

#[test]
fn panic_path_fires_only_inside_the_named_fn() {
    let got = analyze("panic_path.rs", FileClass::LibrarySource, &[LIB, LOOP_STEP]);
    assert_eq!(got, expect("panic-path", &[7, 9]));
}

#[test]
fn hot_loop_rng_construct_fires_only_inside_kernel_fns() {
    let got = analyze(
        "hot_loop_rng_construct.rs",
        FileClass::LibrarySource,
        &[KERNELS],
    );
    // Per-agent StdRng construction and per-agent Vec allocation fire
    // inside the scoped kernels; the unscoped function and the
    // stream-derived / allowed patterns stay silent.
    assert_eq!(got, expect("hot-loop-rng-construct", &[7, 8, 9, 16]));
}

/// The `phase-kernel` scope covers the protocol modules that hold the
/// lane kernels: each file is listed, scans clean as committed, and a
/// per-agent allocation injected into its `step_chunk` fires
/// `hot-loop-rng-construct`.
#[test]
fn phase_kernel_scope_covers_the_protocol_kernels() {
    let scope = SCOPES
        .iter()
        .find(|s| s.name == "phase-kernel")
        .expect("phase-kernel scope");
    let sets = [RuleSet::in_fns(scope.name, scope.rules, scope.fns)];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in [
        "crates/core/src/sf.rs",
        "crates/core/src/ssf.rs",
        "crates/core/src/sf_alternating.rs",
    ] {
        assert!(scope.files.contains(&file), "{file} not in phase-kernel");
        let text = std::fs::read_to_string(root.join(file)).expect("kernel source");
        let fires = |text: &str| {
            analyze_source(FileClass::LibrarySource, text, &sets)
                .iter()
                .any(|f| f.rule == "hot-loop-rng-construct")
        };
        assert!(!fires(&text), "{file} has kernel findings as committed");
        let at = text.find("fn step_chunk(").expect("step_chunk");
        let body = at + text[at..].find(") {").expect("step_chunk body") + 3;
        let injected = format!(
            "{}\n        let _per_agent: Vec<u64> = Vec::new();{}",
            &text[..body],
            &text[body..]
        );
        assert!(fires(&injected), "{file}: injected allocation not caught");
    }
}

#[test]
fn library_scope_covers_the_run_driver() {
    // The run driver every caller shares lives in np-sweep: it must sit
    // under the library rules, be clean as committed (its one timing
    // site carries an allow), and still flag a wall clock added anywhere
    // else in it.
    let scope = SCOPES
        .iter()
        .find(|s| s.name == "library")
        .expect("library scope");
    assert!(scope.crates.contains(&"crates/sweep"));
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text =
        std::fs::read_to_string(root.join("crates/sweep/src/driver.rs")).expect("driver source");
    let wall_clock = |text: &str| {
        analyze_source(FileClass::LibrarySource, text, &[LIB])
            .iter()
            .filter(|f| f.rule == "wall-clock")
            .count()
    };
    assert_eq!(wall_clock(&text), 0, "driver has findings as committed");
    let signature_end = ") -> Result<Finish, E> {";
    let at = text.find("pub fn drive<").expect("drive");
    let body = at + text[at..].find(signature_end).expect("drive body") + signature_end.len();
    let injected = format!(
        "{}\n    let _t = Instant::now();{}",
        &text[..body],
        &text[body..]
    );
    assert_eq!(wall_clock(&injected), 1, "injected wall clock not caught");
}

#[test]
fn stale_allow_flags_unused_and_unknown_directives() {
    let got = findings("stale_allow.rs", FileClass::LibrarySource, &[LIB]);
    let summary: Vec<(String, usize)> = got.iter().map(|f| (f.rule.to_owned(), f.line)).collect();
    assert_eq!(summary, expect("stale-allow", &[5, 14]));
    // The two findings carry different messages: one is unused, one names
    // a rule that does not exist.
    assert!(
        got[0].message.contains("suppresses nothing"),
        "{:?}",
        got[0]
    );
    assert_eq!(got[1].message, UNKNOWN_ALLOW_MSG);
}

#[test]
fn grouped_import_fires_and_provably_dodges_the_needle_scanner() {
    let got = analyze(
        "grouped_instant.rs",
        FileClass::LibrarySource,
        &[LIB, CLOCK],
    );
    let want = vec![
        ("protocol-instant".to_owned(), 6),
        ("protocol-instant".to_owned(), 9),
        ("wall-clock".to_owned(), 9),
    ];
    assert_eq!(got, want);
    // The legacy scanner's protocol-instant needle never matches this
    // file: the grouped import was its documented false negative.
    let text = fixture_text("grouped_instant.rs");
    assert!(
        legacy::needle_lines(&text, legacy::PROTOCOL_INSTANT_NEEDLES).is_empty(),
        "legacy needle scan was supposed to miss the grouped import"
    );
}

#[test]
fn renamed_import_fires_and_provably_dodges_the_needle_scanner() {
    let got = analyze(
        "renamed_instant.rs",
        FileClass::LibrarySource,
        &[LIB, CLOCK],
    );
    let want = vec![
        ("protocol-instant".to_owned(), 6),
        ("protocol-instant".to_owned(), 9),
        ("wall-clock".to_owned(), 9),
    ];
    assert_eq!(got, want);
    let text = fixture_text("renamed_instant.rs");
    // The rename leaves `time::Instant` only on the import line; the use
    // site (`Clock::now()`) matches no legacy needle at all.
    assert_eq!(
        legacy::needle_lines(&text, legacy::PROTOCOL_INSTANT_NEEDLES),
        vec![6],
        "legacy saw only the import, never the renamed use site"
    );
    assert!(
        legacy::needle_lines(&text, legacy::WALL_CLOCK_NEEDLES).is_empty(),
        "legacy wall-clock needles were supposed to miss `Clock::now()`"
    );
}

#[test]
fn crate_headers_fires_on_library_roots_only() {
    let as_root = analyze("missing_headers.rs", FileClass::LibraryRoot, &[LIB]);
    assert_eq!(as_root, expect("crate-headers", &[1, 1]));
    let as_source = analyze("missing_headers.rs", FileClass::LibrarySource, &[LIB]);
    assert!(as_source.is_empty(), "{as_source:?}");
}

#[test]
fn clean_fixture_has_no_findings_even_as_root() {
    let got = analyze("clean.rs", FileClass::LibraryRoot, &[LIB]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn allow_directives_suppress_every_finding_and_none_is_stale() {
    let got = analyze("allowed.rs", FileClass::LibrarySource, &[LIB]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn every_rule_has_a_bad_fixture() {
    // Each rule must be demonstrated by a fixture that makes it fire;
    // collect the rules fired across all bad fixtures and compare against
    // the full catalog, so adding a rule without a fixture fails here.
    let base_fixtures = [
        "ambient_randomness.rs",
        "wall_clock.rs",
        "hash_iteration.rs",
        "unwrap.rs",
        "debug_print.rs",
        "float_eq.rs",
        "missing_headers.rs",
        "stale_allow.rs",
    ];
    let mut fired: Vec<String> = base_fixtures
        .iter()
        .flat_map(|f| analyze(f, FileClass::LibraryRoot, &[LIB]))
        .chain(analyze(
            "raw_stdrng.rs",
            FileClass::LibrarySource,
            &[LIB, HOT],
        ))
        .chain(analyze(
            "protocol_instant.rs",
            FileClass::LibrarySource,
            &[LIB, CLOCK],
        ))
        .chain(analyze(
            "snapshot_bytes.rs",
            FileClass::LibrarySource,
            &[LIB, SNAP],
        ))
        .chain(analyze(
            "narrowing_cast.rs",
            FileClass::LibrarySource,
            &[LIB, SNAP],
        ))
        .chain(analyze(
            "panic_path.rs",
            FileClass::LibrarySource,
            &[LIB, LOOP_STEP],
        ))
        .chain(analyze(
            "hot_loop_rng_construct.rs",
            FileClass::LibrarySource,
            &[KERNELS],
        ))
        .map(|(rule, _)| rule)
        .collect();
    fired.sort();
    fired.dedup();
    let mut catalog: Vec<String> = all_rule_names().iter().map(|s| (*s).to_owned()).collect();
    catalog.sort();
    assert_eq!(fired, catalog, "rule catalog and fixture coverage diverged");
}
