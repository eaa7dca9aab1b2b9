//! Workspace automation. The one task so far is the kernel-code lint gate:
//!
//! ```text
//! cargo xtask lint
//! ```
//!
//! A hand-rolled, std-only static pass over the workspace sources (no
//! `syn`: this environment is offline, so the scanner works on text with
//! just enough context tracking to skip comments, strings, and test
//! modules). Nine rules — four encoding invariants the simulated GPU
//! relies on, three host-side concurrency rules guarding the query
//! service (the static twin of the `tdts-sync` model checker), one
//! keeping host parallelism in one place and one keeping CPU-feature code
//! in one place:
//!
//! * `uncharged-column-read` — `DeviceBuffer::row_range` and
//!   `DeviceBuffer::as_slice` hand out device data without posting a
//!   memory charge (the `.column(` accessor of the former columnar buffer
//!   stays matched, so it cannot return unnoticed). In kernel-side code
//!   they have one home, `crates/kernels/src/segments.rs`, where
//!   `DeviceSegments` and `DeviceQueries` pair every such read with the
//!   charge it owes (a range's or a gather's closed-form sum, a
//!   broadcast's row); anywhere else a read would silently drop out of the
//!   simulated cost.
//! * `float-eq` — the continuous interaction test (`tdts-geom` and the
//!   kernels crate) must not compare `f64` values with `==`/`!=`;
//!   threshold logic belongs to epsilon/interval comparisons. Exact-zero
//!   algebraic guards carry an explicit waiver.
//! * `unordered-iter` — launch-replay and demux paths (`tdts-gpu-sim`,
//!   `tdts-service`) must not use `HashMap`/`HashSet`: iteration order
//!   would leak into dispatch replay and batch demultiplexing, breaking
//!   the determinism the whole cost model is pinned on. Use `BTreeMap`
//!   or `Vec`.
//! * `unsafe-without-safety` — every `unsafe` token anywhere in the
//!   workspace needs a `// SAFETY:` comment within the three preceding
//!   lines (or on the same line).
//! * `condvar-wait-loop` — a Condvar wait in `tdts-service` (receivers
//!   named `*cv`/`cvar`/`condvar` by repo convention) must sit inside a
//!   `while`/`loop` predicate re-check: an `if`-guarded wait turns a
//!   spurious wakeup or stale predicate into a missed-signal hang.
//! * `raw-std-sync` — `tdts-service` must take `Mutex`/`Condvar` from
//!   the `tdts-sync` shim, never `std::sync` directly, so every lock and
//!   wait stays visible to the model checker (`Arc` and plain
//!   observability atomics are exempt).
//! * `wall-clock-in-replay` — the search engines (`tdts-gpu-sim`, the
//!   kernels, `tdts-core`, the R-tree and the three GPU index crates), the
//!   result and shard merge paths of `tdts-geom`, and the figures harness
//!   must not read `Instant::now`/`SystemTime::now`/`.elapsed()` outside
//!   test code: every second they report is priced from counted work, so
//!   reports and tables repeat bit for bit. The query service and the CLI
//!   time what their callers wait for and stay outside the rule.
//! * `host-threads` — the library crates below the service start host
//!   threads in one place, `tdts_geom::par` (`crates/geom/src/par.rs`);
//!   a `thread::scope(`/`thread::spawn(` anywhere else in them would be a
//!   second host-parallel mechanism with its own thread count.
//! * `target-features` — `#[target_feature(..)]`, a `*_feature_detected!`
//!   check and `allow(unsafe_code)` appear in one file,
//!   `crates/geom/src/continuous.rs`, where the refinement pre-test picks
//!   its AVX2 or portable copy at run time. That dispatch is `tdts-geom`'s
//!   one unsafe block; anywhere else such code would be a second,
//!   untested instruction-set path or an unsafe hole in a crate that
//!   denies unsafe code.
//!
//! A finding is waived by `// lint: allow(<rule>)` on the offending line
//! or the line directly above it (give a reason after the marker).
//!
//! Every run first re-validates the rules against built-in seeded-defect
//! fixtures — if a detector stops firing, the gate fails itself.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = match args.next() {
                Some(flag) if flag == "--root" => {
                    PathBuf::from(args.next().expect("--root needs a path"))
                }
                Some(other) => {
                    eprintln!("unknown argument `{other}`");
                    return ExitCode::FAILURE;
                }
                None => workspace_root(),
            };
            lint(&root)
        }
        _ => {
            eprintln!("usage: cargo xtask lint [--root <workspace>]");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: the parent of this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().expect("xtask sits inside the workspace").to_path_buf()
}

fn lint(root: &Path) -> ExitCode {
    if let Err(broken) = self_check() {
        eprintln!("lint self-check failed: rule `{broken}` no longer fires on its fixture");
        return ExitCode::FAILURE;
    }
    let mut findings = Vec::new();
    for rule in RULES {
        let mut files: Vec<PathBuf> = Vec::new();
        for dir in rule.scan_dirs {
            let base = root.join(dir);
            if base.exists() {
                files.extend(rust_files(&base));
            }
        }
        for file in rule.scan_files {
            let path = root.join(file);
            if path.exists() {
                files.push(path);
            }
        }
        for file in files {
            let source = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", file.display());
                    return ExitCode::FAILURE;
                }
            };
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            if rule.exempt_files.iter().any(|exempt| rel == Path::new(exempt)) {
                continue;
            }
            findings.extend(scan_source(rule, &rel, &source));
        }
    }
    if findings.is_empty() {
        println!("lint: clean ({} rules)", RULES.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Every rule must fire on its seeded-defect fixture and stay quiet once
/// the fixture carries a waiver.
fn self_check() -> Result<(), &'static str> {
    for rule in RULES {
        let path = Path::new("fixture.rs");
        if scan_source(rule, path, rule.bad_fixture).is_empty() {
            return Err(rule.name);
        }
        let waived: String = rule
            .bad_fixture
            .lines()
            .map(|l| format!("// lint: allow({})\n{l}\n", rule.name))
            .collect();
        if !scan_source(rule, path, &waived).is_empty() {
            return Err(rule.name);
        }
    }
    Ok(())
}

struct Finding {
    rule: &'static str,
    file: PathBuf,
    line: usize,
    excerpt: String,
    why: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file.display(),
            self.line,
            self.rule,
            self.why,
            self.excerpt.trim()
        )
    }
}

struct Rule {
    name: &'static str,
    why: &'static str,
    /// Workspace-relative directories this rule scans.
    scan_dirs: &'static [&'static str],
    /// Workspace-relative individual files this rule scans in addition to
    /// `scan_dirs` (for rules pinned to specific replay/merge modules).
    scan_files: &'static [&'static str],
    /// Workspace-relative files under `scan_dirs` the rule leaves alone:
    /// the one module that is allowed to do what the rule forbids.
    exempt_files: &'static [&'static str],
    /// Line predicate over (code-only text, full original line).
    matches: fn(code: &str, raw: &str) -> bool,
    /// Whether the rule also applies inside `#[cfg(test)]` modules.
    include_tests: bool,
    /// Whether a `// SAFETY:` comment in the three preceding lines
    /// discharges the finding (the unsafe rule).
    safety_comment_discharges: bool,
    /// Optional context predicate over (all lines, finding index) that
    /// discharges a match — e.g. "this wait sits inside a loop".
    context_discharges: Option<fn(lines: &[&str], i: usize) -> bool>,
    /// A minimal source fragment the rule must flag (self-check).
    bad_fixture: &'static str,
}

const KERNEL_CRATES: &[&str] = &[
    "crates/kernels/src",
    "crates/index-spatial/src",
    "crates/index-temporal/src",
    "crates/index-spatiotemporal/src",
];

/// Every library, binary and tool source directory of the workspace.
const ALL_SOURCES: &[&str] = &[
    "src",
    "crates/kernels/src",
    "crates/index-spatial/src",
    "crates/index-temporal/src",
    "crates/index-spatiotemporal/src",
    "crates/gpu-sim/src",
    "crates/geom/src",
    "crates/core/src",
    "crates/data/src",
    "crates/rtree/src",
    "crates/service/src",
    "crates/bench/src",
    "xtask/src",
];

const RULES: &[Rule] = &[
    Rule {
        name: "uncharged-column-read",
        why: "uncharged DeviceBuffer access in kernel-side code; read through \
              DeviceSegments/DeviceQueries (crates/kernels/src/segments.rs), which post the charge",
        scan_dirs: KERNEL_CRATES,
        scan_files: &[],
        exempt_files: &["crates/kernels/src/segments.rs"],
        matches: |code, _| {
            code.contains(".column(") || code.contains(".row_range") || code.contains(".as_slice(")
        },
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: "fn k(rows: &DeviceBuffer<f64>, i: usize) -> f64 { rows.as_slice()[i] }\n",
    },
    Rule {
        name: "float-eq",
        why: "f64 ==/!= in interaction-test code; use epsilon or interval comparisons \
              (waive exact-zero algebraic guards explicitly)",
        scan_dirs: &["crates/geom/src", "crates/kernels/src"],
        scan_files: &[],
        exempt_files: &[],
        matches: |code, _| float_eq_comparison(code),
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: "fn f(d: f64) -> bool { d == 0.0 }\n",
    },
    Rule {
        name: "unordered-iter",
        why: "HashMap/HashSet in a launch-replay/demux path; iteration order breaks \
              deterministic replay — use BTreeMap/BTreeSet/Vec",
        scan_dirs: &["crates/gpu-sim/src", "crates/service/src"],
        scan_files: &[],
        exempt_files: &[],
        matches: |code, _| ["HashMap", "HashSet"].iter().any(|t| contains_word(code, t)),
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: "use std::collections::HashMap;\n",
    },
    Rule {
        name: "unsafe-without-safety",
        why: "unsafe without a `// SAFETY:` comment in the three preceding lines",
        scan_dirs: ALL_SOURCES,
        scan_files: &[],
        exempt_files: &[],
        matches: |code, _| contains_word(code, "unsafe"),
        include_tests: true,
        safety_comment_discharges: true,
        context_discharges: None,
        bad_fixture: "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
    },
    Rule {
        name: "condvar-wait-loop",
        why: "Condvar wait not inside a while/loop predicate re-check; a spurious wakeup \
              or a stale predicate turns this into a missed-signal hang",
        scan_dirs: &["crates/service/src"],
        scan_files: &[],
        exempt_files: &[],
        matches: |code, _| condvar_wait(code),
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: Some(inside_wait_loop),
        bad_fixture: "fn f(cv: &Condvar, m: &Mutex<bool>) {\n    let mut g = m.lock().unwrap();\n    if !*g {\n        g = cv.wait(g).unwrap();\n    }\n}\n",
    },
    Rule {
        name: "raw-std-sync",
        why: "raw std::sync Mutex/Condvar in tdts-service; take them from the tdts-sync \
              shim so every lock and wait stays visible to the model checker",
        scan_dirs: &["crates/service/src"],
        scan_files: &[],
        exempt_files: &[],
        matches: |code, _| {
            code.contains("std::sync")
                && ["Mutex", "MutexGuard", "Condvar", "RwLock"]
                    .iter()
                    .any(|t| contains_word(code, t))
        },
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: "use std::sync::{Condvar, Mutex};\n",
    },
    Rule {
        name: "wall-clock-in-replay",
        why: "wall-clock read in a search engine or the figures harness; every second they \
              report is priced from counted work (gpu-sim's HostWork, the CPU baseline's \
              per-query prices), so reports and tables repeat bit for bit",
        // The query service (its own clock, virtual under the model
        // checker) and the CLI time what their callers wait for; they
        // stay outside.
        scan_dirs: &[
            "crates/gpu-sim/src",
            "crates/kernels/src",
            "crates/core/src",
            "crates/rtree/src",
            "crates/index-spatial/src",
            "crates/index-temporal/src",
            "crates/index-spatiotemporal/src",
        ],
        scan_files: &[
            "crates/geom/src/result.rs",
            "crates/geom/src/shard.rs",
            "crates/bench/src/harness.rs",
        ],
        exempt_files: &[],
        matches: |code, _| {
            code.contains("Instant::now(")
                || code.contains("SystemTime::now(")
                || code.contains(".elapsed()")
        },
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: "fn replay_step() { let t0 = std::time::Instant::now(); }\n",
    },
    Rule {
        name: "host-threads",
        why: "host thread started outside tdts_geom::par; run host-parallel work through \
              par::par_map/par_ordered so the workspace keeps one mechanism and one thread count",
        scan_dirs: &[
            "crates/geom/src",
            "crates/gpu-sim/src",
            "crates/kernels/src",
            "crates/index-spatial/src",
            "crates/index-temporal/src",
            "crates/index-spatiotemporal/src",
            "crates/rtree/src",
            "crates/core/src",
        ],
        scan_files: &[],
        exempt_files: &["crates/geom/src/par.rs"],
        matches: |code, _| code.contains("thread::scope(") || code.contains("thread::spawn("),
        include_tests: false,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n",
    },
    Rule {
        name: "target-features",
        why: "target_feature, a CPU-feature check or allow(unsafe_code) outside \
              crates/geom/src/continuous.rs, the one home of the pre-test's runtime dispatch",
        scan_dirs: ALL_SOURCES,
        scan_files: &[],
        exempt_files: &["crates/geom/src/continuous.rs"],
        matches: |code, _| {
            code.contains("target_feature(")
                || code.contains("_feature_detected!")
                || code.contains("allow(unsafe_code)")
        },
        include_tests: true,
        safety_comment_discharges: false,
        context_discharges: None,
        bad_fixture: concat!(
            "#[target_feature(enable = \"avx2\")]\nfn f() {}\n",
            "#[target_feature(enable = \"avx512f,avx512vl,avx512dq,avx512bw\")]\nfn g() {}\n",
            "let wide = std::arch::is_x86_feature_detected!(\"avx512f\");\n",
        ),
    },
];

/// A Condvar wait by repo naming convention: `.wait(`/`.wait_timeout(` on
/// a receiver whose identifier ends in `cv` (`cv`, `pending_cv`, …) or is
/// `cvar`/`condvar`. Keying on the convention keeps ticket/slot `wait`
/// methods out of scope.
fn condvar_wait(code: &str) -> bool {
    for needle in [".wait(", ".wait_timeout("] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(needle) {
            let at = start + pos;
            let receiver: String = code[..at]
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if receiver.ends_with("cv")
                || receiver.ends_with("cvar")
                || receiver.ends_with("condvar")
            {
                return true;
            }
            start = at + needle.len();
        }
    }
    false
}

/// Discharges `condvar-wait-loop`: walking up from the wait line, a
/// `while`/`loop` keyword before the enclosing `fn` means the predicate
/// is re-checked around the wait (the repo idiom is `loop { if pred
/// { break } … cv.wait(…) }`).
fn inside_wait_loop(lines: &[&str], i: usize) -> bool {
    for j in (0..=i).rev() {
        let code = code_only(lines[j]);
        if contains_word(&code, "while") || contains_word(&code, "loop") {
            return true;
        }
        if contains_word(&code, "fn") && j < i {
            return false;
        }
        if i - j > 40 {
            return false;
        }
    }
    false
}

/// Recursively collect `.rs` files under `base`, sorted for deterministic
/// output.
fn rust_files(base: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Strip line comments and string/char literal *contents* so the rule
/// predicates only see code. Literal delimiters are kept; escapes are
/// honoured. (Block comments are rare in this workspace and handled line
/// by line: a line starting inside one cannot be detected without full
/// parsing, which the rules here don't need.)
fn code_only(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut escaped = false;
    while let Some(c) = chars.next() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
                out.push('"');
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Word-boundary containment: `needle` not flanked by identifier chars
/// (so `unsafe_op_in_unsafe_fn` does not count as `unsafe`).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = haystack[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = haystack[at + needle.len()..].chars().next().is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// `==` or `!=` with a float literal on either side (e.g. `x == 0.0`,
/// `1.5 != y`). Float literal: digits '.' digits.
fn float_eq_comparison(code: &str) -> bool {
    for op in ["==", "!="] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(op) {
            let at = start + pos;
            // Skip `!==`-like overlaps and comparisons inside attributes.
            let left = code[..at].trim_end();
            let right = code[at + 2..].trim_start();
            if ends_with_float_literal(left) || starts_with_float_literal(right) {
                return true;
            }
            start = at + 2;
        }
    }
    false
}

fn starts_with_float_literal(s: &str) -> bool {
    let mut chars = s.chars().peekable();
    let mut saw_digit = false;
    while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
        chars.next();
        saw_digit = true;
    }
    saw_digit && chars.next() == Some('.') && chars.next().is_some_and(|c| c.is_ascii_digit())
}

fn ends_with_float_literal(s: &str) -> bool {
    let mut chars = s.chars().rev().peekable();
    let mut saw_digit = false;
    while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
        chars.next();
        saw_digit = true;
    }
    saw_digit && chars.next() == Some('.') && chars.next().is_some_and(|c| c.is_ascii_digit())
}

/// Apply one rule to one file's source.
fn scan_source(rule: &Rule, file: &Path, source: &str) -> Vec<Finding> {
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    let mut in_tests = false;
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        // The workspace convention puts unit tests in a trailing
        // `#[cfg(test)] mod tests` block; everything after the marker is
        // test code.
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("mod tests") {
            in_tests = true;
        }
        if in_tests && !rule.include_tests {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let code = code_only(raw);
        if !(rule.matches)(&code, raw) {
            continue;
        }
        if has_waiver(&lines, i, rule.name) {
            continue;
        }
        if rule.safety_comment_discharges && has_safety_comment(&lines, i) {
            continue;
        }
        if rule.context_discharges.is_some_and(|discharges| discharges(&lines, i)) {
            continue;
        }
        findings.push(Finding {
            rule: rule.name,
            file: file.to_path_buf(),
            line: i + 1,
            excerpt: (*raw).to_string(),
            why: rule.why,
        });
    }
    findings
}

/// `// lint: allow(<rule>)` on the offending line or the one above.
fn has_waiver(lines: &[&str], i: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    lines[i].contains(&marker) || (i > 0 && lines[i - 1].contains(&marker))
}

/// `// SAFETY:` on the same line or within the three preceding lines.
fn has_safety_comment(lines: &[&str], i: usize) -> bool {
    lines[i.saturating_sub(3)..=i].iter().any(|l| l.contains("SAFETY:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(name: &str) -> &'static Rule {
        RULES.iter().find(|r| r.name == name).unwrap()
    }

    fn scan(name: &str, src: &str) -> Vec<Finding> {
        scan_source(rule(name), Path::new("fixture.rs"), src)
    }

    #[test]
    fn self_check_passes() {
        assert!(self_check().is_ok());
    }

    #[test]
    fn uncharged_column_read_fires_on_every_accessor() {
        assert_eq!(scan("uncharged-column-read", "let t = cols.column(6)[i];\n").len(), 1);
        assert_eq!(
            scan("uncharged-column-read", "let s = rows.row_range(lane, lo..hi);\n").len(),
            1
        );
        assert_eq!(scan("uncharged-column-read", "let r = rows.as_slice()[i];\n").len(), 1);
        assert!(scan("uncharged-column-read", "let r = rows.read(lane, i);\n").is_empty());
        assert_eq!(
            rule("uncharged-column-read").exempt_files,
            ["crates/kernels/src/segments.rs"],
            "one home"
        );
    }

    #[test]
    fn float_eq_fires_on_either_operand_and_skips_tests() {
        assert_eq!(scan("float-eq", "let hit = d == 0.0;\n").len(), 1);
        assert_eq!(scan("float-eq", "if 1.5 != dist {}\n").len(), 1);
        assert!(scan("float-eq", "let hit = a == b;\n").is_empty(), "no literal, no flag");
        assert!(scan("float-eq", "let cmp = n == 0;\n").is_empty(), "ints are fine");
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { assert!(d == 0.0); }\n}\n";
        assert!(scan("float-eq", in_tests).is_empty());
    }

    #[test]
    fn unordered_iter_fires_on_use_and_type() {
        assert_eq!(scan("unordered-iter", "use std::collections::HashMap;\n").len(), 1);
        assert_eq!(scan("unordered-iter", "let m: HashSet<u32> = x;\n").len(), 1);
        assert!(scan("unordered-iter", "let m = BTreeMap::new();\n").is_empty());
        assert!(
            scan("unordered-iter", "// HashMap would be wrong here\n").is_empty(),
            "comments don't count"
        );
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() {\n    unsafe { do_it() }\n}\n";
        assert_eq!(scan("unsafe-without-safety", bad).len(), 1);

        let good = "fn f() {\n    // SAFETY: slot is exclusively owned here.\n    \
                    unsafe { do_it() }\n}\n";
        assert!(scan("unsafe-without-safety", good).is_empty());

        let attr = "#![deny(unsafe_op_in_unsafe_fn)]\n#![forbid(unsafe_code)]\n";
        assert!(scan("unsafe-without-safety", attr).is_empty(), "attributes are not unsafe");

        let doc = "/// this type avoids `unsafe` aliasing\nstruct S;\n";
        assert!(scan("unsafe-without-safety", doc).is_empty(), "doc comments don't count");
    }

    #[test]
    fn condvar_wait_requires_enclosing_loop() {
        let bad = "fn f() {\n    let mut g = m.lock().unwrap();\n    if !*g {\n        \
                   g = cv.wait(g).unwrap();\n    }\n}\n";
        assert_eq!(scan("condvar-wait-loop", bad).len(), 1);

        let looped = "fn f() {\n    let mut g = m.lock().unwrap();\n    while !*g {\n        \
                      g = cv.wait(g).unwrap();\n    }\n}\n";
        assert!(scan("condvar-wait-loop", looped).is_empty());

        let repo_idiom = "fn f() {\n    let mut g = m.lock().unwrap();\n    loop {\n        \
                          if *g { break; }\n        let (ng, _) = \
                          pending_cv.wait_timeout(g, d).unwrap();\n        g = ng;\n    }\n}\n";
        assert!(scan("condvar-wait-loop", repo_idiom).is_empty());

        let not_a_condvar = "fn f() {\n    let r = ticket.wait();\n    let s = \
                             slot.wait(deadline);\n}\n";
        assert!(scan("condvar-wait-loop", not_a_condvar).is_empty());
    }

    #[test]
    fn raw_std_sync_fires_on_primitive_imports_only() {
        assert_eq!(scan("raw-std-sync", "use std::sync::{Condvar, Mutex};\n").len(), 1);
        assert_eq!(scan("raw-std-sync", "let m: std::sync::Mutex<u32> = x;\n").len(), 1);
        assert!(scan("raw-std-sync", "use std::sync::Arc;\n").is_empty(), "Arc is exempt");
        assert!(
            scan("raw-std-sync", "use std::sync::atomic::AtomicU64;\n").is_empty(),
            "observability atomics are exempt"
        );
        assert!(
            scan("raw-std-sync", "use tdts_sync::sync::{Condvar, Mutex};\n").is_empty(),
            "the shim types are the fix, not a finding"
        );
    }

    #[test]
    fn wall_clock_in_replay_fires_on_every_read_form() {
        assert_eq!(scan("wall-clock-in-replay", "let t = Instant::now();\n").len(), 1);
        assert_eq!(
            scan("wall-clock-in-replay", "let t = std::time::SystemTime::now();\n").len(),
            1
        );
        assert_eq!(scan("wall-clock-in-replay", "let d = start.elapsed();\n").len(), 1);
        assert!(scan("wall-clock-in-replay", "let t = ledger.now();\n").is_empty());
        assert!(
            scan("wall-clock-in-replay", "// Instant::now() is banned here\n").is_empty(),
            "comments don't count"
        );
    }

    #[test]
    fn host_threads_fires_outside_the_one_home() {
        assert_eq!(scan("host-threads", "std::thread::scope(|s| work(s));\n").len(), 1);
        assert_eq!(scan("host-threads", "let h = thread::spawn(move || run());\n").len(), 1);
        assert!(scan("host-threads", "let out = par::par_map(n, f);\n").is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert!(scan("host-threads", in_tests).is_empty(), "tests may start threads");
        assert_eq!(rule("host-threads").exempt_files, ["crates/geom/src/par.rs"], "one home");
    }

    #[test]
    fn target_features_fire_outside_the_one_home() {
        assert_eq!(scan("target-features", "#[target_feature(enable = \"avx2\")]\n").len(), 1);
        assert_eq!(
            scan("target-features", "if std::arch::is_x86_feature_detected!(\"avx2\") {}\n").len(),
            1
        );
        assert_eq!(scan("target-features", "is_aarch64_feature_detected!(\"neon\");\n").len(), 1);
        let avx512 = "#[target_feature(enable = \"avx512f,avx512vl\")]\n";
        assert_eq!(scan("target-features", avx512).len(), 1);
        let fixture = rule("target-features").bad_fixture;
        assert_eq!(scan("target-features", fixture).len(), 3, "both copies' forms and a detection");
        assert_eq!(scan("target-features", "#[allow(unsafe_code)]\n").len(), 1);
        assert_eq!(scan("target-features", "#![allow(unsafe_code)]\n").len(), 1);
        assert!(scan("target-features", "#![deny(unsafe_code)]\n").is_empty());
        assert!(scan("target-features", "#[cfg(target_feature = \"avx2\")]\n").is_empty());
        assert!(scan("target-features", "println!(\"{}\", tdts_geom::scan_isa());\n").is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    #[target_feature(enable = \"avx2\")]\n}\n";
        assert_eq!(scan("target-features", in_tests).len(), 1, "tests too");
        assert_eq!(
            rule("target-features").exempt_files,
            ["crates/geom/src/continuous.rs"],
            "one home"
        );
    }

    #[test]
    fn string_literals_are_invisible_to_rules() {
        let s = "let msg = \"never use unsafe or HashMap\";\n";
        assert!(scan("unsafe-without-safety", s).is_empty());
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(!contains_word("HashMapLike", "HashMap"));
        assert!(contains_word("a HashMap<K, V>", "HashMap"));
    }

    #[test]
    fn float_literal_detection() {
        assert!(starts_with_float_literal("0.0)"));
        assert!(ends_with_float_literal("x + 12.75"));
        assert!(!starts_with_float_literal("0u32"));
        assert!(!ends_with_float_literal("version 2"));
    }
}
