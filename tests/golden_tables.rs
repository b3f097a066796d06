//! Golden paper tables.
//!
//! Every number the tables report is a compiler estimate (schedule length
//! × profile frequency, §7 of the paper), so each driver's default stdout
//! is deterministic and is pinned byte for byte by a file under
//! `tests/golden/`. Each driver runs once on one thread and once on four,
//! without a disk cache, which also proves the parallel drivers equal the
//! serial reference on the full suite. A second test checks that every
//! fenced table in EXPERIMENTS.md quotes its golden file verbatim, so the
//! published numbers cannot drift from the binaries.
//!
//! An intended change to a table regenerates its golden file with the
//! command the failure prints, and the diff is reviewed with the change.

use std::process::Command;

/// `(binary, its built path, its golden stdout)`.
const GOLDEN: [(&str, &str, &str); 5] = [
    ("table2", env!("CARGO_BIN_EXE_table2"), include_str!("golden/table2.txt")),
    ("table3", env!("CARGO_BIN_EXE_table3"), include_str!("golden/table3.txt")),
    ("ablation", env!("CARGO_BIN_EXE_ablation"), include_str!("golden/ablation.txt")),
    ("variants", env!("CARGO_BIN_EXE_variants"), include_str!("golden/variants.txt")),
    (
        "latency_sweep",
        env!("CARGO_BIN_EXE_latency_sweep"),
        include_str!("golden/latency_sweep.txt"),
    ),
];

/// EXPERIMENTS.md sections (by heading prefix) whose fenced blocks must
/// each be a verbatim run of lines from the named golden file.
const QUOTED: [(&str, &str); 6] = [
    ("## Table 2 ", "table2"),
    ("## Table 3 ", "table3"),
    ("## Ablations", "ablation"),
    ("### Exposed-branch-latency sweep", "latency_sweep"),
    ("### Speedup decomposition", "variants"),
    ("### Instruction melding", "ablation"),
];

fn golden(bin: &str) -> &'static str {
    GOLDEN.iter().find(|g| g.0 == bin).map(|g| g.2).expect("a golden binary")
}

fn regenerate(bin: &str) -> String {
    format!("cargo run --release -p epic-bench --bin {bin} > tests/golden/{bin}.txt")
}

fn check_binary(bin: &str) {
    let (_, exe, expected) = GOLDEN.iter().find(|g| g.0 == bin).expect("a golden binary");
    for threads in ["1", "4"] {
        let out = Command::new(exe)
            .env_remove("EPIC_CACHE_DIR")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{bin} failed at {threads} thread(s):\n{stderr}");
        let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        if actual == *expected {
            continue;
        }
        let at = expected.lines().zip(actual.lines()).position(|(e, a)| e != a);
        let at = at.unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{bin} stdout at RAYON_NUM_THREADS={threads} differs from tests/golden/{bin}.txt \
             at line {}:\n  golden: {}\n  actual: {}\n\
             If the change is intended, regenerate the file and review its diff:\n  {}",
            at + 1,
            expected.lines().nth(at).unwrap_or("<end>"),
            actual.lines().nth(at).unwrap_or("<end>"),
            regenerate(bin)
        );
    }
}

#[test]
fn table2_matches_golden() {
    check_binary("table2");
}

#[test]
fn table3_matches_golden() {
    check_binary("table3");
}

#[test]
fn ablation_matches_golden() {
    check_binary("ablation");
}

#[test]
fn variants_matches_golden() {
    check_binary("variants");
}

#[test]
fn latency_sweep_matches_golden() {
    check_binary("latency_sweep");
}

/// A fenced block of a Markdown document: the heading it sits under, the
/// 1-based line of its opening fence, and its lines.
struct Fence<'a> {
    heading: &'a str,
    line: usize,
    body: Vec<&'a str>,
}

fn fences(doc: &str) -> Vec<Fence<'_>> {
    let mut out: Vec<Fence> = Vec::new();
    let mut heading = "";
    let mut open = false;
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            if !open {
                out.push(Fence { heading, line: i + 1, body: Vec::new() });
            }
            open = !open;
        } else if open {
            out.last_mut().expect("an open fence").body.push(line);
        } else if line.starts_with('#') {
            heading = line;
        }
    }
    assert!(!open, "EXPERIMENTS.md has an unclosed fence");
    out
}

#[test]
fn experiments_tables_quote_the_golden_files() {
    let doc = include_str!("../EXPERIMENTS.md");
    let all = fences(doc);
    for (prefix, bin) in QUOTED {
        let lines: Vec<&str> = golden(bin).lines().collect();
        let quoted: Vec<&Fence> = all.iter().filter(|f| f.heading.starts_with(prefix)).collect();
        assert!(!quoted.is_empty(), "EXPERIMENTS.md has no fenced table under `{prefix}`");
        for f in quoted {
            let verbatim = !f.body.is_empty() && lines.windows(f.body.len()).any(|w| w == f.body);
            let stray = f.body.iter().find(|l| !lines.contains(l)).unwrap_or(&"<line order>");
            assert!(
                verbatim,
                "EXPERIMENTS.md line {}: the fence under `{}` is not a verbatim run of lines \
                 from tests/golden/{bin}.txt (first stray line: {stray:?}); quote the golden \
                 file and move annotations into prose",
                f.line, f.heading
            );
        }
    }
}
