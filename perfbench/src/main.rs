//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload suite|corpus|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! workload with the global tracer on and prints every per-layer metric,
//! the layer tree, and its own (traced) end-to-end numbers. Run it from
//! the repository root: per-layer line counts read `crates/*/src`. The
//! last line of standard output is the result as one JSON object.

mod compile_wl;
mod layers;
mod report;
mod serve_wl;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use report::{RunResult, END_TO_END, LAYERS, PER_LAYER};

/// Attempted and failed operations of a run.
#[derive(Default)]
pub struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failure and reports the first few on stderr.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {message}");
        }
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// The end-to-end result of a run, in catalogue order.
pub fn finish(ops: Ops, values: Vec<(String, f64)>) -> RunResult {
    let metrics = END_TO_END
        .iter()
        .map(|(name, _, _)| {
            let v = values
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v);
            (name.to_string(), v)
        })
        .collect();
    RunResult {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}

/// The per-layer result of a run, in catalogue order (a metric whose
/// layer did not run reads 0), plus `<layer>.loc` for every layer.
pub fn finish_layers(ops: Ops, mut values: layers::Values) -> RunResult {
    layers::lines_of_code(Path::new("."), &mut values);
    let names = PER_LAYER
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(LAYERS.iter().map(|l| format!("{l}.loc")));
    let metrics = names
        .map(|name| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v)
        })
        .collect();
    RunResult {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}

/// A run that could not measure: every metric reads 0.
pub fn failed_result(ops: Ops, trace: bool) -> RunResult {
    if trace {
        finish_layers(ops, layers::Values::new())
    } else {
        finish(ops, Vec::new())
    }
}

/// Prints a traced run's own end-to-end numbers and keeps those the
/// catalogue lists as `trace.<name>` per-layer metrics: their distance from
/// an untraced run is the tracing overhead.
pub fn record_traced_e2e(e2e: &[(&str, f64)], values: &mut layers::Values) {
    println!("--- end-to-end with tracing on ---");
    for &(name, value) in e2e {
        println!("traced {name:<24} {value:>16.4}");
        let key = format!("trace.{name}");
        if PER_LAYER.iter().any(|(n, _)| *n == key) {
            values.insert(key, value);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload suite|corpus|serve --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload"),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        flag("--trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let result = match workload {
        "suite" => compile_wl::run(compile_wl::Kind::Suite, seed, seconds, trace),
        "corpus" => compile_wl::run(compile_wl::Kind::Corpus, seed, seconds, trace),
        "serve" => serve_wl::run(seed, seconds, trace),
        _ => return usage(),
    };
    result.print(trace);
    ExitCode::SUCCESS
}
