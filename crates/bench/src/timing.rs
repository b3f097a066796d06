//! Per-pass wall-clock and op-count observability.
//!
//! Every [`compile`](crate::compile::compile) run records, for each pipeline
//! stage (if-convert, instruction melding, superblock formation, unrolling,
//! FRP conversion, ICBM, the profiling runs, and — added by the table
//! drivers — scheduling), how
//! long the stage took and how the static operation count changed across it.
//! The result is machine-readable JSON (hand-rolled: the build environment
//! has no serde), emitted by the bench bins under `--timings out.json`.

use std::time::Duration;

/// The canonical pipeline stage names.
///
/// Every stage recorded in [`PassTimings`] (and every stage the compile
/// cache memoizes) must use one of these constants. Previously the names
/// were free strings scattered across `compile.rs` and the bins, so a typo
/// silently created a brand-new stage in the timings JSON; now
/// [`PassTimings::push`] debug-asserts membership in [`stage::ALL`].
pub mod stage {
    /// Profiling run feeding the optional if-conversion pass.
    pub const PROFILE_IF_CONVERT: &str = "profile:if-convert";
    /// Traditional if-conversion (optional, pre-region-formation).
    pub const IF_CONVERT: &str = "if-convert";
    /// Profiling run feeding the optional instruction-melding pass.
    pub const PROFILE_MELD: &str = "profile:meld";
    /// Instruction melding of full diamonds (optional, pre-region-formation).
    pub const MELD: &str = "meld";
    /// Profiling run feeding trace selection.
    pub const PROFILE_TRACE: &str = "profile:trace";
    /// Superblock formation.
    pub const SUPERBLOCK: &str = "superblock";
    /// Profiling run feeding loop unrolling.
    pub const PROFILE_UNROLL: &str = "profile:unroll";
    /// Hot-loop unrolling (plus the baseline DCE cleanup).
    pub const UNROLL: &str = "unroll";
    /// Profiling run measuring the finished baseline.
    pub const PROFILE_BASELINE: &str = "profile:baseline";
    /// Fully-resolved-predicate conversion.
    pub const FRP_CONVERT: &str = "frp-convert";
    /// The ICBM control-CPR transformation.
    pub const ICBM: &str = "icbm";
    /// Profiling run measuring the height-reduced code.
    pub const PROFILE_OPTIMIZED: &str = "profile:optimized";
    /// Machine scheduling (recorded by the table drivers).
    pub const SCHEDULE: &str = "schedule";

    /// Every valid stage name, in canonical pipeline order.
    pub const ALL: [&str; 13] = [
        PROFILE_IF_CONVERT,
        IF_CONVERT,
        PROFILE_MELD,
        MELD,
        PROFILE_TRACE,
        SUPERBLOCK,
        PROFILE_UNROLL,
        UNROLL,
        PROFILE_BASELINE,
        FRP_CONVERT,
        ICBM,
        PROFILE_OPTIMIZED,
        SCHEDULE,
    ];

    /// True when `name` is one of the canonical stage names.
    pub fn is_known(name: &str) -> bool {
        ALL.contains(&name)
    }
}

/// One timed pipeline stage.
#[derive(Clone, Debug)]
pub struct StageTiming {
    /// Stage name (e.g. `"icbm"`, `"profile:baseline"`).
    pub stage: String,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Static operation count entering the stage.
    pub ops_before: usize,
    /// Static operation count leaving the stage.
    pub ops_after: usize,
}

/// All stage timings for one workload's compilation.
#[derive(Clone, Debug, Default)]
pub struct PassTimings {
    /// The workload the timings belong to.
    pub workload: String,
    /// Stages in execution order.
    pub stages: Vec<StageTiming>,
}

impl PassTimings {
    /// An empty timing record for `workload`.
    pub fn new(workload: impl Into<String>) -> PassTimings {
        PassTimings { workload: workload.into(), stages: Vec::new() }
    }

    /// Appends one stage record.
    ///
    /// Every record also feeds the live observability layer: the stage's
    /// wall time lands in the process-wide
    /// `pipeline_stage_ns{stage="…"}` histogram, and — when the global
    /// tracer is enabled — one Chrome trace span per record is emitted
    /// under the `pipeline` category, carrying the workload name and op
    /// counts. Timings pushed into [`PassTimings`] are therefore exactly
    /// the spans a `--trace` export contains.
    ///
    /// Debug builds reject stage names outside [`stage::ALL`] — a typo'd
    /// name would otherwise silently materialize a new stage in the
    /// timings JSON.
    pub fn push(
        &mut self,
        stage: impl Into<String>,
        wall: Duration,
        ops_before: usize,
        ops_after: usize,
    ) {
        let stage = stage.into();
        debug_assert!(
            stage::is_known(&stage),
            "unknown pipeline stage name {stage:?}; use the timing::stage constants"
        );
        epic_obs::MetricsRegistry::global()
            .histogram(&epic_obs::metric_name("pipeline_stage_ns", &[("stage", &stage)]))
            .observe_duration(wall);
        let tracer = epic_obs::Tracer::global();
        if tracer.is_enabled() {
            // The stage already finished; reconstruct its start so the
            // span lands where the work actually ran.
            let start = std::time::Instant::now().checked_sub(wall);
            tracer.record_complete(
                &stage,
                "pipeline",
                start.unwrap_or_else(std::time::Instant::now),
                wall,
                &[
                    ("workload", &self.workload),
                    ("ops_before", &ops_before.to_string()),
                    ("ops_after", &ops_after.to_string()),
                ],
            );
        }
        self.stages.push(StageTiming { stage, wall, ops_before, ops_after });
    }

    /// Total wall-clock across all recorded stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// This record as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"workload\":{},\"total_ms\":{:.3},\"stages\":[",
            json_string(&self.workload),
            self.total().as_secs_f64() * 1e3
        ));
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":{},\"wall_ms\":{:.3},\"ops_before\":{},\"ops_after\":{}}}",
                json_string(&s.stage),
                s.wall.as_secs_f64() * 1e3,
                s.ops_before,
                s.ops_after
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Renders a set of per-workload timings as a JSON array.
pub fn timings_to_json(timings: &[PassTimings]) -> String {
    let mut out = String::from("[");
    for (i, t) in timings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push(']');
    out
}

pub use epic_obs::json_string;

/// Parses a `<flag> <path>` (or `<flag>=<path>`) argument out of `args`,
/// removing it and returning the requested path.
fn take_path_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 < args.len() {
            let path = args.remove(i + 1);
            args.remove(i);
            return Some(path);
        }
        args.remove(i);
        eprintln!("{flag} requires a path argument");
        return None;
    }
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        let a = args.remove(i);
        return Some(a[prefix.len()..].to_string());
    }
    None
}

/// Parses a `--timings <path>` (or `--timings=<path>`) flag out of `args`,
/// returning the remaining arguments and the requested output path.
pub fn take_timings_flag(args: &mut Vec<String>) -> Option<String> {
    take_path_flag(args, "--timings")
}

/// Parses a `--trace <path>` (or `--trace=<path>`) flag out of `args`. When
/// present the caller should enable the global tracer before compiling and
/// hand the path to [`write_trace`] afterwards.
pub fn take_trace_flag(args: &mut Vec<String>) -> Option<String> {
    take_path_flag(args, "--trace")
}

/// Enables the global tracer iff `trace_path` is set (call before any
/// compilation whose spans should be captured).
pub fn enable_tracing_if_requested(trace_path: &Option<String>) {
    if trace_path.is_some() {
        epic_obs::Tracer::global().enable();
    }
}

/// Drains the global tracer into `path` as Chrome `trace_event` JSON.
pub fn write_trace(path: &str) {
    std::fs::write(path, epic_obs::Tracer::global().export_chrome_json())
        .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
    eprintln!("chrome trace written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn timings_render_as_json_array() {
        let mut t = PassTimings::new("w1");
        t.push("icbm", Duration::from_micros(1500), 10, 12);
        let json = timings_to_json(&[t]);
        assert!(json.starts_with('['));
        assert!(json.contains("\"workload\":\"w1\""));
        assert!(json.contains("\"stage\":\"icbm\""));
        assert!(json.contains("\"ops_before\":10"));
        assert!(json.contains("\"ops_after\":12"));
        assert!(json.ends_with(']'));
    }

    #[test]
    fn total_sums_stage_walls() {
        let mut t = PassTimings::new("w");
        t.push(stage::SUPERBLOCK, Duration::from_millis(2), 0, 0);
        t.push(stage::UNROLL, Duration::from_millis(3), 0, 0);
        assert_eq!(t.total(), Duration::from_millis(5));
    }

    #[test]
    fn stage_names_are_canonical() {
        assert!(stage::is_known("icbm"));
        assert!(stage::is_known("profile:baseline"));
        assert!(!stage::is_known("icmb")); // the typo the consts guard against
        // The canonical list has no duplicates.
        let mut names = stage::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), stage::ALL.len());
    }

    #[test]
    #[should_panic(expected = "unknown pipeline stage")]
    #[cfg(debug_assertions)]
    fn typo_stage_names_are_rejected() {
        let mut t = PassTimings::new("w");
        t.push("icmb", Duration::from_millis(1), 0, 0);
    }

    #[test]
    fn timings_flag_is_extracted() {
        let mut args = vec!["bin".to_string(), "--timings".to_string(), "out.json".to_string()];
        assert_eq!(take_timings_flag(&mut args), Some("out.json".to_string()));
        assert_eq!(args, vec!["bin".to_string()]);
        let mut args = vec!["bin".to_string(), "--timings=x.json".to_string()];
        assert_eq!(take_timings_flag(&mut args), Some("x.json".to_string()));
        let mut args = vec!["bin".to_string()];
        assert_eq!(take_timings_flag(&mut args), None);
    }
}
