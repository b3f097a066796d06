//! # epic-bench
//!
//! The experiment harness: compiles every workload twice — the *baseline*
//! (superblock-formed, unrolled) and the *height-reduced* (baseline + FRP
//! conversion + ICBM control CPR) — and regenerates the paper's evaluation:
//!
//! * **Table 2** — speedup of the height-reduced code over the baseline on
//!   the five EPIC processors (`cargo run -p epic-bench --bin table2`).
//! * **Table 3** — static and dynamic operation-count ratios
//!   (`cargo run -p epic-bench --bin table3`).
//! * **Ablations** — heuristic and design-choice studies
//!   (`cargo run -p epic-bench --bin ablation`).

pub mod cache;
pub mod compile;
pub mod error;
pub mod json;
pub mod knobs;
pub mod pipeline;
pub mod schedules;
pub mod tables;
pub mod timing;

pub use cache::{
    route_fingerprint, ArtifactKind, CacheKey, CacheStats, CompileCache, Measured, StageArtifact,
};
pub use compile::{check_equivalence, compile, compile_cached, Compiled, PipelineConfig};
pub use error::CompileError;
pub use json::{Json, JsonError};
pub use knobs::{ConfigDelta, KnobError, KnobKind, KnobSpace, KnobSpec, KnobValue, TunedConfig};
pub use pipeline::{Pipeline, Step};
pub use schedules::{
    check_all_schedules, check_pair_schedules, check_workload_schedules,
    take_check_schedules_flag, validated_schedule,
};
pub use tables::{
    cycle_speedup, meld_matrix, meld_matrix_configs, meld_matrix_machines, render_meld_matrix,
    render_table2, render_table3, table2, table2_row, table3, MeldMatrixRow, Table2Row,
    Table3Row,
};
pub use timing::{
    enable_tracing_if_requested, stage, take_timings_flag, take_trace_flag, timings_to_json,
    write_trace, PassTimings, StageTiming,
};
