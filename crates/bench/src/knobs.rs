//! The knob table: one row per tunable, and everything else derived from it.
//!
//! Every tunable the repro exposes — superblock formation
//! ([`epic_regions::TraceConfig`]), if-conversion ([`IfConvertConfig`]),
//! instruction melding ([`MeldConfig`]), the ICBM heuristics
//! ([`control_cpr::CprConfig`]) and the target machine shape and front end
//! ([`epic_machine::Machine`], [`epic_machine::Frontend`]) — is one row of
//! [`KNOBS`]: a dotted name (`cpr.exit_weight_threshold`), a typed kind with
//! its legal range, a small grid of search choices, the compile stages whose
//! cache key hashes the knob, the optional stage it switches on, and
//! `get`/`set` accessors on one flat settings value. Everything else is
//! derived from that table:
//!
//! * [`KnobSpace::new`] reads each paper default with `get` on the paper
//!   config (`PipelineConfig::default()`, `Machine::medium()`);
//! * [`ConfigDelta::apply`] is a loop over `set`;
//! * [`PipelineConfig::stage_hash`], the config part of every stage's
//!   compile-cache key, absorbs exactly the knobs whose row lists that
//!   stage, and [`TunedConfig::full_hash`] adds the [`MACHINE`] knobs;
//! * the serve wire groups (`{"cpr":{...}}`) and the tuner's gates (dead
//!   genes behind an off pass) come from the names and switches.
//!
//! Adding a knob = one row in [`KNOBS`] + the struct field it reads and
//! writes; its cache keys, defaults, wire name and search gene follow.
//!
//! A [`ConfigDelta`] is a validated set of named knob assignments. It is
//! the one currency shared by everything that manipulates configurations:
//! the `epic-tune` search driver samples and mutates deltas, the serve
//! override path parses client JSON into one (rejecting unknown or
//! out-of-range knobs by name), and the fuzzer's config sampling draws knob
//! values through the same validation.
//!
//! Deltas render to flat JSON (`{"cpr.speculate":false}`) and parse back
//! losslessly; infinite thresholds (the §4.1 "uniform" ablation) are
//! encoded as the string `"inf"` since JSON has no infinity literal.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use control_cpr::CprConfig;
use epic_ir::{combine_hashes, Fnv64};
use epic_machine::{Frontend, Latencies, Machine, Widths};
use epic_regions::{IfConvertConfig, MeldConfig, TraceConfig};

use crate::compile::PipelineConfig;
use crate::json::Json;
use crate::timing::json_string;
use crate::timing::stage::{ICBM, IF_CONVERT, MELD, SUPERBLOCK, UNROLL};

/// One typed knob value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KnobValue {
    /// A floating-point threshold (may be `inf` where the range allows).
    F64(f64),
    /// An unsigned count or width.
    U64(u64),
    /// An on/off switch.
    Bool(bool),
}

impl KnobValue {
    /// The JSON rendering of this value. Infinite floats become the string
    /// `"inf"` (JSON has no infinity literal); everything else is a bare
    /// number or boolean that [`Json::parse`] reads back exactly.
    pub fn to_json(&self) -> String {
        match *self {
            KnobValue::F64(v) if v.is_infinite() => "\"inf\"".to_string(),
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KnobValue::F64(v) if v.is_infinite() => write!(f, "inf"),
            KnobValue::F64(v) => write!(f, "{v:?}"),
            KnobValue::U64(v) => write!(f, "{v}"),
            KnobValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// The type and legal range of one knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KnobKind {
    /// A float in `[min, max]`; `max == f64::INFINITY` admits `inf`.
    F64 {
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// An unsigned integer in `[min, max]`.
    U64 {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// A boolean switch.
    Bool,
}

impl KnobKind {
    /// Human name of the expected JSON type, for error messages.
    fn expected(&self) -> &'static str {
        match self {
            KnobKind::F64 { .. } => "number (or \"inf\")",
            KnobKind::U64 { .. } => "non-negative integer",
            KnobKind::Bool => "boolean",
        }
    }
}

/// The stage key of the evaluation machine: not a compile stage, so only
/// [`TunedConfig::full_hash`] (the tuner's dedupe key) hashes these knobs.
pub const MACHINE: &str = "machine";

/// One row of [`KNOBS`].
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// Dotted name, `<group>.<field>` (e.g. `cpr.max_branches`).
    pub name: &'static str,
    /// Type and legal range.
    pub kind: KnobKind,
    /// Discrete search grid for the tuner's samplers.
    pub choices: &'static [KnobValue],
    /// One-line description.
    pub doc: &'static str,
    /// The stages whose cache key hashes this knob
    /// ([`crate::timing::stage`] names, or [`MACHINE`]).
    pub stages: &'static [&'static str],
    /// The optional stage this switch turns on. While it is off, the knobs
    /// that stage hashes are dead.
    pub switches: Option<&'static str>,
    get: fn(&Settings) -> KnobValue,
    set: fn(&mut Settings, KnobValue),
}

impl Knob {
    /// The wire group, the name's first segment (`cpr` for `cpr.enable`).
    fn group(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(group, _)| group)
    }

    /// True for the evaluation-machine knobs, which no compile stage reads.
    pub fn is_machine(&self) -> bool {
        self.stages == [MACHINE]
    }
}

/// A registry row plus its paper default, read with the row's `get` on the
/// paper config. The grid always contains the default.
#[derive(Clone, Copy, Debug)]
pub struct KnobSpec {
    knob: &'static Knob,
    /// The paper-default value.
    pub default: KnobValue,
}

impl Deref for KnobSpec {
    type Target = Knob;

    fn deref(&self) -> &Knob {
        self.knob
    }
}

/// Every knob's value in one flat place: the pipeline config with each
/// optional pass unfolded into an on/off switch plus its parameters (kept
/// while the pass is off), and the machine shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Settings {
    trace: TraceConfig,
    cpr: CprConfig,
    if_convert_on: bool,
    if_convert: IfConvertConfig,
    meld_on: bool,
    meld: MeldConfig,
    widths: Widths,
    latencies: Latencies,
    frontend: Frontend,
}

impl Settings {
    /// The settings of pipeline config `p` evaluated on `machine`.
    pub(crate) fn new(p: &PipelineConfig, machine: &Machine) -> Settings {
        Settings {
            trace: p.trace,
            cpr: p.cpr,
            if_convert_on: p.if_convert.is_some(),
            if_convert: p.if_convert.unwrap_or_default(),
            meld_on: p.meld.is_some(),
            meld: p.meld.unwrap_or_default(),
            // No knob admits a zero width, so a machine without widths
            // cannot collide with one that has them.
            widths: machine.widths().unwrap_or(Widths { int: 0, float: 0, mem: 0, branch: 0 }),
            latencies: machine.latencies(),
            frontend: machine.frontend(),
        }
    }

    /// Hash of `prefix`, then of every knob whose row lists `stage`, in
    /// table order: floats as their bits, integers as u64, bools as u8.
    pub(crate) fn stage_hash(&self, stage: &str, prefix: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        for &p in prefix {
            h.write_u64(p);
        }
        for knob in KNOBS.iter().filter(|k| k.stages.contains(&stage)) {
            match (knob.get)(self) {
                KnobValue::F64(v) => h.write_u64(v.to_bits()),
                KnobValue::U64(v) => h.write_u64(v),
                KnobValue::Bool(v) => h.write_u8(v as u8),
            }
        }
        h.finish()
    }
}

/// A config field a knob reads and writes, and the [`KnobValue`] variant
/// it travels as.
trait Field: Copy {
    fn knob(self) -> KnobValue;
    fn from_knob(v: KnobValue) -> Self;
}

macro_rules! field {
    ($($t:ty => $variant:ident($wide:ty)),*) => {$(
        impl Field for $t {
            fn knob(self) -> KnobValue {
                KnobValue::$variant(self as $wide)
            }
            fn from_knob(v: KnobValue) -> $t {
                match v {
                    KnobValue::$variant(x) => x as $t,
                    _ => unreachable!("validated against the knob's kind"),
                }
            }
        }
    )*};
}

field!(f64 => F64(f64), u64 => U64(u64), usize => U64(u64), u32 => U64(u64), bool => Bool(bool));

/// One [`KNOBS`] row: name, kind, grid, `[stages]` (`=> switched stage`),
/// the [`Settings`] field, doc.
macro_rules! knob {
    ($name:literal, $kind:ident $(($min:expr, $max:expr))?, $choices:expr,
     [$($stage:ident),*] $(=> $switches:ident)?, $($field:ident).+, $doc:literal) => {
        Knob {
            name: $name,
            kind: KnobKind::$kind $({ min: $min, max: $max })?,
            choices: $choices,
            doc: $doc,
            stages: &[$($stage),*],
            switches: knob!(@switch $($switches)?),
            get: |s| s.$($field).+.knob(),
            set: |s, v| s.$($field).+ = Field::from_knob(v),
        }
    };
    (@switch) => { None };
    (@switch $stage:ident) => { Some($stage) };
}

const INF: f64 = f64::INFINITY;

const TRACE_MIN_PROB: &[KnobValue] = &[
    KnobValue::F64(0.5),
    KnobValue::F64(0.6),
    KnobValue::F64(0.65),
    KnobValue::F64(0.7),
    KnobValue::F64(0.8),
    KnobValue::F64(0.9),
];
const TRACE_MAX_OPS: &[KnobValue] =
    &[KnobValue::U64(100), KnobValue::U64(200), KnobValue::U64(400), KnobValue::U64(800)];
const SMALL_COUNTS: &[KnobValue] =
    &[KnobValue::U64(1), KnobValue::U64(4), KnobValue::U64(16), KnobValue::U64(64)];
const EXIT_WEIGHT: &[KnobValue] = &[
    KnobValue::F64(0.15),
    KnobValue::F64(0.25),
    KnobValue::F64(0.35),
    KnobValue::F64(0.5),
    KnobValue::F64(0.7),
    KnobValue::F64(1.0),
    KnobValue::F64(INF),
];
const PREDICT_TAKEN: &[KnobValue] = &[
    KnobValue::F64(0.5),
    KnobValue::F64(0.6),
    KnobValue::F64(0.75),
    KnobValue::F64(0.9),
    KnobValue::F64(INF),
];
const MAX_BRANCHES: &[KnobValue] = &[
    KnobValue::U64(2),
    KnobValue::U64(4),
    KnobValue::U64(8),
    KnobValue::U64(16),
    KnobValue::U64(32),
    KnobValue::U64(u64::MAX),
];
const BOOLS: &[KnobValue] = &[KnobValue::Bool(false), KnobValue::Bool(true)];
const IC_MIN_TAKEN: &[KnobValue] =
    &[KnobValue::F64(0.0), KnobValue::F64(0.2), KnobValue::F64(0.4)];
const IC_MAX_TAKEN: &[KnobValue] =
    &[KnobValue::F64(0.6), KnobValue::F64(0.8), KnobValue::F64(1.0)];
const IC_MAX_OPS: &[KnobValue] = &[KnobValue::U64(8), KnobValue::U64(24), KnobValue::U64(48)];
const WIDTHS_INT: &[KnobValue] =
    &[KnobValue::U64(1), KnobValue::U64(2), KnobValue::U64(4), KnobValue::U64(8)];
const WIDTHS_SMALL: &[KnobValue] = &[KnobValue::U64(1), KnobValue::U64(2), KnobValue::U64(4)];
const LAT_BRANCH: &[KnobValue] = &[KnobValue::U64(1), KnobValue::U64(2), KnobValue::U64(3)];
const LAT_LOAD: &[KnobValue] = &[KnobValue::U64(1), KnobValue::U64(2), KnobValue::U64(4)];
// Front-end grids: 0 is the paper's ideal front end (no penalty,
// unlimited fetch); the non-zero points bracket modern-ish machines.
const FRONTEND_GRID: &[KnobValue] =
    &[KnobValue::U64(0), KnobValue::U64(2), KnobValue::U64(4), KnobValue::U64(8)];


/// The knob table, in canonical order. A stage's cache key absorbs its
/// knobs in this order, so reordering rows changes cache keys.
#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    knob!("trace.min_prob", F64(0.0, 1.0), TRACE_MIN_PROB, [SUPERBLOCK], trace.min_prob,
        "minimum fall-through probability to extend a trace"),
    knob!("trace.max_ops", U64(1, 100_000), TRACE_MAX_OPS, [SUPERBLOCK], trace.max_ops,
        "maximum operations in one superblock"),
    knob!("trace.min_count", U64(0, 1 << 32), SMALL_COUNTS, [SUPERBLOCK, UNROLL], trace.min_count,
        "minimum dynamic entry count to seed or join a trace"),
    knob!("cpr.enable", Bool, BOOLS, [ICBM], cpr.enable,
        "run the ICBM control-CPR transformation (off isolates melding)"),
    knob!("cpr.exit_weight_threshold", F64(0.0, INF), EXIT_WEIGHT, [ICBM],
        cpr.exit_weight_threshold,
        "cumulative exit-probability cutoff ending a CPR block (\u{a7}5.2)"),
    knob!("cpr.predict_taken_threshold", F64(0.0, INF), PREDICT_TAKEN, [ICBM],
        cpr.predict_taken_threshold,
        "taken-probability cutoff for the likely-taken variation (\u{a7}5.3)"),
    knob!("cpr.min_entry_count", U64(0, 1 << 32), SMALL_COUNTS, [ICBM], cpr.min_entry_count,
        "hyperblocks entered fewer times are left untouched"),
    knob!("cpr.max_branches", U64(1, u64::MAX), MAX_BRANCHES, [ICBM], cpr.max_branches,
        "blocking cap on branches per CPR block (\u{a7}4.1)"),
    knob!("cpr.speculate", Bool, BOOLS, [ICBM], cpr.speculate,
        "run predicate speculation before matching (\u{a7}5.1)"),
    knob!("cpr.enable_taken_variation", Bool, BOOLS, [ICBM], cpr.enable_taken_variation,
        "enable the taken variation for likely-taken branches (\u{a7}5.3)"),
    knob!("if_convert.enable", Bool, BOOLS, [] => IF_CONVERT, if_convert_on,
        "run traditional if-conversion before region formation"),
    knob!("if_convert.min_taken", F64(0.0, 1.0), IC_MIN_TAKEN, [IF_CONVERT], if_convert.min_taken,
        "convert only branches at least this likely taken"),
    knob!("if_convert.max_taken", F64(0.0, 1.0), IC_MAX_TAKEN, [IF_CONVERT], if_convert.max_taken,
        "convert only branches at most this likely taken"),
    knob!("if_convert.max_ops", U64(0, 100_000), IC_MAX_OPS, [IF_CONVERT], if_convert.max_ops,
        "maximum side-block size to if-convert"),
    knob!("meld.enable", Bool, BOOLS, [] => MELD, meld_on,
        "meld short full diamonds into predicated straight-line code"),
    knob!("meld.min_taken", F64(0.0, 1.0), IC_MIN_TAKEN, [MELD], meld.min_taken,
        "meld only branches at least this likely taken"),
    knob!("meld.max_taken", F64(0.0, 1.0), IC_MAX_TAKEN, [MELD], meld.max_taken,
        "meld only branches at most this likely taken"),
    knob!("meld.max_ops", U64(0, 100_000), IC_MAX_OPS, [MELD], meld.max_ops,
        "maximum side-block size to meld"),
    knob!("machine.int_width", U64(1, 128), WIDTHS_INT, [MACHINE], widths.int,
        "integer issue width (I)"),
    knob!("machine.float_width", U64(1, 128), WIDTHS_SMALL, [MACHINE], widths.float,
        "floating-point issue width (F)"),
    knob!("machine.mem_width", U64(1, 128), WIDTHS_SMALL, [MACHINE], widths.mem,
        "memory issue width (M)"),
    knob!("machine.branch_width", U64(1, 128), WIDTHS_SMALL, [MACHINE], widths.branch,
        "branch issue width (B)"),
    knob!("machine.branch_latency", U64(1, 16), LAT_BRANCH, [MACHINE], latencies.branch,
        "exposed branch latency (\u{a7}3)"),
    knob!("machine.load_latency", U64(1, 16), LAT_LOAD, [MACHINE], latencies.load,
        "memory load latency"),
    knob!("machine.frontend.mispredict_penalty", U64(0, 1024), FRONTEND_GRID, [MACHINE],
        frontend.mispredict_penalty,
        "extra cycles per taken control transfer (0 = paper's ideal front end)"),
    knob!("machine.frontend.fetch_width", U64(0, 128), FRONTEND_GRID, [MACHINE],
        frontend.fetch_width,
        "operations fetched per cycle (0 = unlimited, the paper's setting)"),
];

/// The registry of every knob, in table order. Construct once (or use
/// [`KnobSpace::global`]); defaults are read from the real config structs
/// through the table's accessors, so the registry and the code cannot
/// disagree.
#[derive(Debug)]
pub struct KnobSpace {
    specs: Vec<KnobSpec>,
}

impl Default for KnobSpace {
    fn default() -> Self {
        KnobSpace::new()
    }
}

impl KnobSpace {
    /// Builds the registry from the live defaults.
    pub fn new() -> KnobSpace {
        let paper = Settings::new(&PipelineConfig::default(), &Machine::medium());
        let specs = KNOBS.iter().map(|knob| KnobSpec { knob, default: (knob.get)(&paper) });
        KnobSpace { specs: specs.collect() }
    }

    /// The process-wide registry instance.
    pub fn global() -> &'static KnobSpace {
        static SPACE: OnceLock<KnobSpace> = OnceLock::new();
        SPACE.get_or_init(KnobSpace::new)
    }

    /// All knobs, in canonical (registry) order.
    pub fn specs(&self) -> &[KnobSpec] {
        &self.specs
    }

    /// Looks a knob up by dotted name.
    pub fn find(&self, name: &str) -> Option<(usize, &KnobSpec)> {
        self.specs.iter().enumerate().find(|(_, s)| s.name == name)
    }

    /// Validates `value` against the named knob's kind and range.
    pub fn validate(&self, name: &str, value: KnobValue) -> Result<usize, KnobError> {
        let Some((idx, spec)) = self.find(name) else {
            return Err(KnobError::Unknown { name: name.to_string() });
        };
        match (spec.kind, value) {
            (KnobKind::F64 { min, max }, KnobValue::F64(v)) => {
                if v.is_nan() || v < min || v > max {
                    return Err(KnobError::out_of_range(spec, value));
                }
            }
            (KnobKind::U64 { min, max }, KnobValue::U64(v)) => {
                if v < min || v > max {
                    return Err(KnobError::out_of_range(spec, value));
                }
            }
            (KnobKind::Bool, KnobValue::Bool(_)) => {}
            (kind, _) => {
                return Err(KnobError::WrongType {
                    name: spec.name.to_string(),
                    expected: kind.expected(),
                })
            }
        }
        Ok(idx)
    }
}

/// A rejected knob assignment.
#[derive(Clone, Debug, PartialEq)]
pub enum KnobError {
    /// No knob of this name exists in the registry.
    Unknown {
        /// The offending (dotted) name.
        name: String,
    },
    /// The value's JSON type does not match the knob's kind.
    WrongType {
        /// The knob's name.
        name: String,
        /// What type the knob wants.
        expected: &'static str,
    },
    /// The value lies outside the knob's legal range.
    OutOfRange {
        /// The knob's name.
        name: String,
        /// The rejected value, rendered.
        got: String,
        /// The legal range, rendered.
        range: String,
    },
    /// The enclosing JSON was not shaped like a config at all.
    Malformed {
        /// What was wrong.
        message: String,
    },
}

impl KnobError {
    fn out_of_range(spec: &KnobSpec, value: KnobValue) -> KnobError {
        let range = match spec.kind {
            KnobKind::F64 { min, max } if max.is_infinite() => format!("[{min:?}, inf]"),
            KnobKind::F64 { min, max } => format!("[{min:?}, {max:?}]"),
            KnobKind::U64 { min, max } => format!("[{min}, {max}]"),
            KnobKind::Bool => "{true, false}".to_string(),
        };
        KnobError::OutOfRange { name: spec.name.to_string(), got: value.to_string(), range }
    }

    /// The knob this error names, when there is one.
    pub fn knob(&self) -> Option<&str> {
        match self {
            KnobError::Unknown { name }
            | KnobError::WrongType { name, .. }
            | KnobError::OutOfRange { name, .. } => Some(name),
            KnobError::Malformed { .. } => None,
        }
    }

    /// Machine-readable class: `"out_of_range"` for range violations,
    /// `"bad_knob"` for everything else.
    pub fn kind(&self) -> &'static str {
        match self {
            KnobError::OutOfRange { .. } => "out_of_range",
            _ => "bad_knob",
        }
    }
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::Unknown { name } => write!(f, "unknown knob `{name}`"),
            KnobError::WrongType { name, expected } => {
                write!(f, "knob `{name}` wants a {expected}")
            }
            KnobError::OutOfRange { name, got, range } => {
                write!(f, "knob `{name}` = {got} outside {range}")
            }
            KnobError::Malformed { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for KnobError {}

/// A validated set of named knob assignments, kept in registry order so
/// two deltas with the same content are identical (and render identically).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigDelta {
    /// `(spec index, value)`, sorted by spec index, one entry per knob.
    entries: Vec<(usize, KnobValue)>,
}

impl ConfigDelta {
    /// The empty delta (pure paper defaults).
    pub fn new() -> ConfigDelta {
        ConfigDelta::default()
    }

    /// Sets one knob (validating name, type and range). Overwrites a
    /// previous assignment of the same knob.
    ///
    /// # Errors
    ///
    /// [`KnobError`] on unknown name, type mismatch, or range violation.
    pub fn set(&mut self, space: &KnobSpace, name: &str, value: KnobValue) -> Result<(), KnobError> {
        let idx = space.validate(name, value)?;
        match self.entries.binary_search_by_key(&idx, |(i, _)| *i) {
            Ok(pos) => self.entries[pos].1 = value,
            Err(pos) => self.entries.insert(pos, (idx, value)),
        }
        Ok(())
    }

    /// Number of knobs assigned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no knob is assigned (the paper default configuration).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The assignments, as `(name, value)` in registry order.
    pub fn iter<'s>(
        &'s self,
        space: &'s KnobSpace,
    ) -> impl Iterator<Item = (&'static str, KnobValue)> + 's {
        self.entries.iter().map(move |&(i, v)| (space.specs[i].name, v))
    }

    /// True when the delta assigns any [`MACHINE`] knob.
    pub fn touches_machine(&self, space: &KnobSpace) -> bool {
        self.entries.iter().any(|&(i, _)| space.specs[i].is_machine())
    }

    /// Flat JSON object, `{"<knob>":<value>,...}` in registry order.
    /// [`ConfigDelta::from_flat_json`] reads it back exactly.
    pub fn to_json(&self, space: &KnobSpace) -> String {
        let body: Vec<String> = self
            .iter(space)
            .map(|(name, v)| format!("{}:{}", json_string(name), v.to_json()))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Parses the flat form written by [`ConfigDelta::to_json`].
    ///
    /// # Errors
    ///
    /// [`KnobError`] on non-object input or any invalid assignment.
    pub fn from_flat_json(space: &KnobSpace, j: &Json) -> Result<ConfigDelta, KnobError> {
        let Json::Obj(pairs) = j else {
            return Err(KnobError::Malformed { message: "config delta must be an object".into() });
        };
        let mut delta = ConfigDelta::new();
        for (key, value) in pairs {
            delta.set_json(space, key, value)?;
        }
        Ok(delta)
    }

    /// Parses the grouped wire form the serve protocol accepts:
    /// `{"trace":{...},"cpr":{...},"if_convert":{...}|null,"meld":{...}|null,"machine":{...}}`,
    /// one group per knob-name prefix. A present (non-null) group of an
    /// optional pass — even empty — sets the group's switch knob
    /// ([`Knob::switches`]); `null` or absence leaves the pass off. A field
    /// whose value is itself an object and whose joined name is not a knob
    /// is a nested sub-group
    /// (`{"machine":{"frontend":{"fetch_width":4}}}` sets
    /// `machine.frontend.fetch_width`).
    ///
    /// # Errors
    ///
    /// [`KnobError`] naming the offending knob (`<group>.<field>`) on any
    /// unknown, ill-typed or out-of-range assignment.
    pub fn from_grouped_json(space: &KnobSpace, j: &Json) -> Result<ConfigDelta, KnobError> {
        let Json::Obj(groups) = j else {
            return Err(KnobError::Malformed { message: "\"config\" must be an object".into() });
        };
        let mut delta = ConfigDelta::new();
        for (group, fields) in groups {
            let in_group: Vec<&KnobSpec> =
                space.specs.iter().filter(|s| s.group() == group).collect();
            let switch = in_group.iter().find(|s| s.switches.is_some());
            if switch.is_some() && *fields == Json::Null {
                continue;
            }
            let Json::Obj(pairs) = fields else {
                return Err(KnobError::Malformed {
                    message: format!("config group \"{group}\" must be an object"),
                });
            };
            if in_group.is_empty() {
                return Err(KnobError::Unknown { name: group.clone() });
            }
            if let Some(switch) = switch {
                delta.set(space, switch.name, KnobValue::Bool(true))?;
            }
            for (key, value) in pairs {
                let name = format!("{group}.{key}");
                match value {
                    Json::Obj(sub) if space.find(&name).is_none() => {
                        for (subkey, subvalue) in sub {
                            delta.set_json(space, &format!("{name}.{subkey}"), subvalue)?;
                        }
                    }
                    _ => delta.set_json(space, &name, value)?,
                }
            }
        }
        Ok(delta)
    }

    /// Sets one knob from a JSON value, typed by the knob's kind.
    fn set_json(&mut self, space: &KnobSpace, name: &str, j: &Json) -> Result<(), KnobError> {
        let Some((_, spec)) = space.find(name) else {
            return Err(KnobError::Unknown { name: name.to_string() });
        };
        let value = match spec.kind {
            KnobKind::F64 { .. } => {
                j.as_f64().or((j.as_str() == Some("inf")).then_some(INF)).map(KnobValue::F64)
            }
            KnobKind::U64 { .. } => j.as_u64().map(KnobValue::U64),
            KnobKind::Bool => j.as_bool().map(KnobValue::Bool),
        };
        let value = value.ok_or_else(|| KnobError::WrongType {
            name: spec.name.to_string(),
            expected: spec.kind.expected(),
        })?;
        self.set(space, name, value)
    }

    /// Materializes the delta over the paper defaults. An empty delta
    /// reproduces `PipelineConfig::default()` and `Machine::medium()`
    /// exactly; any [`MACHINE`] assignment switches to a custom machine
    /// named `"tuned"`.
    pub fn apply(&self, space: &KnobSpace) -> TunedConfig {
        let medium = Machine::medium();
        let mut s = Settings::new(&PipelineConfig::default(), &medium);
        for &(i, v) in &self.entries {
            (space.specs[i].set)(&mut s, v);
        }
        let pipeline = PipelineConfig {
            trace: s.trace,
            cpr: s.cpr,
            if_convert: s.if_convert_on.then_some(s.if_convert),
            meld: s.meld_on.then_some(s.meld),
        };
        let machine = if self.touches_machine(space) {
            Machine::new("tuned", Some(s.widths), s.latencies).with_frontend(s.frontend)
        } else {
            medium
        };
        TunedConfig { pipeline, machine }
    }
}

/// A concrete configuration a delta materializes to: the pipeline config
/// (feeding the existing `config_hash` / compile cache) plus the machine
/// the estimator scores on.
#[derive(Clone, Debug)]
pub struct TunedConfig {
    /// The pipeline configuration.
    pub pipeline: PipelineConfig,
    /// The evaluation machine.
    pub machine: Machine,
}

impl TunedConfig {
    /// Stable hash of the whole tuned configuration: the pipeline's
    /// `config_hash` plus the [`MACHINE`] knob values (the machine's name is
    /// cosmetic and excluded). The tuner's dedupe key.
    pub fn full_hash(&self) -> u64 {
        let machine = Settings::new(&self.pipeline, &self.machine).stage_hash(MACHINE, &[]);
        combine_hashes(&[self.pipeline.config_hash(), machine])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> &'static KnobSpace {
        KnobSpace::global()
    }

    #[test]
    fn registry_is_internally_consistent() {
        let s = space();
        assert_eq!(s.specs().len(), 26);
        for spec in s.specs() {
            // Default and every grid choice must pass the knob's own
            // validation, and the grid must contain the default.
            s.validate(spec.name, spec.default)
                .unwrap_or_else(|e| panic!("{}: default rejected: {e}", spec.name));
            for &c in spec.choices {
                s.validate(spec.name, c)
                    .unwrap_or_else(|e| panic!("{}: choice rejected: {e}", spec.name));
            }
            assert!(
                spec.choices.contains(&spec.default),
                "{}: default {} not in choices",
                spec.name,
                spec.default
            );
            assert!(!spec.doc.is_empty());
        }
        // Names are unique.
        for (i, a) in s.specs().iter().enumerate() {
            assert!(
                s.specs().iter().skip(i + 1).all(|b| b.name != a.name),
                "duplicate knob {}",
                a.name
            );
        }
    }

    #[test]
    fn empty_delta_reproduces_paper_defaults_exactly() {
        let t = ConfigDelta::new().apply(space());
        let d = PipelineConfig::default();
        assert_eq!(t.pipeline.config_hash(), d.config_hash());
        assert_eq!(t.pipeline.trace.min_prob, d.trace.min_prob);
        assert_eq!(t.pipeline.trace.max_ops, d.trace.max_ops);
        assert_eq!(t.pipeline.trace.min_count, d.trace.min_count);
        assert_eq!(t.pipeline.cpr.exit_weight_threshold, d.cpr.exit_weight_threshold);
        assert_eq!(t.pipeline.cpr.max_branches, d.cpr.max_branches);
        assert!(t.pipeline.cpr.enable, "CPR is on in the paper config");
        assert!(t.pipeline.if_convert.is_none());
        assert!(t.pipeline.meld.is_none(), "melding is off in the paper config");
        assert_eq!(t.machine, Machine::medium());
        assert!(t.machine.frontend().is_ideal(), "paper front end is ideal");
    }

    #[test]
    fn set_validates_and_apply_routes_every_knob() {
        let s = space();
        let mut delta = ConfigDelta::new();
        // Assign every knob a non-default grid choice where one exists.
        for spec in s.specs() {
            let v = spec
                .choices
                .iter()
                .copied()
                .find(|c| *c != spec.default)
                .unwrap_or(spec.default);
            delta.set(s, spec.name, v).unwrap();
        }
        let t = delta.apply(s);
        // Spot-check the routing end to end.
        assert_ne!(t.pipeline.config_hash(), PipelineConfig::default().config_hash());
        assert!(t.pipeline.if_convert.is_some(), "if_convert.enable toggled on");
        assert!(t.pipeline.meld.is_some(), "meld.enable toggled on");
        assert!(!t.pipeline.cpr.enable, "cpr.enable toggled off");
        assert_eq!(t.machine.name(), "tuned");
        assert!(!t.machine.frontend().is_ideal(), "frontend knobs routed to the machine");
        assert_ne!(t.machine.clone().with_name("medium"), Machine::medium());
    }

    #[test]
    fn rejects_unknown_ill_typed_and_out_of_range() {
        let s = space();
        let mut d = ConfigDelta::new();
        let e = d.set(s, "cpr.max_height", KnobValue::U64(3)).unwrap_err();
        assert_eq!(e.kind(), "bad_knob");
        assert_eq!(e.knob(), Some("cpr.max_height"));

        let e = d.set(s, "trace.min_prob", KnobValue::Bool(true)).unwrap_err();
        assert_eq!(e.kind(), "bad_knob");
        assert!(e.to_string().contains("number"));

        let e = d.set(s, "trace.min_prob", KnobValue::F64(1.5)).unwrap_err();
        assert_eq!(e.kind(), "out_of_range");
        assert_eq!(e.knob(), Some("trace.min_prob"));
        assert!(e.to_string().contains("[0.0, 1.0]"), "{e}");

        // Infinity is in range for the unbounded thresholds only.
        d.set(s, "cpr.exit_weight_threshold", KnobValue::F64(f64::INFINITY)).unwrap();
        let e = d.set(s, "trace.min_prob", KnobValue::F64(f64::INFINITY)).unwrap_err();
        assert_eq!(e.kind(), "out_of_range");
        let e = d.set(s, "trace.min_prob", KnobValue::F64(f64::NAN)).unwrap_err();
        assert_eq!(e.kind(), "out_of_range");
    }

    #[test]
    fn json_round_trips_including_infinity() {
        let s = space();
        let mut d = ConfigDelta::new();
        d.set(s, "cpr.exit_weight_threshold", KnobValue::F64(f64::INFINITY)).unwrap();
        d.set(s, "cpr.speculate", KnobValue::Bool(false)).unwrap();
        d.set(s, "trace.min_count", KnobValue::U64(4)).unwrap();
        d.set(s, "cpr.max_branches", KnobValue::U64(u64::MAX)).unwrap();
        let json = d.to_json(s);
        assert!(json.contains("\"cpr.exit_weight_threshold\":\"inf\""), "{json}");
        let back = ConfigDelta::from_flat_json(s, &Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.apply(s).full_hash(), d.apply(s).full_hash());
    }

    #[test]
    fn grouped_form_matches_serve_wire_shape() {
        let s = space();
        let j = Json::parse(
            r#"{"cpr":{"speculate":false},"trace":{"min_count":4},"if_convert":{}}"#,
        )
        .unwrap();
        let d = ConfigDelta::from_grouped_json(s, &j).unwrap();
        let t = d.apply(s);
        assert!(!t.pipeline.cpr.speculate);
        assert_eq!(t.pipeline.trace.min_count, 4);
        // An empty (but present) if_convert group enables if-conversion
        // with its defaults, as the old hand-rolled parser did.
        assert_eq!(t.pipeline.if_convert.map(|c| c.max_ops), Some(24));

        // null turns the group off.
        let j = Json::parse(r#"{"if_convert":null}"#).unwrap();
        let d = ConfigDelta::from_grouped_json(s, &j).unwrap();
        assert!(d.is_empty());

        // The meld group follows the same present/null semantics, and the
        // machine group reaches the front-end knobs through dotted fields.
        let j = Json::parse(
            r#"{"meld":{"max_ops":8},"machine":{"frontend.mispredict_penalty":8}}"#,
        )
        .unwrap();
        let t = ConfigDelta::from_grouped_json(s, &j).unwrap().apply(s);
        assert_eq!(t.pipeline.meld.map(|c| c.max_ops), Some(8));
        assert_eq!(t.machine.frontend().mispredict_penalty, 8);
        let j = Json::parse(r#"{"meld":null}"#).unwrap();
        assert!(ConfigDelta::from_grouped_json(s, &j).unwrap().is_empty());

        // The natural nested wire shape reaches them too, and range errors
        // name the full dotted knob.
        let j = Json::parse(
            r#"{"machine":{"frontend":{"mispredict_penalty":8,"fetch_width":4}}}"#,
        )
        .unwrap();
        let t = ConfigDelta::from_grouped_json(s, &j).unwrap().apply(s);
        assert_eq!(t.machine.frontend().mispredict_penalty, 8);
        assert_eq!(t.machine.frontend().fetch_width, 4);
        let j = Json::parse(r#"{"machine":{"frontend":{"fetch_width":9999}}}"#).unwrap();
        let e = ConfigDelta::from_grouped_json(s, &j).unwrap_err();
        assert_eq!(e.knob(), Some("machine.frontend.fetch_width"));
        assert_eq!(e.kind(), "out_of_range");
        let j = Json::parse(r#"{"machine":{"frontend":{"depth":9}}}"#).unwrap();
        let e = ConfigDelta::from_grouped_json(s, &j).unwrap_err();
        assert_eq!(e.knob(), Some("machine.frontend.depth"));

        // Unknown field names are errors that name the knob.
        let j = Json::parse(r#"{"trace":{"max_blocks":6}}"#).unwrap();
        let e = ConfigDelta::from_grouped_json(s, &j).unwrap_err();
        assert_eq!(e.knob(), Some("trace.max_blocks"));
        assert_eq!(e.kind(), "bad_knob");

        // Unknown groups too.
        let j = Json::parse(r#"{"sched":{"window":6}}"#).unwrap();
        let e = ConfigDelta::from_grouped_json(s, &j).unwrap_err();
        assert_eq!(e.knob(), Some("sched"));
    }

    #[test]
    fn full_hash_sees_machine_shape_not_name() {
        let tuned = |machine: Machine| {
            TunedConfig { pipeline: PipelineConfig::default(), machine }.full_hash()
        };
        let m1 = Machine::new("a", Machine::medium().widths(), Latencies::default());
        assert_eq!(tuned(m1), tuned(Machine::medium()));
        assert_ne!(tuned(Machine::medium()), tuned(Machine::wide()));
        assert_ne!(tuned(Machine::sequential()), tuned(Machine::medium()));
        assert_ne!(tuned(Machine::medium()), tuned(Machine::medium().with_branch_latency(2)));
        // The front end participates in the hash: a penalty-bearing copy
        // of medium must not collide with (and silently reuse) the ideal
        // machine's tuner dedupe key.
        let fe = Frontend { mispredict_penalty: 8, fetch_width: 4 };
        assert_ne!(tuned(Machine::medium()), tuned(Machine::medium().with_frontend(fe)));
    }
}
