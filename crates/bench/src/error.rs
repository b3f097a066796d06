//! One error surface for the whole compilation pipeline.
//!
//! The pipeline used to leak its callees' ad-hoc error types (`Trap` from
//! the profiling interpreter, `DiffError` from the equivalence oracle,
//! `VerifyError` from the IR checker, `ParseError` from inline-IR text) to
//! every caller. [`CompileError`] unifies them: each variant carries the
//! pipeline stage it surfaced in, `From` impls keep `?` ergonomic, and
//! [`CompileError::to_json`] gives the batch-compile server a stable
//! structured rendering instead of stringly-typed messages.

use std::error::Error;
use std::fmt;

use epic_interp::{DiffError, Trap};
use epic_ir::{ParseError, VerifyError};

use crate::timing::json_string;

/// Any failure of the staged compilation pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A profiling (or equivalence) interpreter run trapped.
    Trap {
        /// The stage whose interpreter run trapped.
        stage: &'static str,
        /// The trap itself.
        trap: Trap,
    },
    /// The differential oracle found a semantic divergence.
    Diff(DiffError),
    /// A function failed IR verification.
    Verify(VerifyError),
    /// Inline IR text failed to parse.
    Parse(ParseError),
    /// The compile's deadline (see [`Pipeline::with_deadline`]) had passed
    /// when it reached a stage boundary or an ICBM phase.
    ///
    /// [`Pipeline::with_deadline`]: crate::Pipeline::with_deadline
    Deadline {
        /// The stage that was about to start (or, for `icbm`, was running).
        stage: &'static str,
    },
}

impl CompileError {
    /// Wraps a trap with the stage it surfaced in.
    pub fn trap_at(stage: &'static str, trap: Trap) -> CompileError {
        CompileError::Trap { stage, trap }
    }

    /// A short machine-readable tag for the error class.
    pub fn kind(&self) -> &'static str {
        match self {
            CompileError::Trap { .. } => "trap",
            CompileError::Diff(_) => "diff",
            CompileError::Verify(_) => "verify",
            CompileError::Parse(_) => "parse",
            CompileError::Deadline { .. } => "deadline",
        }
    }

    /// The pipeline stage the error is attributed to, when known.
    pub fn stage(&self) -> Option<&'static str> {
        match self {
            CompileError::Trap { stage, .. } | CompileError::Deadline { stage } => Some(stage),
            _ => None,
        }
    }

    /// Renders the error as a stable JSON object:
    /// `{"kind":"trap","stage":"profile:baseline","message":"..."}` (the
    /// `stage` key is present only when attributable).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"kind\":{}", json_string(self.kind())));
        if let Some(stage) = self.stage() {
            out.push_str(&format!(",\"stage\":{}", json_string(stage)));
        }
        out.push_str(&format!(",\"message\":{}}}", json_string(&self.to_string())));
        out
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Trap { stage, trap } => write!(f, "[{stage}] {trap}"),
            CompileError::Diff(e) => write!(f, "equivalence check failed: {e}"),
            CompileError::Verify(e) => write!(f, "verification failed: {e}"),
            CompileError::Parse(e) => write!(f, "IR parse failed: {e}"),
            CompileError::Deadline { stage } => write!(f, "[{stage}] deadline exceeded"),
        }
    }
}

impl Error for CompileError {}

impl From<Trap> for CompileError {
    fn from(trap: Trap) -> Self {
        CompileError::Trap { stage: "interp", trap }
    }
}

impl From<DiffError> for CompileError {
    fn from(e: DiffError) -> Self {
        CompileError::Diff(e)
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::stage;
    use epic_ir::OpId;

    #[test]
    fn json_rendering_is_structured() {
        let e = CompileError::trap_at(stage::PROFILE_BASELINE, Trap::DivideByZero { op: OpId(3) });
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"trap\""), "{j}");
        assert!(j.contains("\"stage\":\"profile:baseline\""), "{j}");
        assert!(j.contains("divide"), "{j}");
        // Stage-less variants omit the stage key.
        let j2 = CompileError::from(Trap::OutOfFuel).to_json();
        assert!(j2.contains("\"stage\":\"interp\""), "{j2}");
        let j3 = CompileError::Parse(ParseError { line: 2, message: "x".into() }).to_json();
        assert!(!j3.contains("\"stage\""), "{j3}");
        assert!(j3.contains("\"kind\":\"parse\""), "{j3}");
    }

    #[test]
    fn from_impls_classify() {
        assert_eq!(CompileError::from(Trap::OutOfFuel).kind(), "trap");
        assert_eq!(
            CompileError::from(DiffError::ReferenceTrapped(Trap::OutOfFuel)).kind(),
            "diff"
        );
        assert_eq!(CompileError::from(VerifyError::EmptyFunction).kind(), "verify");
        assert_eq!(
            CompileError::from(ParseError { line: 1, message: "m".into() }).kind(),
            "parse"
        );
        let d = CompileError::Deadline { stage: stage::ICBM };
        assert_eq!(d.kind(), "deadline");
        assert_eq!(d.stage(), Some("icbm"));
        assert!(d.to_string().contains("deadline exceeded"));
    }
}
