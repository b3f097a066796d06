//! Property tests of the knob registry ([`epic_bench::knobs`]).
//!
//! Two invariants the rest of the stack leans on:
//!
//! 1. **Lossless JSON round trip.** Any valid [`ConfigDelta`] renders to
//!    flat JSON, parses back to an equal delta, and reapplies to the
//!    identical `config_hash` (and machine) — including the `"inf"`
//!    encoding for the unbounded thresholds and `u64::MAX` for the
//!    unlimited branch cap. This is what lets the tuner echo a winning
//!    delta into a snapshot and a later run reproduce the exact compile
//!    cache keys.
//! 2. **The registry defaults are the paper defaults.** An empty delta
//!    materializes `PipelineConfig::default()` and `Machine::medium()`
//!    exactly, so "no overrides" means "the paper configuration" on every
//!    surface (serve, tune, fuzz) that goes through the registry.

use epic_bench::knobs::{ConfigDelta, KnobSpace, KnobValue};
use epic_bench::{Json, PipelineConfig};
use epic_machine::Machine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random valid delta: each knob is assigned with probability ~1/2,
/// drawing either from its choice grid or (for numeric knobs) a random
/// in-range value, so the test covers more than the grid points.
fn random_delta(space: &KnobSpace, seed: u64) -> ConfigDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = ConfigDelta::new();
    for spec in space.specs() {
        match rng.gen_range(0u32..4) {
            0 | 1 => continue, // knob left at default
            2 => {
                let v = spec.choices[rng.gen_range(0..spec.choices.len())];
                delta.set(space, spec.name, v).expect("grid choices validate");
            }
            _ => {
                use epic_bench::knobs::KnobKind;
                let v = match spec.kind {
                    KnobKind::F64 { min, max } => {
                        let hi = if max.is_finite() { max } else { 4.0 };
                        let step = rng.gen_range(0u64..=16) as f64 / 16.0;
                        KnobValue::F64(min + (hi - min) * step)
                    }
                    KnobKind::U64 { min, max } => {
                        KnobValue::U64(rng.gen_range(min..=max.min(min.saturating_add(1 << 20))))
                    }
                    KnobKind::Bool => KnobValue::Bool(rng.gen_range(0u32..2) == 1),
                };
                delta.set(space, spec.name, v).expect("in-range values validate");
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_delta_round_trips_through_json(seed in any::<u64>()) {
        let space = KnobSpace::global();
        let delta = random_delta(space, seed);

        let json = delta.to_json(space);
        let parsed = Json::parse(&json)
            .map_err(|e| TestCaseError::fail(format!("unparseable `{json}`: {e}")))?;
        let back = ConfigDelta::from_flat_json(space, &parsed)
            .map_err(|e| TestCaseError::fail(format!("rejected own output `{json}`: {e}")))?;
        prop_assert_eq!(&back, &delta, "round trip changed the delta: {}", json);

        // Reapplying the round-tripped delta reproduces the exact
        // configuration: same pipeline config hash, same machine.
        let a = delta.apply(space);
        let b = back.apply(space);
        prop_assert_eq!(a.pipeline.config_hash(), b.pipeline.config_hash());
        prop_assert_eq!(&a.machine, &b.machine);
        prop_assert_eq!(a.full_hash(), b.full_hash());

        // And applying twice is stable (no hidden state).
        prop_assert_eq!(a.full_hash(), delta.apply(space).full_hash());
    }
}

#[test]
fn registry_defaults_reproduce_the_paper_configuration() {
    let space = KnobSpace::global();
    let t = ConfigDelta::new().apply(space);
    let d = PipelineConfig::default();
    assert_eq!(t.pipeline.config_hash(), d.config_hash());
    assert!(t.pipeline.if_convert.is_none());
    assert!(t.pipeline.meld.is_none(), "paper config has no melding pass");
    assert!(t.pipeline.cpr.enable, "paper config runs ICBM");
    assert_eq!(t.machine, Machine::medium());
    // The paper's machine has an ideal front end: no misprediction penalty,
    // unbounded fetch.
    let fe = t.machine.frontend();
    assert_eq!((fe.mispredict_penalty, fe.fetch_width), (0, 0));

    // Per-knob: every registry default equals the live struct's value, so
    // setting a knob *to its default* is a no-op on the produced config.
    for spec in space.specs() {
        let mut delta = ConfigDelta::new();
        delta.set(space, spec.name, spec.default).unwrap();
        let u = delta.apply(space);
        assert_eq!(
            u.pipeline.config_hash(),
            d.config_hash(),
            "{}: default assignment changed the pipeline config",
            spec.name
        );
        if !spec.name.starts_with("machine.") {
            assert_eq!(u.machine, Machine::medium(), "{}", spec.name);
        } else {
            // Assigning a machine knob its default still yields a machine
            // with the medium shape (only the cosmetic name differs).
            assert_eq!(u.machine.with_name("medium"), Machine::medium(), "{}", spec.name);
        }
    }
}
