//! The ICBM pipeline driver: speculate → match → restructure → off-trace
//! motion → dead code elimination, per hyperblock (paper §5).
//!
//! [`apply_icbm_observed`] is the one copy of that loop. It hands the
//! function to an observer after every phase that changes it, which is
//! how the fuzz harness differentially checks each phase and how the
//! compile pipeline enforces a deadline inside ICBM; [`apply_icbm`] is the
//! same loop with an observer that does nothing.

use std::convert::Infallible;

use epic_analysis::GlobalLiveness;
use epic_ir::{Function, Profile};
use epic_obs::Span;

use crate::config::CprConfig;
use crate::dce::dce;
use crate::matching::{hot_hyperblocks, match_cpr_blocks};
use crate::motion::off_trace_motion;
use crate::restructure::restructure;
use crate::skip::Skip;
use crate::speculate::speculate;

/// An ICBM phase that rewrote the function, as [`apply_icbm_observed`]
/// hands it to its observer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcbmPhase {
    /// Predicate speculation over the whole function.
    Speculate,
    /// One CPR block restructured.
    Restructure,
    /// Off-trace motion finished that CPR block.
    Motion,
    /// Motion refused for this reason and the restructure was undone.
    Rollback(Skip),
    /// The final dead code elimination.
    DceFinal,
}

impl IcbmPhase {
    /// The phase's stage name: `speculate`, `restructure`, `motion`,
    /// `rollback` or `dce-final`.
    pub fn name(self) -> &'static str {
        match self {
            IcbmPhase::Speculate => "speculate",
            IcbmPhase::Restructure => "restructure",
            IcbmPhase::Motion => "motion",
            IcbmPhase::Rollback(_) => "rollback",
            IcbmPhase::DceFinal => "dce-final",
        }
    }
}

/// Statistics from one [`apply_icbm`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IcbmStats {
    /// Hyperblocks examined.
    pub hyperblocks: usize,
    /// Non-trivial CPR blocks transformed.
    pub cpr_blocks: usize,
    /// CPR blocks using the taken variation.
    pub taken_blocks: usize,
    /// Original branches collapsed into bypass branches.
    pub branches_collapsed: usize,
    /// CPR blocks skipped by a restructure or motion refusal; the
    /// process-wide [`Skip::counter`](crate::Skip::counter)s split this count by reason.
    pub skipped: usize,
    /// Guards promoted by predicate speculation.
    pub promoted: usize,
    /// Promotions undone by demotion.
    pub demoted: usize,
    /// Dead operations removed by the final DCE pass.
    pub dce_removed: usize,
}

/// Applies the complete ICBM control CPR transformation to every hot
/// hyperblock of `func`.
///
/// `profile` drives the exit-weight and predict-taken heuristics; its ids
/// must refer to `func` as given. The transformation is semantics-
/// preserving for any profile (the profile only affects how CPR blocks are
/// chosen, never correctness).
pub fn apply_icbm(func: &mut Function, profile: &Profile, cfg: &CprConfig) -> IcbmStats {
    match apply_icbm_observed(func, profile, cfg, |_, _| Ok::<(), Infallible>(())) {
        Ok(stats) => stats,
        Err(never) => match never {},
    }
}

/// [`apply_icbm`], calling `after(phase, func)` once each phase has
/// rewritten `func`: [`Speculate`](IcbmPhase::Speculate) (when enabled),
/// then per CPR block [`Restructure`](IcbmPhase::Restructure) followed by
/// [`Motion`](IcbmPhase::Motion) — or by [`Rollback`](IcbmPhase::Rollback)
/// with motion's refusal when the restructure was undone — and finally
/// [`DceFinal`](IcbmPhase::DceFinal). Every skipped CPR block, whichever
/// phase refused it, adds one to [`IcbmStats::skipped`] and to its reason's
/// [`Skip::counter`].
///
/// Liveness is computed once per run, before speculation; every phase then
/// repairs the blocks it edited, so no phase re-analyzes the function.
///
/// # Errors
///
/// The first error `after` returns; the run stops there, leaving `func`
/// as that phase produced it.
#[allow(clippy::disallowed_methods)]
pub fn apply_icbm_observed<E>(
    func: &mut Function,
    profile: &Profile,
    cfg: &CprConfig,
    mut after: impl FnMut(IcbmPhase, &Function) -> Result<(), E>,
) -> Result<IcbmStats, E> {
    let mut stats = IcbmStats::default();

    if !cfg.enable {
        return Ok(stats);
    }

    let mut live = phase("icbm.liveness", || GlobalLiveness::compute(func));
    if cfg.speculate {
        let (s, changed) = phase("icbm.speculate", || speculate(func, &live));
        phase("icbm.liveness", || live.repair(func, &changed));
        stats.promoted = s.promoted;
        stats.demoted = s.demoted;
        after(IcbmPhase::Speculate, func)?;
    }

    for hb in hot_hyperblocks(func, profile, cfg) {
        stats.hyperblocks += 1;
        let cpr_blocks = phase("icbm.match", || {
            match_cpr_blocks(&func.block(hb).ops, profile, cfg, func.mem_classes())
        });
        // Forward order: each block's on-trace FRP becomes the root
        // predicate of the next via the re-wiring step.
        'cprs: for cpr in &cpr_blocks {
            if !cpr.is_nontrivial() {
                continue;
            }
            // Motion can still refuse after a successful restructure (its
            // legality checks see the moved-set closure, which restructure
            // cannot predict); snapshot the hyperblock so a refusal leaves
            // no lookahead/bypass overhead behind, and keep its liveness
            // summary so the rollback only re-solves.
            let saved_ops = func.block(hb).ops.clone();
            let saved_summary = live.save_summary(hb);
            // The skip reason, plus the compensation block to detach when
            // the refusal came from motion and the restructure must be
            // undone.
            let (skip, undo) = 'cpr: {
                let restructured =
                    phase("icbm.restructure", || restructure(func, hb, cpr, &live));
                let r = match restructured {
                    Ok(r) => r,
                    Err(skip) => break 'cpr (skip, None),
                };
                after(IcbmPhase::Restructure, func)?;
                // Restructure and motion edit exactly the CPR block and its
                // compensation block.
                phase("icbm.liveness", || live.repair(func, &r.touched_blocks()));
                let moved = phase("icbm.motion", || off_trace_motion(func, &r, &live));
                if let Err(skip) = moved {
                    break 'cpr (skip, Some(r.comp));
                }
                phase("icbm.liveness", || live.repair(func, &r.touched_blocks()));
                stats.cpr_blocks += 1;
                if r.taken_variation {
                    stats.taken_blocks += 1;
                }
                stats.branches_collapsed += cpr.branches.len();
                after(IcbmPhase::Motion, func)?;
                continue 'cprs;
            };
            stats.skipped += 1;
            skip.counter().inc();
            if let Some(comp) = undo {
                // Roll the restructure back: restore the hyperblock and
                // detach the compensation block from the layout.
                func.block_mut(hb).ops = saved_ops;
                func.set_layout(func.layout().iter().copied().filter(|&b| b != comp).collect());
                phase("icbm.liveness", || live.restore_summary(func, saved_summary));
                after(IcbmPhase::Rollback(skip), func)?;
            }
        }
    }

    stats.dce_removed = phase("icbm.dce", || dce(func, &mut live));
    after(IcbmPhase::DceFinal, func)?;
    Ok(stats)
}

/// Runs `f` inside a trace span `name` of the `icbm` category. The spans
/// land in the global tracer (inert single-atomic-load guards while tracing
/// is disabled), so a `--trace` export breaks the icbm pipeline stage down
/// into its speculate/match/restructure/motion/dce phases.
fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = Span::enter(name, "icbm");
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{BlockId, CmpCond, FunctionBuilder, Operand};
    use epic_interp::{diff_test, run, Input};

    /// Builds the full pre-ICBM pipeline shape by hand: an FRP-converted,
    /// unrolled string-scan superblock with a hot back edge.
    fn workload() -> (Function, epic_ir::Reg, BlockId) {
        let mut fb = FunctionBuilder::new("scan");
        let sb = fb.block("sb");
        let exit = fb.block("exit");
        fb.switch_to(exit);
        fb.ret();
        fb.switch_to(sb);
        let a = fb.reg();
        let mut guard = None;
        for k in 0..3i64 {
            fb.set_guard(None);
            let addr = fb.add(a.into(), Operand::Imm(k));
            fb.set_alias_class(Some(1));
            let v = fb.load(addr);
            fb.set_alias_class(Some(2));
            fb.set_guard(guard);
            let (t, f_) = fb.cmpp_un_uc(CmpCond::Eq, v.into(), Operand::Imm(0));
            fb.branch_if(t, exit);
            fb.set_guard(Some(f_));
            let d = fb.add(addr.into(), Operand::Imm(100));
            fb.store(d, v.into());
            guard = Some(f_);
        }
        // Back edge: continue while the next element is non-zero. As in the
        // paper's Figure 6(b), the advanced pointer is computed into a fresh
        // register (speculatively) and committed separately, so the
        // back-edge compare chain stays separable.
        fb.set_guard(None);
        let a2 = fb.add(a.into(), Operand::Imm(3));
        fb.set_alias_class(Some(1));
        let probe = fb.load(a2);
        fb.set_alias_class(None);
        fb.set_guard(guard);
        fb.mov_to(a, a2.into());
        let (cont, _stop) = fb.cmpp_un_uc(CmpCond::Ne, probe.into(), Operand::Imm(0));
        fb.branch_if(cont, sb);
        fb.set_guard(None);
        fb.ret();
        (fb.finish(), a, sb)
    }

    fn training_input(a: epic_ir::Reg) -> Input {
        let mut image = vec![3i64; 60];
        image.push(0);
        image.resize(200, 0);
        Input::new().memory_size(200).with_memory(0, &image).with_reg(a, 0)
    }

    #[test]
    fn end_to_end_transforms_and_preserves_semantics() {
        let (f, a, sb) = workload();
        let profile = run(&f, &training_input(a)).unwrap().profile;
        let mut g = f.clone();
        let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
        let stats = apply_icbm(&mut g, &profile, &cfg);
        assert!(stats.cpr_blocks >= 1, "{stats:?}\n{g}");
        assert!(stats.branches_collapsed >= 2);
        epic_ir::verify(&g).unwrap();
        // Differential test on many images, including ones that exercise
        // every early exit.
        for zero_at in 0..8usize {
            let mut image = vec![2i64; 24];
            image[zero_at] = 0;
            image.resize(200, 7);
            let input = Input::new().memory_size(200).with_memory(0, &image).with_reg(a, 0);
            diff_test(&f, &g, &input).unwrap();
        }
        diff_test(&f, &g, &training_input(a)).unwrap();
        let _ = sb;
    }

    #[test]
    fn reduces_dynamic_branches_on_trace() {
        let (f, a, sb) = workload();
        let profile = run(&f, &training_input(a)).unwrap().profile;
        let mut g = f.clone();
        let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
        apply_icbm(&mut g, &profile, &cfg);
        let base = run(&f, &training_input(a)).unwrap();
        let opt = run(&g, &training_input(a)).unwrap();
        assert!(
            opt.dynamic_branches < base.dynamic_branches,
            "branches: {} -> {}",
            base.dynamic_branches,
            opt.dynamic_branches
        );
        assert!(opt.dynamic_ops <= base.dynamic_ops, "irredundant on-trace code");
        let _ = sb;
    }

    #[test]
    fn taken_variation_used_for_hot_back_edge() {
        let (f, a, _sb) = workload();
        let profile = run(&f, &training_input(a)).unwrap().profile;
        let mut g = f.clone();
        let cfg = CprConfig {
            min_entry_count: 1,
            // Group all 4 branches into one block; the final back edge is
            // ~95% taken → taken variation.
            exit_weight_threshold: 1.0,
            ..CprConfig::default()
        };
        let stats = apply_icbm(&mut g, &profile, &cfg);
        assert!(stats.taken_blocks >= 1, "{stats:?}\n{g}");
        diff_test(&f, &g, &training_input(a)).unwrap();
    }

    #[test]
    fn cold_code_is_untouched() {
        let (f, a, _sb) = workload();
        let profile = run(&f, &training_input(a)).unwrap().profile;
        let mut g = f.clone();
        let cfg = CprConfig { min_entry_count: u64::MAX, speculate: false, ..CprConfig::default() };
        let stats = apply_icbm(&mut g, &profile, &cfg);
        assert_eq!(stats.cpr_blocks, 0);
        assert_eq!(f.static_op_count(), g.static_op_count());
    }

    #[test]
    fn on_trace_branch_height_shrinks() {
        use epic_machine::Machine;
        use epic_sched::{schedule_function, SchedOptions};
        let (f, a, sb) = workload();
        let profile = run(&f, &training_input(a)).unwrap().profile;
        let mut g = f.clone();
        let cfg = CprConfig { min_entry_count: 1, ..CprConfig::default() };
        apply_icbm(&mut g, &profile, &cfg);
        let m = Machine::infinite();
        let base = schedule_function(&f, &m, &SchedOptions::default());
        let opt = schedule_function(&g, &m, &SchedOptions::default());
        // The transformed on-trace hyperblock is at least as short, and the
        // infinite machine should expose a real height reduction.
        assert!(
            opt.block(sb).length <= base.block(sb).length,
            "on-trace: {} vs {}",
            opt.block(sb).length,
            base.block(sb).length
        );
    }

    #[test]
    fn stats_default_is_zeroed() {
        assert_eq!(IcbmStats::default().cpr_blocks, 0);
    }

    /// An unguarded live-out definition between two exit branches:
    /// restructure succeeds, but motion must refuse to speculate the
    /// definition, so the driver rolls the CPR block back.
    fn motion_refusal() -> Function {
        let mut b = FunctionBuilder::new("refusal");
        let sb = b.block("sb");
        let exit = b.block("exit");
        let (x, y, out) = (b.reg(), b.reg(), b.reg());
        b.switch_to(exit);
        b.ret();
        b.switch_to(sb);
        let (p1, _) = b.cmpp_un_uc(CmpCond::Le, x.into(), Operand::Imm(16));
        b.branch_if(p1, exit);
        b.mov_to(out, Operand::Imm(-2));
        let (p2, _) = b.cmpp_un_uc(CmpCond::Lt, y.into(), Operand::Imm(9));
        b.branch_if(p2, exit);
        b.ret();
        b.mark_live_out(out);
        b.finish()
    }

    fn refusal_cfg() -> CprConfig {
        CprConfig { enable_taken_variation: false, min_entry_count: 0, ..CprConfig::uniform() }
    }

    #[test]
    fn observer_sees_every_phase_in_order() {
        let mut g = motion_refusal();
        let mut phases = Vec::new();
        let stats = apply_icbm_observed(&mut g, &Profile::new(), &refusal_cfg(), |phase, _| {
            phases.push(phase);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!((stats.cpr_blocks, stats.skipped), (0, 1), "{stats:?}");
        // The one CPR block restructures, motion refuses to run the
        // live-out definition between its branches speculatively, and the
        // rollback carries that refusal.
        use IcbmPhase::*;
        let rollback = Rollback(Skip::SpeculativeOnTrace);
        assert_eq!(phases, [Speculate, Restructure, rollback, DceFinal]);
    }

    #[test]
    fn observer_error_stops_the_run() {
        let mut g = motion_refusal();
        let mut phases = Vec::new();
        let err = apply_icbm_observed(&mut g, &Profile::new(), &refusal_cfg(), |phase, _| {
            phases.push(phase);
            if phase == IcbmPhase::Restructure {
                Err(phase.name())
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err("restructure"));
        assert_eq!(phases, [IcbmPhase::Speculate, IcbmPhase::Restructure]);
    }

    #[test]
    fn disabled_cpr_leaves_the_function_untouched() {
        let (f, a, _) = workload();
        let profile = run(&f, &training_input(a)).unwrap().profile;
        let mut g = f.clone();
        let cfg = CprConfig { enable: false, min_entry_count: 1, ..CprConfig::default() };
        let stats = apply_icbm(&mut g, &profile, &cfg);
        assert_eq!(stats, IcbmStats::default());
        assert_eq!(g.to_string(), f.to_string());
    }
}
