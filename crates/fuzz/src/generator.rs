//! Seed-deterministic generation of verifier-clean, trap-free, terminating
//! predicated programs.
//!
//! Every generated function satisfies three invariants the differential
//! harness relies on:
//!
//! 1. **Verifier-clean** — the output passes [`epic_ir::verify`]; the smoke
//!    test treats a violation as a generator bug ("generate" stage).
//! 2. **Trap-free** — memory addresses are masked into the image bounds
//!    right before each access, divisors are nonzero immediates, and all
//!    arithmetic is the interpreter's wrapping arithmetic, so the reference
//!    run can only trap by running out of fuel.
//! 3. **Terminating** — every branch is either *forward* (to a
//!    strictly-later layout block) or a *counted* back edge guarded by a
//!    dedicated counter register that is incremented unguarded and never
//!    written by any other generated operation.
//!
//! The control shape is the one the pipeline is built for: an entry block, a
//! chain of body blocks with biased side exits and counted self-loops
//! (superblock formation and unrolling fodder), one optional counted outer
//! back edge (nested-loop fodder), and a shared exit block. Data flows
//! through a pool of mutable registers plus a handful of read-only input
//! registers randomized per [`Input`], and a random subset of registers is
//! designated live-out so register results are observable to the oracle
//! even in store-free programs.

use control_cpr::CprConfig;
use epic_bench::{ConfigDelta, KnobSpace, KnobValue, PipelineConfig};
use epic_interp::Input;
use epic_ir::{BlockId, CmpCond, Dest, Function, FunctionBuilder, Opcode, Operand, PredReg, Reg};
use epic_regions::{MeldConfig, TraceConfig};
use epic_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size of the memory image every generated program runs against.
pub const MEM_WORDS: usize = 64;
const ADDR_MASK: i64 = (MEM_WORDS - 1) as i64;

/// One generated fuzz case: the program, the inputs it is exercised on, and
/// the (randomized) pipeline configuration it is pushed through.
#[derive(Clone, Debug)]
pub struct GenCase {
    /// The seed this case was generated from.
    pub seed: u64,
    /// The generated source program.
    pub func: Function,
    /// Differential-test inputs; `inputs[0]` doubles as the training input
    /// that produces the profiles driving the profile-guided stages.
    pub inputs: Vec<Input>,
    /// Whether the optional if-conversion stage runs for this case.
    pub use_if_convert: bool,
    /// Parameters for the optional melding stage; `None` skips it.
    pub meld: Option<MeldConfig>,
    /// Unroll factor passed to `unroll_hot_loops`.
    pub unroll_factor: u32,
    /// Superblock-formation parameters.
    pub trace: TraceConfig,
    /// ICBM parameters.
    pub cpr: CprConfig,
}

impl GenCase {
    /// The case that pushes a suite workload through the harness under
    /// `cfg`: its training input first, then its evaluation inputs. The
    /// optional if-conversion stage runs with default parameters when
    /// `cfg` enables it.
    pub fn from_workload(w: &Workload, cfg: &PipelineConfig) -> GenCase {
        GenCase {
            seed: 0,
            func: w.func.clone(),
            inputs: std::iter::once(&w.training).chain(&w.evaluation).cloned().collect(),
            use_if_convert: cfg.if_convert.is_some(),
            meld: cfg.meld,
            unroll_factor: w.unroll,
            trace: cfg.trace,
            cpr: cfg.cpr,
        }
    }
}

struct Gen {
    rng: StdRng,
    b: FunctionBuilder,
    /// Read-only registers initialized from the [`Input`].
    input_regs: Vec<Reg>,
    /// Registers random operations may overwrite.
    muts: Vec<Reg>,
    /// Predicates defined earlier in the current block.
    avail_preds: Vec<PredReg>,
}

impl Gen {
    fn small_imm(&mut self) -> i64 {
        self.rng.gen_range(-16i64..=16)
    }

    fn cond(&mut self) -> CmpCond {
        match self.rng.gen_range(0u32..6) {
            0 => CmpCond::Eq,
            1 => CmpCond::Ne,
            2 => CmpCond::Lt,
            3 => CmpCond::Le,
            4 => CmpCond::Gt,
            _ => CmpCond::Ge,
        }
    }

    /// A random readable register (input or mutable pool).
    fn any_reg(&mut self) -> Reg {
        let n = self.input_regs.len() + self.muts.len();
        let k = self.rng.gen_range(0..n);
        if k < self.input_regs.len() {
            self.input_regs[k]
        } else {
            self.muts[k - self.input_regs.len()]
        }
    }

    fn operand(&mut self) -> Operand {
        if self.rng.gen_range(0u32..4) == 0 {
            Operand::Imm(self.small_imm())
        } else {
            Operand::Reg(self.any_reg())
        }
    }

    /// Destination for a value-producing op: usually a fresh register
    /// (added to the pool), sometimes an overwrite of an existing one.
    fn dest(&mut self) -> Reg {
        if self.rng.gen_range(0u32..10) < 7 {
            let r = self.b.reg();
            self.muts.push(r);
            r
        } else {
            let k = self.rng.gen_range(0..self.muts.len());
            self.muts[k]
        }
    }

    /// Picks the guard for the next operation: `None` most of the time,
    /// otherwise a predicate defined earlier in this block.
    fn pick_guard(&mut self) -> Option<PredReg> {
        if !self.avail_preds.is_empty() && self.rng.gen_range(0u32..10) < 4 {
            let k = self.rng.gen_range(0..self.avail_preds.len());
            Some(self.avail_preds[k])
        } else {
            None
        }
    }

    /// Emits one random straight-line operation under a random guard.
    fn random_op(&mut self) {
        let g = self.pick_guard();
        self.b.set_guard(g);
        match self.rng.gen_range(0u32..10) {
            0..=3 => {
                let opcode = match self.rng.gen_range(0u32..6) {
                    0 => Opcode::Add,
                    1 => Opcode::Sub,
                    2 => Opcode::Mul,
                    3 => Opcode::And,
                    4 => Opcode::Or,
                    _ => Opcode::Xor,
                };
                let (a, c) = (self.operand(), self.operand());
                let d = self.dest();
                self.b.emit(opcode, vec![Dest::Reg(d)], vec![a, c]);
            }
            4 => {
                // Shift amounts are immediates; the interpreter's wrapping
                // shifts would tolerate register amounts too, but small
                // immediate shifts keep values in a range comparisons bite
                // on.
                let opcode = if self.rng.gen_range(0u32..2) == 0 { Opcode::Shl } else { Opcode::Shr };
                let a = self.operand();
                let amt = Operand::Imm(self.rng.gen_range(0i64..=7));
                let d = self.dest();
                self.b.emit(opcode, vec![Dest::Reg(d)], vec![a, amt]);
            }
            5 => {
                // Trap-freedom: divisors are nonzero immediates (the
                // interpreter uses wrapping division, so MIN/-1 is fine).
                let opcode = if self.rng.gen_range(0u32..2) == 0 { Opcode::Div } else { Opcode::Rem };
                let a = self.operand();
                let mut k = self.rng.gen_range(-9i64..=9);
                if k == 0 {
                    k = 3;
                }
                let d = self.dest();
                self.b.emit(opcode, vec![Dest::Reg(d)], vec![a, Operand::Imm(k)]);
            }
            6 => {
                let a = self.operand();
                let d = self.dest();
                self.b.emit(Opcode::Mov, vec![Dest::Reg(d)], vec![a]);
            }
            7 => {
                // Trap-freedom: the address is masked into bounds by an
                // `and` emitted under the same guard. If the guard is
                // false both ops are skipped; the fresh address register
                // then still holds its initial 0, also in bounds.
                let a = self.operand();
                let addr = self.b.and(a, Operand::Imm(ADDR_MASK));
                let v = self.b.load(addr);
                self.muts.push(v);
            }
            8 => {
                let a = self.operand();
                let v = self.operand();
                let addr = self.b.and(a, Operand::Imm(ADDR_MASK));
                self.b.store(addr, v);
            }
            _ => {
                let (a, c) = (self.operand(), self.operand());
                let cond = self.cond();
                let (t, f) = self.b.cmpp_un_uc(cond, a, c);
                // UN/UC destinations are written whether or not the guard
                // holds, so both predicates are defined from here on.
                self.avail_preds.push(t);
                self.avail_preds.push(f);
            }
        }
        self.b.set_guard(None);
    }

    /// Emits a forward side exit: a fresh (or reused) compare and a branch
    /// to a strictly-later layout block.
    fn side_exit(&mut self, targets: &[BlockId]) {
        self.b.set_guard(None);
        let p = if !self.avail_preds.is_empty() && self.rng.gen_range(0u32..2) == 0 {
            let k = self.rng.gen_range(0..self.avail_preds.len());
            self.avail_preds[k]
        } else {
            let (a, c) = (self.operand(), self.operand());
            let cond = self.cond();
            let (t, f) = self.b.cmpp_un_uc(cond, a, c);
            self.avail_preds.push(t);
            self.avail_preds.push(f);
            t
        };
        let tgt = targets[self.rng.gen_range(0..targets.len())];
        self.b.branch_if(p, tgt);
    }

    /// Emits the counted back edge `if (++counter < iters) goto target`.
    /// Unguarded, so the counter strictly increases on every visit.
    fn counted_backedge(&mut self, counter: Reg, iters: i64, target: BlockId) {
        self.b.set_guard(None);
        self.b.emit(
            Opcode::Add,
            vec![Dest::Reg(counter)],
            vec![Operand::Reg(counter), Operand::Imm(1)],
        );
        let (t, _f) = self.b.cmpp_un_uc(CmpCond::Lt, Operand::Reg(counter), Operand::Imm(iters));
        self.b.branch_if(t, target);
    }
}

/// Generates the fuzz case for `seed`. Deterministic: the same seed always
/// yields the same program, inputs, and pipeline configuration.
pub fn generate(seed: u64) -> GenCase {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        b: FunctionBuilder::new(format!("fuzz_{seed}")),
        input_regs: Vec::new(),
        muts: Vec::new(),
        avail_preds: Vec::new(),
    };

    let n_body = g.rng.gen_range(2usize..=5);
    let entry = g.b.block("entry");
    let body: Vec<BlockId> = (0..n_body).map(|i| g.b.block(format!("b{i}"))).collect();
    let exit = g.b.block("exit");

    // Loop plan. Counter registers are allocated here and never handed to
    // the mutable pool, so only their dedicated unguarded increments and
    // resets ever write them — the termination argument rests on this.
    let self_loops: Vec<Option<(Reg, i64)>> = (0..n_body)
        .map(|_| {
            if g.rng.gen_range(0u32..10) < 4 {
                let c = g.b.reg();
                let iters = g.rng.gen_range(1i64..=20);
                Some((c, iters))
            } else {
                None
            }
        })
        .collect();
    let outer: Option<(Reg, i64)> = if g.rng.gen_range(0u32..10) < 4 {
        let c = g.b.reg();
        Some((c, g.rng.gen_range(2i64..=5)))
    } else {
        None
    };

    for _ in 0..g.rng.gen_range(2usize..=4) {
        let r = g.b.reg();
        g.input_regs.push(r);
    }

    // Entry: initialize the mutable pool and the counters whose loops can
    // be reached before any body block runs.
    g.b.switch_to(entry);
    for _ in 0..g.rng.gen_range(3usize..=5) {
        let v = g.rng.gen_range(-8i64..=8);
        let r = g.b.movi(v);
        g.muts.push(r);
    }
    if let Some((c, _)) = outer {
        g.b.mov_to(c, Operand::Imm(0));
    }
    if let Some(Some((c, _))) = self_loops.first() {
        g.b.mov_to(*c, Operand::Imm(0));
    }
    for _ in 0..g.rng.gen_range(1usize..=3) {
        g.random_op();
    }
    if g.rng.gen_range(0u32..4) == 0 {
        let targets: Vec<BlockId> = body.iter().copied().skip(1).chain([exit]).collect();
        g.side_exit(&targets);
    }

    // Body chain.
    for i in 0..n_body {
        g.b.switch_to(body[i]);
        g.avail_preds.clear();
        let later: Vec<BlockId> = body.iter().copied().skip(i + 1).chain([exit]).collect();
        for _ in 0..g.rng.gen_range(3usize..=8) {
            if g.rng.gen_range(0u32..5) == 0 {
                g.side_exit(&later);
            } else {
                g.random_op();
            }
        }
        // Reset the next block's loop counter here, outside that loop's
        // body, so re-entry from the outer back edge re-runs the inner
        // loop from zero.
        if let Some(Some((c, _))) = self_loops.get(i + 1) {
            g.b.set_guard(None);
            g.b.mov_to(*c, Operand::Imm(0));
        }
        if let Some((c, iters)) = self_loops[i] {
            g.counted_backedge(c, iters, body[i]);
        }
        if i == n_body - 1 {
            if let Some((c, iters)) = outer {
                g.counted_backedge(c, iters, body[0]);
            }
        }
    }

    // Exit: one unconditional observable store, then return.
    g.b.switch_to(exit);
    g.b.set_guard(None);
    let a = g.b.movi(ADDR_MASK);
    let v = g.any_reg();
    g.b.store(a, Operand::Reg(v));
    g.b.ret();

    // Designate live-outs so register results are observable even where
    // stores are dead or absent.
    for _ in 0..g.rng.gen_range(1usize..=3) {
        let r = g.any_reg();
        g.b.mark_live_out(r);
    }

    let func = g.b.finish();

    let inputs: Vec<Input> = (0..3)
        .map(|_| {
            let image: Vec<i64> = (0..MEM_WORDS).map(|_| g.rng.gen_range(-4i64..=4)).collect();
            let mut input = Input::new().memory_size(MEM_WORDS).with_memory(0, &image);
            for &r in &g.input_regs {
                let v = g.rng.gen_range(-32i64..=32);
                input = input.with_reg(r, v);
            }
            input
        })
        .collect();

    // Config sampling goes through the knob registry — the same named,
    // validated assignment path the tuner and the serve override parser
    // use — so a fuzz config can never drift outside the documented knob
    // space. The sampled values and RNG call order are unchanged.
    let space = KnobSpace::global();
    let mut delta = ConfigDelta::new();
    let knob = |d: &mut ConfigDelta, name: &str, v: KnobValue| {
        d.set(space, name, v).unwrap_or_else(|e| panic!("fuzz config knob: {e}"))
    };
    let f = KnobValue::F64;
    let u = KnobValue::U64;
    knob(&mut delta, "trace.min_prob", f([0.5, 0.65, 0.8][g.rng.gen_range(0usize..3)]));
    knob(&mut delta, "trace.max_ops", u(400));
    knob(&mut delta, "trace.min_count", u([1, 2, 8][g.rng.gen_range(0usize..3)]));
    knob(&mut delta, "cpr.min_entry_count", u(1));
    knob(
        &mut delta,
        "cpr.exit_weight_threshold",
        f([0.35, 0.7, 1.0][g.rng.gen_range(0usize..3)]),
    );
    knob(
        &mut delta,
        "cpr.enable_taken_variation",
        KnobValue::Bool(g.rng.gen_range(0u32..2) == 0),
    );
    let tuned = delta.apply(space);
    let (trace, cpr) = (tuned.pipeline.trace, tuned.pipeline.cpr);

    let use_if_convert = g.rng.gen_range(0u32..10) < 3;
    let unroll_factor = g.rng.gen_range(2u32..=4);
    // Melding draws come *after* every pre-existing draw so older seeds
    // keep generating the exact program and configuration they always did;
    // the new draws only extend the stream.
    let meld = if g.rng.gen_range(0u32..10) < 3 {
        let mut d = ConfigDelta::new();
        knob(&mut d, "meld.enable", KnobValue::Bool(true));
        knob(&mut d, "meld.max_ops", u([8, 24, 48][g.rng.gen_range(0usize..3)]));
        d.apply(space).pipeline.meld
    } else {
        None
    };

    GenCase {
        seed,
        func,
        inputs,
        use_if_convert,
        meld,
        unroll_factor,
        trace,
        cpr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_interp::run;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.func.to_string(), b.func.to_string());
        assert_eq!(a.use_if_convert, b.use_if_convert);
        assert_eq!(a.meld.is_some(), b.meld.is_some());
        assert_eq!(a.meld.map(|m| m.max_ops), b.meld.map(|m| m.max_ops));
        assert_eq!(a.unroll_factor, b.unroll_factor);
    }

    #[test]
    fn meld_cases_are_sampled() {
        // Roughly 30% of cases should carry a meld config; with 64 seeds
        // both outcomes must occur.
        let on = (0..64).filter(|&s| generate(s).meld.is_some()).count();
        assert!(on > 0, "no melding case in 64 seeds");
        assert!(on < 64, "every case melds");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1).func.to_string(), generate(2).func.to_string());
    }

    #[test]
    fn generated_programs_verify_and_run_trap_free() {
        for seed in 0..64 {
            let case = generate(seed);
            epic_ir::verify(&case.func)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", case.func));
            for (k, input) in case.inputs.iter().enumerate() {
                run(&case.func, input).unwrap_or_else(|t| {
                    panic!("seed {seed} input {k} trapped: {t}\n{}", case.func)
                });
            }
        }
    }

    #[test]
    fn generated_programs_have_observables() {
        for seed in 0..16 {
            let case = generate(seed);
            assert!(!case.func.live_outs().is_empty(), "seed {seed}");
        }
    }
}
