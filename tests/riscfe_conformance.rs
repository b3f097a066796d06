//! Differential conformance for the RISC-lite frontend.
//!
//! The oracle chain is: RISC-lite reference interpreter == translated IR
//! == compiled baseline == height-reduced optimized code, on every input.
//! The first link is `epic_riscfe::conformance_check` (memory word-for-word
//! plus every architectural live-out register); the later links reuse it
//! against the `Pipeline` outputs, so a failure names which side of the
//! compiler broke the source semantics.
//!
//! Coverage: all six fixed-seed corpus programs (1k–10k ops), plus
//! hand-ported RISC-lite twins of the paper's pointer-chasing workloads
//! (strcpy/cmp/wc-shaped loops). The ≥5k-op acceptance gate —
//! `corpus.chain.6k` end-to-end through Pipeline + schedcheck with
//! estimate == replay — is `large_corpus_compiles_and_schedules_exactly`.

use epic_bench::{compile, PipelineConfig};
use epic_interp::Input;
use epic_machine::Machine;
use epic_riscfe::{assemble, conformance_check, fixed_corpus, translate, RiscProgram};
use epic_workloads::Workload;

/// Translates, compiles, and checks the full oracle chain for one RISC
/// program over `inputs`. `unroll` matches the corpus workloads' setting.
fn check_chain(prog: &RiscProgram, inputs: &[Input], unroll: u32) {
    let name = prog.name.clone();
    let func = translate(prog);
    epic_ir::verify(&func).unwrap_or_else(|e| panic!("{name}: translated IR invalid: {e}"));
    for (k, input) in inputs.iter().enumerate() {
        conformance_check(prog, &func, input)
            .unwrap_or_else(|e| panic!("{name}: RISC vs translated IR on input {k}: {e}"));
    }
    let w = Workload {
        name: "riscfe-twin",
        group: epic_workloads::Group::Corpus,
        func,
        training: inputs[0].clone(),
        evaluation: inputs[1..].to_vec(),
        unroll,
    };
    let c = compile(&w, &PipelineConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    for (k, input) in inputs.iter().enumerate() {
        conformance_check(prog, &c.baseline, input)
            .unwrap_or_else(|e| panic!("{name}: RISC vs compiled baseline on input {k}: {e}"));
        conformance_check(prog, &c.optimized, input)
            .unwrap_or_else(|e| panic!("{name}: RISC vs optimized on input {k}: {e}"));
    }
}

/// Every fixed-seed corpus program: the RISC-lite interpreter and the
/// translated IR agree on all observable state, on every input.
#[test]
fn corpus_translation_conforms_on_all_inputs() {
    for cp in fixed_corpus() {
        let func = translate(&cp.prog);
        for (k, input) in cp.inputs.iter().enumerate() {
            conformance_check(&cp.prog, &func, input)
                .unwrap_or_else(|e| panic!("{}: input {k}: {e}", cp.name));
        }
    }
}

/// The mid-size corpus tier survives the full staged pipeline with source
/// semantics intact: RISC == baseline == optimized on every input.
#[test]
fn corpus_small_tier_conforms_through_the_pipeline() {
    for cp in fixed_corpus() {
        if !["corpus.chain.1k", "corpus.diamond.1k", "corpus.loops.2k"].contains(&cp.name.as_str())
        {
            continue;
        }
        check_chain(&cp.prog, &cp.inputs, 2);
    }
}

/// The acceptance gate for the large tier: a ≥5k-op corpus program
/// compiles end-to-end, its RISC-lite source semantics survive both
/// compiled functions, and the independent schedule checker plus the
/// cycle-accurate replay oracle (estimate == replay, exactly) pass.
#[test]
fn large_corpus_compiles_and_schedules_exactly() {
    let w = epic_workloads::by_name("corpus.chain.6k").expect("corpus workload registered");
    let cp = fixed_corpus().into_iter().find(|c| c.name == "corpus.chain.6k").unwrap();
    let ops: usize = w.func.layout().iter().map(|&b| w.func.block(b).ops.len()).sum();
    assert!(ops >= 5_000, "large-tier program shrank below the gate: {ops} ops");

    let c = compile(&w, &PipelineConfig::default()).unwrap_or_else(|e| panic!("{e}"));
    for (k, input) in cp.inputs.iter().enumerate() {
        conformance_check(&cp.prog, &c.baseline, input)
            .unwrap_or_else(|e| panic!("baseline input {k}: {e}"));
        conformance_check(&cp.prog, &c.optimized, input)
            .unwrap_or_else(|e| panic!("optimized input {k}: {e}"));
    }
    epic_bench::check_workload_schedules(&w, &c, &[Machine::medium()])
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The 10k-op program also holds the full chain — the largest function the
/// repo compiles anywhere.
#[test]
fn ten_k_corpus_conforms_through_the_pipeline() {
    let cp = fixed_corpus().into_iter().find(|c| c.name == "corpus.mixed.10k").unwrap();
    check_chain(&cp.prog, &cp.inputs, 2);
}

// --- Hand-ported RISC-lite twins of paper workloads -----------------------
//
// Same loop shapes as the hand-built IR workloads (pointer chase until
// sentinel, early-exit compare, flag-driven counting), written in RISC-lite
// assembly and pushed through the identical oracle chain. These prove the
// frontend is usable for real programs, not just generator output.

/// strcpy twin: copy words from `r0` to `r1` until a zero terminator,
/// counting copied words into r3.
#[test]
fn strcpy_twin_conforms() {
    let text = "\
# strcpy: copy r0[] to r1[] until zero, r3 = length
    li r3, 0
loop:
    lw.c1 r4, 0(r0)
    sw.c2 r4, 0(r1)
    beq r4, 0, done
    add r0, r0, 1
    add r1, r1, 1
    add r3, r3, 1
    j loop
done:
    halt
";
    let prog = assemble("strcpy_twin", text).expect("twin assembles");
    let inputs = twin_inputs(&[(0, 0), (1, 40)], |mem| {
        for (i, w) in mem.iter_mut().enumerate().take(12) {
            *w = i64::try_from(i).unwrap() % 5 + 1;
        }
        mem[12] = 0;
    });
    check_chain(&prog, &inputs, 2);
}

/// cmp twin: compare r0[] and r1[] for r2 words, r3 = first difference
/// index or -1.
#[test]
fn cmp_twin_conforms() {
    let text = "\
# cmp: r3 = index of first mismatch between r0[] and r1[], else -1
    li r3, 0
loop:
    bge r3, r2, equal
    lw.c1 r4, 0(r0)
    lw.c2 r5, 0(r1)
    bne r4, r5, done
    add r0, r0, 1
    add r1, r1, 1
    add r3, r3, 1
    j loop
equal:
    li r3, -1
done:
    sw r3, 90(r6)
    halt
";
    let prog = assemble("cmp_twin", text).expect("twin assembles");
    // The base image is equal (the `equal` exit runs); the perturbed
    // variant diverges at index 0 (the mismatch exit runs).
    let inputs = twin_inputs(&[(0, 0), (1, 40), (2, 16), (6, 0)], |mem| {
        for i in 0..16 {
            mem[i] = i64::try_from(i).unwrap();
            mem[40 + i] = i64::try_from(i).unwrap();
        }
    });
    check_chain(&prog, &inputs, 2);
}

/// wc twin: count words (runs of nonzero) in r0[] of length r1; the
/// in-word flag lives in a register, like the paper's wc inner loop.
#[test]
fn wc_twin_conforms() {
    let text = "\
# wc: r4 = word count of r0[0..r1), r3 = in-word flag
    li r3, 0
    li r4, 0
    li r5, 0
loop:
    bge r5, r1, done
    lw.c1 r2, 0(r0)
    beq r2, 0, gap
    bne r3, 0, next
    add r4, r4, 1
    li r3, 1
    j next
gap:
    li r3, 0
next:
    add r0, r0, 1
    add r5, r5, 1
    j loop
done:
    sw r4, 120(r6)
    halt
";
    let prog = assemble("wc_twin", text).expect("twin assembles");
    let inputs = twin_inputs(&[(0, 0), (1, 24), (6, 0)], |mem| {
        for (i, w) in [1, 1, 0, 2, 0, 0, 3, 3, 3, 0, 1, 0].iter().enumerate() {
            mem[i] = *w;
            mem[12 + i] = *w;
        }
    });
    check_chain(&prog, &inputs, 2);
}

/// Builds three input variants for a twin: the seeded image from `fill`,
/// plus perturbed copies so evaluation inputs exercise different paths.
fn twin_inputs(regs: &[(u32, i64)], fill: impl Fn(&mut [i64])) -> Vec<Input> {
    let mut base = vec![0i64; 160];
    fill(&mut base);
    (0..3)
        .map(|variant| {
            let mut mem = base.clone();
            if variant == 1 {
                for w in mem.iter_mut().take(8) {
                    *w = (*w + 1) % 4;
                }
            }
            if variant == 2 {
                mem[0] = 0;
            }
            let mut input = Input::new().memory_size(160).with_memory(0, &mem);
            for &(r, v) in regs {
                input = input.with_reg(epic_ir::Reg(r), v);
            }
            input
        })
        .collect()
}
