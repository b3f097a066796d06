//! The "large tier": fixed-seed RISC-lite corpus programs as first-class
//! workloads.
//!
//! The 26 paper workloads are hand-built shapes of 12–60 ops; these six
//! corpus programs are machine-generated RISC-lite sources of 1k–10k+
//! instructions (see `epic_riscfe::corpus`), translated into IR by the
//! frontend. They exist to exercise the compile-time asymptotics — ICBM,
//! scheduling, incremental liveness — at realistic function sizes, and to
//! give the tuner a program population it cannot overfit.
//!
//! They are kept *out* of [`crate::all`] so the paper-table suite (and
//! every byte-stable artifact derived from it) is untouched; callers opt
//! in through [`corpus`] or [`all_with_corpus`].

use epic_riscfe::{fixed_corpus, translate};

use crate::{Group, Workload};

/// The fixed corpus workload names, in tier order. Frozen: benchmarks and
/// tables key on them.
pub const CORPUS_NAMES: [&str; 6] = [
    "corpus.chain.1k",
    "corpus.diamond.1k",
    "corpus.loops.2k",
    "corpus.mixed.4k",
    "corpus.chain.6k",
    "corpus.mixed.10k",
];

/// The large-tier suite: the six fixed-seed corpus programs, translated.
pub fn corpus() -> Vec<Workload> {
    let programs = fixed_corpus();
    assert_eq!(programs.len(), CORPUS_NAMES.len());
    programs
        .into_iter()
        .zip(CORPUS_NAMES)
        .map(|(cp, name)| {
            assert_eq!(cp.name, name, "fixed corpus order changed");
            let func = translate(&cp.prog);
            let mut inputs = cp.inputs.into_iter();
            let training = inputs.next().expect("corpus programs have inputs");
            Workload {
                name,
                group: Group::Corpus,
                func,
                training,
                evaluation: inputs.collect(),
                unroll: 2,
            }
        })
        .collect()
}

/// The full suite plus the large tier, for size-scaling experiments.
pub fn all_with_corpus() -> Vec<Workload> {
    let mut suite = crate::all();
    suite.extend(corpus());
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_workloads_verify_and_run() {
        for w in corpus() {
            assert_eq!(w.group, Group::Corpus);
            epic_ir::verify(&w.func).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let out = epic_interp::run(&w.func, &w.training)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(out.dynamic_ops > 1000, "{}: {} ops", w.name, out.dynamic_ops);
            assert!(out.dynamic_branches > 10, "{}", w.name);
            for (k, input) in w.evaluation.iter().enumerate() {
                epic_interp::run(&w.func, input)
                    .unwrap_or_else(|e| panic!("{} eval {k}: {e}", w.name));
            }
        }
    }

    #[test]
    fn corpus_is_opt_in_and_reachable_by_name() {
        assert_eq!(crate::all().len(), 26);
        assert_eq!(all_with_corpus().len(), 32);
        let w = crate::by_name("corpus.mixed.10k").expect("corpus names resolve");
        assert_eq!(w.group, Group::Corpus);
        assert!(crate::by_name("corpus.nonexistent").is_none());
    }

    #[test]
    fn corpus_sizes_span_the_large_tier() {
        let sizes: Vec<usize> = corpus()
            .iter()
            .map(|w| w.func.layout().iter().map(|&b| w.func.block(b).ops.len()).sum())
            .collect();
        assert!(sizes.iter().any(|&s| s >= 10_000), "{sizes:?}");
        assert!(sizes.iter().any(|&s| s >= 5_000), "{sizes:?}");
        assert!(sizes.iter().all(|&s| s >= 1_000), "{sizes:?}");
    }
}
