//! # epic-workloads
//!
//! The benchmark suite for the Control CPR reproduction.
//!
//! The paper evaluates on SPEC-92/95 applications and Unix utilities
//! compiled by IMPACT into superblock code. Neither the binaries nor the
//! toolchain are available, so each benchmark is modeled as a *synthetic IR
//! program* that reproduces the properties control CPR is sensitive to:
//! the length of consecutive-branch chains, the branch bias structure
//! (driven by real, seeded input data), the separability of branch-condition
//! computation, and the operation mix (integer / floating / memory). The
//! programs are executed by `epic-interp` on their training inputs, so every
//! profile and dynamic count in the experiments is measured, not assumed.
//!
//! Ten program **shapes** cover the behavioural space (see [`shapes`]);
//! the 26 named workloads instantiate them with per-benchmark parameters
//! and data distributions:
//!
//! | shape | benchmarks modeled |
//! |---|---|
//! | sentinel scan/copy | `strcpy`, `cmp` |
//! | full-diamond partition walk | `sort`, `diff` |
//! | character-class chain | `wc`, `cccp`, `eqn`, `tbl` |
//! | substring search | `grep` |
//! | DFA/scanner loop | `lex` |
//! | shift/reduce table walk | `yacc` |
//! | hash/match compress loop | `026.compress`, `129.compress` |
//! | numeric kernel with clamps | `056.ear`, `132.ijpeg` |
//! | unbiased decision walk | `099.go` |
//! | mixed integer application | `008.espresso`, `022.li`, `023.eqntott`, `072.sc`, `085.cc1`, `124.m88ksim`, `126.gcc`, `130.li`, `134.perl`, `147.vortex` |
//!
//! ```
//! let suite = epic_workloads::all();
//! assert_eq!(suite.len(), 26);
//! let strcpy = epic_workloads::by_name("strcpy").unwrap();
//! let out = epic_interp::run(&strcpy.func, &strcpy.training).unwrap();
//! assert!(out.dynamic_ops > 0);
//! ```

pub mod corpus;
pub mod data;
pub mod shapes;

pub use corpus::{all_with_corpus, corpus};

use epic_interp::Input;
use epic_ir::Function;

/// The benchmark group a workload belongs to (the paper's table grouping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Group {
    /// SPEC-92 applications.
    Spec92,
    /// SPEC-95 applications.
    Spec95,
    /// Unix utilities.
    Unix,
    /// Machine-generated RISC-lite corpus programs (the large tier; not
    /// part of the paper's tables).
    Corpus,
}

/// A runnable benchmark: an IR program plus its training and evaluation
/// inputs.
#[derive(Debug)]
pub struct Workload {
    /// Benchmark name (matches the paper's tables, e.g. `"023.eqntott"`).
    pub name: &'static str,
    /// Table grouping.
    pub group: Group,
    /// The program, straight-line CFG form (pre-region-formation).
    pub func: Function,
    /// The training input used for profiling and for the dynamic counts.
    pub training: Input,
    /// Additional inputs exercising rare paths, used for differential
    /// testing of the compilation pipeline.
    pub evaluation: Vec<Input>,
    /// The unroll factor applied to the hot loop by the pipeline.
    pub unroll: u32,
}

/// The whole suite, in the paper's table order (SPEC-92, SPEC-95, Unix).
pub fn all() -> Vec<Workload> {
    vec![
        shapes::espresso(),
        shapes::li92(),
        shapes::eqntott(),
        shapes::compress92(),
        shapes::ear(),
        shapes::sc(),
        shapes::cc1(),
        shapes::go(),
        shapes::m88ksim(),
        shapes::gcc(),
        shapes::compress95(),
        shapes::li95(),
        shapes::ijpeg(),
        shapes::perl(),
        shapes::vortex(),
        shapes::cccp(),
        shapes::cmp(),
        shapes::diff(),
        shapes::eqn(),
        shapes::grep(),
        shapes::lex(),
        shapes::sort(),
        shapes::strcpy(),
        shapes::tbl(),
        shapes::wc(),
        shapes::yacc(),
    ]
}

/// Looks a workload up by name, searching the paper suite and then the
/// large-tier corpus.
pub fn by_name(name: &str) -> Option<Workload> {
    all()
        .into_iter()
        .find(|w| w.name == name)
        .or_else(|| name.starts_with("corpus.").then(|| corpus::corpus().into_iter().find(|w| w.name == name)).flatten())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_paper_benchmarks_plus_diamond_workloads() {
        // 7 SPEC-92 + 8 SPEC-95 + 11 utilities: the paper's 24 rows (both
        // compress versions are separate, exactly as in Table 2, and the
        // paper lists strcpy among the utilities) plus sort and diff, the
        // diamond-shaped workloads the melding ablation measures.
        let suite = all();
        assert_eq!(suite.len(), 26);
        let spec92 = suite.iter().filter(|w| w.group == Group::Spec92).count();
        let spec95 = suite.iter().filter(|w| w.group == Group::Spec95).count();
        let unix = suite.iter().filter(|w| w.group == Group::Unix).count();
        assert_eq!(spec92, 7);
        assert_eq!(spec95, 8);
        assert_eq!(unix, 11);
    }

    #[test]
    fn names_are_unique() {
        let suite = all();
        let mut names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn every_workload_verifies_and_runs() {
        for w in all() {
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
    fn by_name_finds_and_misses() {
        assert!(by_name("strcpy").is_some());
        assert!(by_name("099.go").is_some());
        assert!(by_name("nonexistent").is_none());
    }
}
