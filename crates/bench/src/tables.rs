//! Regeneration of the paper's Table 2 and Table 3.
//!
//! One driver per table: [`table2`], [`table3`] and [`meld_matrix`] each
//! take an optional [`CompileCache`]. Workload compilations are
//! independent, so the drivers fan out over workloads with rayon and
//! collect results in input order. The serial reference is the same driver
//! inside a 1-thread pool (`RAYON_NUM_THREADS=1` for the binaries), and
//! the `table_determinism` integration test asserts that any thread count
//! produces byte-identical rows.

use std::time::Instant;

use epic_machine::{Frontend, Machine};
use epic_perf::{geomean, CountRatios};
use epic_regions::MeldConfig;
use epic_workloads::{Group, Workload};
use rayon::prelude::*;

use crate::cache::CompileCache;
use crate::compile::{compile, compile_cached, Compiled, PipelineConfig};
use crate::timing::{stage, PassTimings};

/// Compiles through `cache` when one is given, directly otherwise.
fn compile_maybe_cached(
    w: &Workload,
    cfg: &PipelineConfig,
    cache: Option<&CompileCache>,
) -> Compiled {
    let result = match cache {
        Some(cache) => compile_cached(w, cfg, cache),
        None => compile(w, cfg),
    };
    result.unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// One row of Table 2: per-machine speedups for one benchmark.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Table grouping.
    pub group: Group,
    /// `(machine, baseline cycles, optimized cycles)` per processor, in
    /// [`Machine::paper_suite`] order.
    pub cycles: Vec<(String, u64, u64)>,
}

impl Table2Row {
    /// Speedup on machine `i`.
    ///
    /// Degenerate cycle counts are handled explicitly rather than silently:
    /// a weighted estimate of zero cycles means the profile never entered
    /// the scheduled region. When *both* sides are zero there is no signal
    /// and the speedup is neutral (`1.0`); when only the optimized side is
    /// zero it is clamped to one cycle (the same convention the latency
    /// sweep uses), keeping the ratio finite so geomeans stay well-defined.
    pub fn speedup(&self, i: usize) -> f64 {
        let (_, base, opt) = &self.cycles[i];
        cycle_speedup(*base, *opt)
    }
}

/// The shared degenerate-cycle speedup convention (see
/// [`Table2Row::speedup`]): `1.0` when both sides are zero, the optimized
/// side clamped to one cycle when only it is zero, the plain ratio
/// otherwise.
pub fn cycle_speedup(base: u64, opt: u64) -> f64 {
    match (base, opt) {
        (0, 0) => 1.0,
        (b, 0) => b as f64,
        (b, o) => b as f64 / o as f64,
    }
}

/// Computes Table 2 for the given workloads, compiling (through `cache`
/// when given) and scheduling them in parallel. Row order matches
/// `workloads` order exactly. Also returns each workload's pass timings,
/// including a `schedule` stage covering all machine models of the row.
pub fn table2(
    workloads: &[Workload],
    cfg: &PipelineConfig,
    cache: Option<&CompileCache>,
) -> (Vec<Table2Row>, Vec<PassTimings>) {
    let machines = Machine::paper_suite();
    let pairs: Vec<(Table2Row, PassTimings)> = workloads
        .par_iter()
        .map(|w| {
            let mut c = compile_maybe_cached(w, cfg, cache);
            let n = c.optimized.static_op_count();
            let t0 = Instant::now();
            let row = table2_row(w, &c, &machines);
            c.timings.push(stage::SCHEDULE, t0.elapsed(), n, n);
            (row, c.timings)
        })
        .collect();
    pairs.into_iter().unzip()
}

/// Computes one row from an already compiled pair: both sides'
/// profile-weighted cycle estimates on every machine, in `machines` order,
/// each under the machine's own front-end cost model (the paper suite is
/// ideal on every machine, so the published tables are unchanged by the
/// model).
///
/// The numbers come from each side's [`CycleMemo`](crate::cache::CycleMemo)
/// ([`Compiled::base_cycles`], [`Compiled::opt_cycles`]). A compile served
/// from the cache shares the cached artifacts' memos, so a warm row reads
/// ten numbers; only machines a memo has no entry for are scheduled, all
/// of them in one `schedule_function_suite` call that shares the
/// machine-independent analyses (liveness, predicate facts). A row of an
/// uncached compile schedules both sides on every machine.
pub fn table2_row(w: &Workload, c: &Compiled, machines: &[Machine]) -> Table2Row {
    let base = c.base_cycles(machines);
    let opt = c.opt_cycles(machines);
    let cycles = machines
        .iter()
        .zip(base.into_iter().zip(opt))
        .map(|(m, (base, opt))| (m.name().to_string(), base, opt))
        .collect();
    Table2Row { name: w.name.to_string(), group: w.group, cycles }
}

/// One row of Table 3: operation-count ratios for one benchmark.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Table grouping.
    pub group: Group,
    /// The four ratios (`S tot`, `S br`, `D tot`, `D br`).
    pub ratios: CountRatios,
}

/// Computes Table 3 for the given workloads, compiling them (through
/// `cache` when given) in parallel. Row order matches `workloads` order
/// exactly. Also returns each workload's pass timings.
pub fn table3(
    workloads: &[Workload],
    cfg: &PipelineConfig,
    cache: Option<&CompileCache>,
) -> (Vec<Table3Row>, Vec<PassTimings>) {
    let pairs: Vec<(Table3Row, PassTimings)> = workloads
        .par_iter()
        .map(|w| {
            let c = compile_maybe_cached(w, cfg, cache);
            let row = Table3Row {
                name: w.name.to_string(),
                group: w.group,
                ratios: CountRatios::of(&c.base_counts, &c.opt_counts),
            };
            (row, c.timings)
        })
        .collect();
    pairs.into_iter().unzip()
}

/// Renders Table 2 in the paper's format, including the `Gmean-spec95` and
/// `Gmean-all` rows.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
        "Benchmark", "Seq", "Nar", "Med", "Wid", "Inf"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}\n",
            r.name,
            r.speedup(0),
            r.speedup(1),
            r.speedup(2),
            r.speedup(3),
            r.speedup(4)
        ));
    }
    for (label, filter) in gmean_groups() {
        let selected: Vec<&Table2Row> = rows.iter().filter(|r| filter(r.group)).collect();
        if selected.is_empty() {
            continue;
        }
        out.push_str(&format!("{label:<14}"));
        for i in 0..5 {
            let g = geomean(selected.iter().map(|r| r.speedup(i)));
            out.push_str(&format!(" {g:>6.2}"));
        }
        out.push('\n');
    }
    out
}

/// Renders Table 3 in the paper's format.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>6} {:>6}\n",
        "Benchmark", "S tot", "S br", "D tot", "D br"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>6.2} {:>6.2} {:>6.2} {:>6.2}\n",
            r.name,
            r.ratios.static_total,
            r.ratios.static_branches,
            r.ratios.dynamic_total,
            r.ratios.dynamic_branches
        ));
    }
    for (label, filter) in gmean_groups() {
        let selected: Vec<&Table3Row> = rows.iter().filter(|r| filter(r.group)).collect();
        if selected.is_empty() {
            continue;
        }
        let g = |f: fn(&CountRatios) -> f64| geomean(selected.iter().map(|r| f(&r.ratios)));
        out.push_str(&format!(
            "{label:<14} {:>6.2} {:>6.2} {:>6.2} {:>6.2}\n",
            g(|r| r.static_total),
            g(|r| r.static_branches),
            g(|r| r.dynamic_total),
            g(|r| r.dynamic_branches)
        ));
    }
    out
}

/// The four pipeline configurations of the melding ablation: no height
/// reduction at all, the paper's control CPR, instruction melding alone,
/// and both passes composed. All four share the compile cache's upstream
/// stage artifacts.
pub fn meld_matrix_configs() -> Vec<(&'static str, PipelineConfig)> {
    let mut neither = PipelineConfig::default();
    neither.cpr.enable = false;
    let cpr = PipelineConfig::default();
    let mut meld_only = neither.clone();
    meld_only.meld = Some(MeldConfig::default());
    let both = PipelineConfig { meld: Some(MeldConfig::default()), ..PipelineConfig::default() };
    vec![("neither", neither), ("cpr", cpr), ("meld", meld_only), ("both", both)]
}

/// The two front ends the melding matrix is evaluated on: the paper's
/// medium processor with its ideal front end, and the same core behind a
/// [`Frontend::modern`] fetch/redirect model — where eliminated branches
/// pay off even without issue-width pressure.
pub fn meld_matrix_machines() -> Vec<Machine> {
    vec![
        Machine::medium(),
        Machine::medium().with_frontend(Frontend::modern()).with_name("medium+fe"),
    ]
}

/// One row of the melding × front-end matrix: the fully optimized
/// program's weighted cycles under one machine, for every configuration of
/// [`meld_matrix_configs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeldMatrixRow {
    /// Machine (and front-end) name.
    pub machine: String,
    /// `(configuration label, per-workload optimized cycles)` in
    /// [`meld_matrix_configs`] order; the inner vectors follow the
    /// workload input order.
    pub cycles: Vec<(&'static str, Vec<u64>)>,
}

impl MeldMatrixRow {
    /// Geomean speedup of configuration `i` over the `neither`
    /// configuration (column 0), using the shared [`cycle_speedup`]
    /// convention per workload.
    pub fn speedup(&self, i: usize) -> f64 {
        let base = &self.cycles[0].1;
        let opt = &self.cycles[i].1;
        geomean(base.iter().zip(opt).map(|(&b, &o)| cycle_speedup(b, o)))
    }
}

/// Computes the melding × front-end matrix, fanning out over
/// configurations and workloads with rayon. Row and column order is fixed
/// by `machines` and [`meld_matrix_configs`] regardless of thread count.
pub fn meld_matrix(
    workloads: &[Workload],
    machines: &[Machine],
    cache: Option<&CompileCache>,
) -> Vec<MeldMatrixRow> {
    let configs = meld_matrix_configs();
    // One compile per configuration × workload; the machines only differ
    // in scheduling and cycle accounting downstream of the compile.
    let compiled: Vec<Vec<Compiled>> = configs
        .par_iter()
        .map(|(_, cfg)| {
            workloads.par_iter().map(|w| compile_maybe_cached(w, cfg, cache)).collect()
        })
        .collect();
    machines
        .iter()
        .map(|m| MeldMatrixRow {
            machine: m.name().to_string(),
            cycles: configs
                .iter()
                .zip(&compiled)
                .map(|((label, _), cs)| {
                    let on_m = std::slice::from_ref(m);
                    (*label, cs.iter().map(|c| c.opt_cycles(on_m)[0]).collect())
                })
                .collect(),
        })
        .collect()
}

/// Renders the melding × front-end matrix: one row per machine, one
/// column per configuration, each cell the geomean cycles speedup over
/// the `neither` configuration on that machine.
pub fn render_meld_matrix(rows: &[MeldMatrixRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14}", "Machine"));
    if let Some(first) = rows.first() {
        for (label, _) in &first.cycles {
            out.push_str(&format!(" {label:>8}"));
        }
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<14}", r.machine));
        for i in 0..r.cycles.len() {
            out.push_str(&format!(" {:>8.3}", r.speedup(i)));
        }
        out.push('\n');
    }
    out
}

/// A predicate selecting rows for one `Gmean` line.
type GroupFilter = fn(Group) -> bool;

fn gmean_groups() -> Vec<(&'static str, GroupFilter)> {
    vec![
        ("Gmean-spec95", |g| g == Group::Spec95),
        ("Gmean-all", |_| true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_for_strcpy_shows_speedup_growth() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let c = compile(&w, &cfg).unwrap();
        let row = table2_row(&w, &c, &Machine::paper_suite());
        // Speedups exist and the wide machine beats the narrow machine
        // (branch height reduction needs width to pay off).
        let narrow = row.speedup(1);
        let wide = row.speedup(3);
        assert!(wide >= 1.0, "wide speedup {wide}");
        assert!(wide >= narrow - 0.05, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn render_table2_contains_gmeans() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let cfg = PipelineConfig::default();
        let c = compile(&w, &cfg).unwrap();
        let row = table2_row(&w, &c, &Machine::paper_suite());
        let text = render_table2(&[row]);
        assert!(text.contains("strcpy"));
        assert!(text.contains("Gmean-all"));
    }

    fn row_with_cycles(base: u64, opt: u64) -> Table2Row {
        Table2Row {
            name: "synthetic".to_string(),
            group: Group::Unix,
            cycles: vec![("m".to_string(), base, opt)],
        }
    }

    #[test]
    fn speedup_is_neutral_when_both_sides_are_zero() {
        assert_eq!(row_with_cycles(0, 0).speedup(0), 1.0);
    }

    #[test]
    fn speedup_clamps_zero_optimized_cycles_to_one() {
        // base > 0 with opt == 0 would divide by zero; the documented
        // convention clamps the optimized side to one cycle.
        assert_eq!(row_with_cycles(42, 0).speedup(0), 42.0);
    }

    #[test]
    fn speedup_is_plain_ratio_otherwise() {
        assert_eq!(row_with_cycles(10, 4).speedup(0), 2.5);
        // Slowdowns are reported as-is, not clamped to 1.0.
        assert_eq!(row_with_cycles(4, 10).speedup(0), 0.4);
    }

    #[test]
    fn table3_for_strcpy_reduces_dynamic_branches() {
        let w = epic_workloads::by_name("strcpy").unwrap();
        let (rows, _) = table3(std::slice::from_ref(&w), &PipelineConfig::default(), None);
        let r = &rows[0].ratios;
        assert!(r.dynamic_branches < 0.7, "D br = {}", r.dynamic_branches);
        assert!(r.dynamic_total <= 1.05, "D tot = {}", r.dynamic_total);
        assert!(r.static_total >= 1.0, "S tot = {}", r.static_total);
        let text = render_table3(&rows);
        assert!(text.contains("strcpy"));
    }
}
