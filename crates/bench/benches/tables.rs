//! Criterion benchmarks of whole-table regeneration: one iteration compiles
//! a benchmark through both pipelines and evaluates it on all five
//! machines (Table 2's per-row cost), plus the count-ratio path (Table 3).

use criterion::{criterion_group, criterion_main, Criterion};
use epic_bench::{compile, table2_row, PipelineConfig};
use epic_machine::Machine;

fn bench_tables(c: &mut Criterion) {
    for name in ["strcpy", "wc", "126.gcc"] {
        c.bench_function(&format!("table2_row/{name}"), |b| {
            let w = epic_workloads::by_name(name).expect("workload");
            b.iter(|| {
                let c = compile(&w, &PipelineConfig::default()).expect("compiles");
                table2_row(&w, &c, &Machine::paper_suite())
            });
        });
    }
    c.bench_function("compile_pair/023.eqntott", |b| {
        let w = epic_workloads::by_name("023.eqntott").expect("workload");
        b.iter(|| compile(&w, &PipelineConfig::default()).expect("compiles"));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tables
}
criterion_main!(benches);
