//! Pipeline inspector: pushes suite workloads through the per-stage
//! differential harness under the default configuration — verifier,
//! differential oracle and schedule validation after every pipeline stage
//! and every ICBM phase — and names the first stage that fails.
//!
//! ```sh
//! cargo run --release -p epic-fuzz --bin inspect -- strcpy        # one workload
//! cargo run --release -p epic-fuzz --bin inspect -- all           # the whole suite
//! cargo run --release -p epic-fuzz --bin inspect -- strcpy dump   # + code dump
//! ```
//!
//! `dump` prints the height-reduced code that the checked compile of a
//! passing workload produced, or the input of the failing stage otherwise.
//! Each workload's line names the CPR blocks ICBM skipped, by [`Skip`]
//! reason, and a last line sums them over the run. Exits non-zero if any
//! workload fails.

use std::time::Instant;

use control_cpr::Skip;
use epic_bench::PipelineConfig;
use epic_fuzz::{check_case, GenCase};

/// The `icbm.skipped{reason}` counters, in [`Skip::ALL`] order.
fn skip_counts() -> Vec<u64> {
    Skip::ALL.iter().map(|s| s.counter().value()).collect()
}

/// `"reason n, ..."` for the non-zero counts, or `None` when there are none.
fn describe(skips: &[u64]) -> Option<String> {
    let named: Vec<String> = Skip::ALL
        .iter()
        .zip(skips)
        .filter(|(_, &n)| n > 0)
        .map(|(s, n)| format!("{} {n}", s.name()))
        .collect();
    (!named.is_empty()).then(|| named.join(", "))
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "strcpy".into());
    let dump = std::env::args().nth(2).as_deref() == Some("dump");
    let workloads = if name == "all" {
        epic_workloads::all()
    } else {
        let Some(w) = epic_workloads::by_name(&name) else {
            eprintln!("unknown workload {name}");
            std::process::exit(2);
        };
        vec![w]
    };
    let cfg = PipelineConfig::default();
    let t0 = Instant::now();
    let mut failed = 0;
    let mut total_skips = vec![0; Skip::ALL.len()];
    for w in &workloads {
        let before = skip_counts();
        let checked = check_case(&GenCase::from_workload(w, &cfg));
        let skips: Vec<u64> = skip_counts().iter().zip(before).map(|(now, b)| now - b).collect();
        total_skips.iter_mut().zip(&skips).for_each(|(t, n)| *t += n);
        let skips = describe(&skips).map_or(String::new(), |d| format!(" (skipped: {d})"));
        match checked {
            Ok(c) => {
                println!("{}: OK{skips}", w.name);
                if dump {
                    println!("{}", c.optimized);
                }
            }
            Err(f) => {
                failed += 1;
                println!("{}: FAILED at {f}{skips}", w.name);
                if dump {
                    println!("{}", f.before);
                }
            }
        }
    }
    println!("ICBM skips: {}", describe(&total_skips).as_deref().unwrap_or("none"));
    eprintln!(
        "{} of {} workload(s) verified in {:.1} s",
        workloads.len() - failed,
        workloads.len(),
        t0.elapsed().as_secs_f64()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
