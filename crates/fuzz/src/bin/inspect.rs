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
//! `dump` prints the height-reduced code of a passing workload, or the
//! input of the failing stage otherwise. Exits non-zero if any workload
//! fails.

use std::time::Instant;

use epic_bench::{compile, PipelineConfig};
use epic_fuzz::{check_case, GenCase};

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
    for w in &workloads {
        match check_case(&GenCase::from_workload(w, &cfg)) {
            Ok(()) => {
                println!("{}: OK", w.name);
                if dump {
                    let c = compile(w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                    println!("{}", c.optimized);
                }
            }
            Err(f) => {
                failed += 1;
                println!("{}: FAILED at {f}", w.name);
                if dump {
                    println!("{}", f.before);
                }
            }
        }
    }
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
