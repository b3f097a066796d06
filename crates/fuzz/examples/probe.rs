//! Interactive triage tool for fuzz failures.
//!
//! * `cargo run --release -p epic-fuzz --example probe` — sweep seeds
//!   `FUZZ_SEED..+FUZZ_CASES` (defaults 0..64) and print one line per
//!   failing seed.
//! * `cargo run --release -p epic-fuzz --example probe <seed>` — shrink
//!   that seed and print the minimized program plus the exact input the
//!   guilty stage received (run shrinking in release: it re-checks the
//!   full pipeline per deleted op).

use epic_fuzz::{check_case, check_from, env_u64, generate, shrink_case};

fn main() {
    let arg = std::env::args().nth(1);
    if let Some(seed) = arg.and_then(|s| s.parse::<u64>().ok()) {
        let case = generate(seed);
        let Err(f) = check_case(&case) else {
            println!("seed {seed} passes");
            return;
        };
        println!("original failure: {f}");
        let min = shrink_case(&case, &f);
        match check_from(&min, &case) {
            Err(f2) => {
                println!("minimized failure: {f2}");
                println!("minimized source:\n{min}");
                println!("stage input (before):\n{}", f2.before);
            }
            Ok(_) => println!("shrink lost the failure; original source:\n{}", case.func),
        }
        return;
    }
    let base = env_u64("FUZZ_SEED", 0);
    let cases = env_u64("FUZZ_CASES", 64);
    let mut bad = 0;
    for seed in base..base + cases {
        let case = generate(seed);
        if let Err(f) = check_case(&case) {
            bad += 1;
            println!("seed {seed}: {f}");
        }
    }
    println!("{bad}/{cases} failing");
}
