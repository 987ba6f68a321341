//! `repro <experiment>... [--smoke]`: run experiments of the paper's
//! evaluation by name, in the order given. With no argument it lists them,
//! one name per line, so `repro --smoke $(repro)` runs them all. Exits 1 if
//! any experiment's results fail a check, 2 on a bad command line.

use abase_bench::experiments::ALL;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let smoke = flags.iter().any(|f| f == "--smoke");
    if flags.len() > usize::from(smoke) || (smoke && names.is_empty()) {
        eprintln!("usage: repro <experiment>... [--smoke]; `repro` lists the experiments");
        return ExitCode::from(2);
    }
    if names.is_empty() {
        ALL.iter().for_each(|(name, _)| println!("{name}"));
        return ExitCode::SUCCESS;
    }
    let mut chosen = Vec::new();
    for name in &names {
        let Some(&experiment) = ALL.iter().find(|(known, _)| known == name) else {
            eprintln!("repro: no experiment {name:?}; `repro` lists them");
            return ExitCode::from(2);
        };
        chosen.push(experiment);
    }
    let mut failed = 0;
    for (name, run) in chosen {
        let started = Instant::now();
        let verdict = run(smoke).map_or_else(|fact| format!("FAILED: {fact}"), |()| "ok".into());
        failed += usize::from(verdict != "ok");
        let secs = started.elapsed().as_secs_f64();
        eprintln!("repro: {name} {verdict} ({secs:.1} s)");
    }
    if failed > 0 {
        eprintln!("repro: {failed} of {} experiments failed", names.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
