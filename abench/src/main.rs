//! `abench`: one socket-level benchmark of the shipped `abase-server`.
//!
//! ```text
//! abench --workload W --seed N --seconds S --trace 0|1    one run, one JSON line (BENCHMARK.json's command)
//! abench run [--workload W].. [--seed N] [--seconds S] [--repeat K] [--smoke]
//! abench trace W [--seed N] [--seconds S] [--smoke]
//! abench check A.jsonl B.jsonl
//! abench study RUNS.jsonl..
//! ```
//!
//! Run it from the root of the repository; see README.md beside this crate.

mod check;
mod client;
mod gen;
mod json;
mod layers;
mod resp;
mod run;
mod scrape;
mod server;
mod stats;

use gen::{Workload, WORKLOADS};
use run::{RunOptions, RunResult};
use std::process::ExitCode;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Seed of `abench run` and `abench trace` when none is given.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of BENCHMARK.json, and the default of `abench run`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Length of a `--smoke` run: shape only.
const SMOKE_SECONDS: f64 = 1.0;
/// Set-ups per run in the full shape: `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    server::install_signal_handlers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("abench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("study") => cmd_study(&args[1..]),
        _ => cmd_driver(args),
    }
}

/// `--flag value` pairs and bare flags, in order.
struct Flags<'a> {
    args: &'a [String],
    at: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, at: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.at)?;
        self.at += 1;
        Some(arg)
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; there are {}", known.join(", "))
    })
}

fn check_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 0..=60"))
    }
}

/// The contract of BENCHMARK.json's command: one workload, one JSON line.
fn cmd_driver(args: &[String]) -> Result<ExitCode, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => name = Some(flags.value::<String>(flag)?),
            "--seed" => seed = Some(flags.value::<u64>(flag)?),
            "--seconds" => seconds = Some(check_seconds(flags.value(flag)?)?),
            "--trace" => trace = Some(flags.value::<u8>(flag)?),
            other => return Err(format!("unknown argument {other:?}; see abench/README.md")),
        }
    }
    let usage = "usage: abench --workload W --seed N --seconds S --trace 0|1";
    let w = workload(&name.ok_or(usage)?)?;
    let opts = RunOptions {
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        setups: SETUPS,
    };
    let trace = trace.ok_or(usage)? != 0;

    let target = server::target_dir()?;
    let bin = server::build_server(&target)?;
    let mut result = run::run_workload(&bin, &target, w, opts)?;
    if trace {
        add_trace(&mut result, w, false, &target)?;
    }
    let (metrics, section) = if trace {
        (&result.layers, "per_layer")
    } else {
        (&result.end_to_end, "end_to_end")
    };
    // The contract is every listed metric and no other: a metric added to
    // the code and not to BENCHMARK.json, or the reverse, stops here.
    let listed = check::listed_names(&read_file("BENCHMARK.json")?, section)?;
    if !listed
        .iter()
        .map(String::as_str)
        .eq(metrics.iter().map(|m| m.name))
    {
        let emitted: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        return Err(format!(
            "BENCHMARK.json lists {section} {listed:?} but this build emits {emitted:?}"
        ));
    }
    println!("{}", driver_line(&result, metrics));
    Ok(exit_code(result.failed))
}

/// Run the in-process traced replay of `w` and append its metrics (and its
/// correctness counts) to the socket run's.
fn add_trace(
    result: &mut RunResult,
    w: Workload,
    smoke: bool,
    target: &std::path::Path,
) -> Result<(), String> {
    let rtt_p50_us = result.metric("client.rtt_p50_us").unwrap_or(0.0);
    let report = layers::trace(w, result.seed, smoke, target, rtt_p50_us)?;
    eprintln!("abench: spans written to {}", report.span_file.display());
    result.layers.extend(report.metrics);
    result.attempted += report.attempted;
    result.failed += report.failed;
    Ok(())
}

/// `abench trace W`: the socket run for the scrape-side layer metrics, then
/// the traced replay; prints every per-layer metric and writes the span file.
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let (mut name, mut seed, mut seconds, mut smoke) = (None, DEFAULT_SEED, None, false);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => seed = flags.value(flag)?,
            "--seconds" => seconds = Some(check_seconds(flags.value(flag)?)?),
            "--smoke" => smoke = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other),
            other => return Err(format!("trace: unknown argument {other:?}")),
        }
    }
    let mut w = workload(name.ok_or("usage: abench trace W [--seed N] [--seconds S] [--smoke]")?)?;
    if smoke {
        w = w.smoke();
    }
    let opts = RunOptions {
        seed,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        setups: 1,
    };
    let target = server::target_dir()?;
    let bin = server::build_server(&target)?;
    let mut result = run::run_workload(&bin, &target, w, opts)?;
    add_trace(&mut result, w, smoke, &target)?;
    println!("{}", run_line(&result));
    Ok(exit_code(result.failed))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn read_bounds() -> Result<Vec<check::Bound>, String> {
    check::read_bounds(&read_file("BENCHMARK.json")?)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: abench check A.jsonl B.jsonl".into());
    };
    let bounds = read_bounds()?;
    let (table, regressed) = check::check(
        &check::read_runs(&read_file(a)?)?,
        &check::read_runs(&read_file(b)?)?,
        &bounds,
    );
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_study(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("usage: abench study RUNS.jsonl..".into());
    }
    let bounds = read_bounds()?;
    let sets = args
        .iter()
        .map(|path| {
            let name = std::path::Path::new(path).file_name();
            let name = name.map_or(path.clone(), |n| n.to_string_lossy().into_owned());
            Ok((name, check::read_runs(&read_file(path)?)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!("{}", check::study(&sets, &bounds));
    Ok(ExitCode::SUCCESS)
}

/// A run in which any reply was wrong is a failed run.
fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// JSON has no NaN or infinity; a metric that is one of them is a bug worth
/// seeing, so it is printed as null rather than hidden.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn driver_line(result: &RunResult, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics_json(metrics)
    )
}

/// One run as one line of a run file: what `check` and `study` read back.
fn run_line(result: &RunResult) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"wire_hash\": \"{:016x}\", \"flush_policy\": \"{}\", \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"layers\": {}}}",
        result.workload,
        result.seed,
        result.wire_hash,
        run::FLUSH_POLICY,
        result.attempted,
        result.failed,
        metrics_json(&result.end_to_end),
        metrics_json(&result.layers)
    )
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut names: Vec<String> = Vec::new();
    let (mut seed, mut seconds, mut repeat, mut smoke) = (DEFAULT_SEED, None, 1u64, false);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => names.push(flags.value(flag)?),
            "--seed" => seed = flags.value(flag)?,
            "--seconds" => seconds = Some(check_seconds(flags.value(flag)?)?),
            "--repeat" => repeat = flags.value(flag)?,
            "--smoke" => smoke = true,
            other => return Err(format!("run: unknown argument {other:?}")),
        }
    }
    let mut workloads = if names.is_empty() {
        WORKLOADS.to_vec()
    } else {
        names
            .iter()
            .map(|n| workload(n))
            .collect::<Result<_, _>>()?
    };
    if smoke {
        workloads = workloads.into_iter().map(Workload::smoke).collect();
    }
    let seconds = seconds.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let target = server::target_dir()?;
    let bin = server::build_server(&target)?;
    let mut failed = 0;
    for round in 0..repeat {
        for &w in &workloads {
            let opts = RunOptions {
                seed: seed + round,
                seconds,
                setups: if smoke { 1 } else { SETUPS },
            };
            eprintln!(
                "abench: {} seed {} for {seconds} s: {}",
                w.name, opts.seed, w.why
            );
            let result = run::run_workload(&bin, &target, w, opts)?;
            println!("{}", run_line(&result));
            failed += result.failed;
        }
    }
    Ok(exit_code(failed))
}
