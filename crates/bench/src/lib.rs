//! # abase-bench
//!
//! The paper's evaluation (§6) regenerated: each table, figure and ablation
//! is a module of [`experiments`], run by name by one binary, `repro`
//! (`repro` lists them; `repro fig06_proxy_quota ycsb` runs two at full
//! size). The five with a JSON report check facts about their own results on
//! every run; `--smoke` shrinks their workloads and writes no `BENCH_*.json`.
//! Criterion micro-benchmarks: `cargo bench -p abase-bench`.

#![deny(missing_docs)]

use abase_sim::MinutePoint;
use std::net::{SocketAddr, TcpStream};

/// Return `Err` naming the fact (a `format!` string) unless `cond` holds:
/// how an experiment checks its own results.
macro_rules! ensure {
    ($cond:expr, $($fact:tt)+) => {
        // Bound first: a negated float comparison reads as its opposite
        // only when neither side is NaN, and NaN must fail the check too.
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($fact)+));
        }
    };
}

pub mod experiments;

/// The line fig06 and Table 2 print: their proxy tier exists only in the
/// simulator.
pub const SIMULATED_PROXY: &str =
    "(proxy tier simulated: abase-server has no AU-LRU proxy cache and no proxy quota)";

/// Print a fixed-width ASCII table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule = |ch: &str| {
        widths
            .iter()
            .fold("+".to_string(), |s, w| s + &ch.repeat(w + 2) + "+")
    };
    let line = |cells: Vec<&str>| {
        let cells = cells.iter().zip(&widths);
        cells.fold("|".to_string(), |s, (cell, w)| {
            s + &format!(" {cell:<w$} |")
        })
    };
    println!("{}", rule("-"));
    println!("{}", line(headers.to_vec()));
    println!("{}", rule("="));
    for row in rows {
        println!("{}", line(row.iter().map(String::as_str).collect()));
    }
    println!("{}", rule("-"));
}

/// Render a compact unicode sparkline for a series (for time-series figures).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Format a float with `digits` decimals.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format a ratio as a percentage string.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Standard experiment banner.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("==============================================================");
}

/// The point of `tenant` at `minute` in a simulator series.
pub fn point(series: &[MinutePoint], minute: u64, tenant: u32) -> &MinutePoint {
    let at = |p: &&MinutePoint| p.minute == minute && p.tenant == tenant;
    series
        .iter()
        .find(at)
        .expect("a point per tenant and minute")
}

/// Publish a JSON report as `BENCH_<name>.json` at the repository root. A
/// smoke run's numbers are noise: its report is printed, and the committed
/// full-run file is left alone.
pub fn publish(name: &str, json: &str, smoke: bool) -> Result<(), String> {
    if smoke {
        print!("smoke run, BENCH_{name}.json not written:\n{json}");
        return Ok(());
    }
    let out = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// A loopback client with Nagle off. Under connect pressure (EMFILE, a full
/// backlog while thousands connect) it retries briefly instead of failing.
pub fn client(addr: SocketAddr) -> TcpStream {
    for _ in 0..50 {
        if let Ok(conn) = TcpStream::connect(addr) {
            conn.set_nodelay(true).unwrap();
            return conn;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("could not connect to {addr}");
}

/// Append one command, as a RESP array of bulk strings, to `out`.
pub fn encode_into(out: &mut Vec<u8>, parts: &[&str]) {
    out.extend_from_slice(format!("*{}\r\n", parts.len()).as_bytes());
    for p in parts {
        out.extend_from_slice(format!("${}\r\n{p}\r\n", p.len()).as_bytes());
    }
}

/// One command as a RESP array of bulk strings.
pub fn encode(parts: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, parts);
    out
}

/// Assert `check` passes `healthy` and fails every copy of it that one of
/// `doctors` altered: each fact an experiment checks can fail it.
#[cfg(test)]
fn refuses_each<T: Clone>(
    healthy: T,
    check: impl Fn(&T) -> Result<(), String>,
    doctors: &[fn(&mut T)],
) {
    assert_eq!(check(&healthy), Ok(()));
    for (i, doctor) in doctors.iter().enumerate() {
        let mut doctored = healthy.clone();
        doctor(&mut doctored);
        assert!(check(&doctored).is_err(), "doctoring {i} passed the check");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(0.935), "93.5%");
        assert_eq!(encode(&["GET", "k"]), b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }
}
