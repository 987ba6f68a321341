//! `abench check` and `abench study`: compare sets of runs against the
//! bounds BENCHMARK.json fixes, and summarise a set's own spread.
//!
//! A run file is what `abench run` prints: one JSON object per line.

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// One end-to-end metric's entry in BENCHMARK.json.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("an end_to_end entry lacks {k:?}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("better is {other:?}, not lower or higher")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The `name`s BENCHMARK.json lists under `section` (`workloads`,
/// `end_to_end` or `per_layer`), in order.
pub fn listed_names(benchmark_json: &str, section: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(benchmark_json)?;
    let entries = doc
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str);
            name.map(str::to_owned)
                .ok_or_else(|| format!("a {section} entry has no name"))
        })
        .collect()
}

/// `workload -> section -> metric -> one value per run`, in file order.
pub type RunSet = BTreeMap<String, BTreeMap<String, BTreeMap<String, Vec<f64>>>>;

pub fn read_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
        let run = json::parse(line)?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run has no workload")?;
        for section in ["end_to_end", "layers"] {
            let metrics = run.get(section).and_then(Value::as_object).unwrap_or(&[]);
            for (name, entry) in metrics {
                if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                    set.entry(workload.to_owned())
                        .or_default()
                        .entry(section.to_owned())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    if set.is_empty() {
        return Err("no runs in the file".into());
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s; negative
/// when `b` is better.
pub fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let worse = worsening(a, b, bound.lower_is_better);
    let noise = spread(a).max(spread(b));
    if worse > bound.bound && worse > noise {
        Verdict::Regressed
    } else if noise > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One row per (workload, end-to-end metric). Returns the table and whether
/// any row regressed.
pub fn check(a: &RunSet, b: &RunSet, bounds: &[Bound]) -> (String, bool) {
    let mut table = format!(
        "{:<11} {:<28} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    let mut regressed = false;
    let empty = BTreeMap::new();
    for (workload, sections) in a {
        let side_a = sections.get("end_to_end").unwrap_or(&empty);
        let side_b = b
            .get(workload)
            .and_then(|s| s.get("end_to_end"))
            .unwrap_or(&empty);
        for bound in bounds {
            let (Some(va), Some(vb)) = (side_a.get(&bound.name), side_b.get(&bound.name)) else {
                table.push_str(&format!(
                    "{workload:<11} {:<28} missing on one side\n",
                    bound.name
                ));
                regressed = true;
                continue;
            };
            let verdict = judge(va, vb, bound);
            regressed |= verdict == Verdict::Regressed;
            table.push_str(&format!(
                "{workload:<11} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}\n",
                bound.name,
                median(va),
                median(vb),
                worsening(va, vb, bound.lower_is_better) * 100.0,
                spread(va).max(spread(vb)) * 100.0,
                bound.bound * 100.0,
                verdict.word()
            ));
        }
    }
    (table, regressed)
}

/// A set's own summary as JSON: per workload and metric the run count,
/// median, quartiles and spread, and for end-to-end metrics the bound.
pub fn study(sets: &[(String, RunSet)], bounds: &[Bound]) -> String {
    let mut out = String::from("{\n  \"spread\": \"(q3 - q1) / median, quartiles as Python's statistics.quantiles(n=4)\",\n  \"sets\": [\n");
    for (i, (file, set)) in sets.iter().enumerate() {
        out.push_str(&format!("    {{\"file\": \"{file}\", \"workloads\": {{\n"));
        for (j, (workload, sections)) in set.iter().enumerate() {
            out.push_str(&format!("      \"{workload}\": {{\n"));
            let mut rows = Vec::new();
            for (section, metrics) in sections {
                for (name, values) in metrics {
                    let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
                    let bound = bounds
                        .iter()
                        .find(|b| section == "end_to_end" && &b.name == name)
                        .map_or(String::new(), |b| format!(", \"bound\": {}", b.bound));
                    rows.push(format!(
                        "        \"{name}\": {{\"n\": {}, \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {:.4}{bound}}}",
                        values.len(),
                        median(values),
                        spread(values)
                    ));
                }
            }
            out.push_str(&rows.join(",\n"));
            out.push_str(if j + 1 == set.len() {
                "\n      }\n"
            } else {
                "\n      },\n"
            });
        }
        out.push_str(if i + 1 == sets.len() {
            "    }}\n"
        } else {
            "    }},\n"
        });
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#;

    fn runs(ops: &[f64], p50: &[f64]) -> RunSet {
        let text: String = ops
            .iter()
            .zip(p50)
            .map(|(o, p)| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"end_to_end\": {{\"ops_per_s\": {{\"value\": {o}, \"unit\": \"1/s\"}}, \"p50_us\": {{\"value\": {p}, \"unit\": \"us\"}}}}, \"layers\": {{}}}}\n"
                )
            })
            .collect();
        read_runs(&text).unwrap()
    }

    #[test]
    fn reads_bounds_and_directions() {
        let b = read_bounds(BENCHMARK).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b[0].lower_is_better && b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.1);
        assert!(read_bounds("{}").is_err());
    }

    #[test]
    fn benchmark_json_lists_the_workloads_the_code_runs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = json::parse(&text).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Value::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let coded: Vec<(&str, &str)> = crate::gen::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, coded);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        assert!(read_bounds(&text)
            .unwrap()
            .iter()
            .any(|b| b.name == "setup_s"));
    }

    #[test]
    fn verdicts() {
        let bounds = read_bounds(BENCHMARK).unwrap();
        let base = runs(&[100.0, 101.0, 99.0, 100.0], &[50.0, 50.5, 49.5, 50.0]);
        // The same again: ok on both metrics.
        let (_, bad) = check(&base, &base, &bounds);
        assert!(!bad);
        // Throughput down 20%, latency up 20%, tight runs: both regressed.
        let slow = runs(&[80.0, 81.0, 79.0, 80.0], &[60.0, 60.5, 59.5, 60.0]);
        let (table, bad) = check(&base, &slow, &bounds);
        assert!(bad);
        assert_eq!(table.matches("regressed").count(), 2, "{table}");
        // The other way round is an improvement, not a regression.
        assert!(!check(&slow, &base, &bounds).1);
        // 5% worse with runs that spread 40%: cannot tell.
        let noisy = runs(&[95.0, 120.0, 70.0, 95.0], &[50.0, 50.5, 49.5, 50.0]);
        let v = judge(
            &base["w"]["end_to_end"]["ops_per_s"],
            &noisy["w"]["end_to_end"]["ops_per_s"],
            &bounds[0],
        );
        assert_eq!(v, Verdict::Unresolved);
        // Far worse than even a wide spread is still a regression.
        let awful = runs(&[30.0, 40.0, 20.0, 30.0], &[50.0, 50.0, 50.0, 50.0]);
        let v = judge(
            &base["w"]["end_to_end"]["ops_per_s"],
            &awful["w"]["end_to_end"]["ops_per_s"],
            &bounds[0],
        );
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn a_missing_metric_fails_the_check() {
        let bounds = read_bounds(BENCHMARK).unwrap();
        let base = runs(&[100.0], &[50.0]);
        let mut other = base.clone();
        other
            .get_mut("w")
            .unwrap()
            .get_mut("end_to_end")
            .unwrap()
            .remove("p50_us");
        assert!(check(&base, &other, &bounds).1);
    }

    #[test]
    fn study_is_json() {
        let bounds = read_bounds(BENCHMARK).unwrap();
        let text = study(
            &[(
                "a.jsonl".into(),
                runs(&[100.0, 110.0, 90.0], &[50.0, 51.0, 49.0]),
            )],
            &bounds,
        );
        let doc = json::parse(&text).unwrap();
        let m = doc.get("sets").and_then(Value::as_array).unwrap()[0]
            .get("workloads")
            .and_then(|w| w.get("w"))
            .and_then(|w| w.get("ops_per_s"))
            .unwrap();
        assert_eq!(m.get("median").and_then(Value::as_f64), Some(100.0));
        assert_eq!(m.get("bound").and_then(Value::as_f64), Some(0.1));
        assert_eq!(m.get("n").and_then(Value::as_f64), Some(3.0));
    }
}
