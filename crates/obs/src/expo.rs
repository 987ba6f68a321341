//! Prometheus text exposition (version 0.0.4): [`render`] serialises the
//! whole registry, [`validate`] is a strict well-formedness checker used by
//! tests and the CI scrape gate.

use crate::metric::{exposed_scale, Histo};
use crate::registry::{entries, Handle};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_histo(out: &mut String, name: &str, labels: &str, h: &Histo) {
    let h = h.snapshot();
    let scale = exposed_scale(name);
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    // Only occupied buckets get a boundary: the layout has 544 buckets and
    // emitting every empty one would bloat the exposition for sparse
    // histograms.
    for (max, c) in h.buckets() {
        cumulative += c;
        let le = max as f64 / scale;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
    );
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{brace} {}", h.sum() as f64 / scale);
    let _ = writeln!(out, "{name}_count{brace} {cumulative}");
}

/// Serialise every registered metric — plus the fail-point attribution
/// family `abase_failpoint_fired_total{point=…}` — as Prometheus text
/// exposition.
pub fn render() -> String {
    let mut out = String::new();
    for entry in entries() {
        let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
        let _ = writeln!(
            out,
            "# TYPE {} {}",
            entry.name,
            entry.handle.kind().type_name()
        );
        match entry.handle {
            Handle::Counter(c) => {
                let _ = writeln!(out, "{} {}", entry.name, c.get());
            }
            Handle::Gauge(g) => {
                let _ = writeln!(out, "{} {}", entry.name, g.get());
            }
            Handle::Histo(h) => render_histo(&mut out, entry.name, "", h),
            Handle::CounterFamily(f) => {
                for (label, c) in f.members() {
                    let _ = writeln!(
                        out,
                        "{}{{{}=\"{}\"}} {}",
                        entry.name,
                        f.label_key(),
                        escape_label(&label),
                        c.get()
                    );
                }
            }
            Handle::GaugeFamily(f) => {
                for (label, g) in f.members() {
                    let _ = writeln!(
                        out,
                        "{}{{{}=\"{}\"}} {}",
                        entry.name,
                        f.label_key(),
                        escape_label(&label),
                        g.get()
                    );
                }
            }
            Handle::HistoFamily(f) => {
                for (label, h) in f.members() {
                    let labels = format!("{}=\"{}\"", f.label_key(), escape_label(&label));
                    render_histo(&mut out, entry.name, &labels, h);
                }
            }
        }
    }
    let fired = abase_util::failpoint::fired_counts();
    if !fired.is_empty() {
        let _ = writeln!(
            out,
            "# HELP abase_failpoint_fired_total Injected faults fired, by fail point"
        );
        let _ = writeln!(out, "# TYPE abase_failpoint_fired_total counter");
        for (point, n) in fired {
            let _ = writeln!(
                out,
                "abase_failpoint_fired_total{{point=\"{}\"}} {}",
                escape_label(point),
                n
            );
        }
    }
    out
}

/// The base family name of a sample: `_bucket`/`_sum`/`_count` suffixes fold
/// back onto the histogram family when one is declared under that name.
fn base_name<'a>(sample: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample.strip_suffix(suffix) {
            if types.get(stripped).map(String::as_str) == Some("histogram") {
                return stripped;
            }
        }
    }
    sample
}

/// A parsed sample line: `(metric name, label pairs, value)`.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err(format!("sample without value: {line:?}")),
    };
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|_| format!("unparseable value {v:?} in {line:?}"))?,
    };
    let (name, labels) = match name_labels.find('{') {
        Some(i) => {
            let Some(body) = name_labels[i..]
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
            else {
                return Err(format!("unbalanced braces in {line:?}"));
            };
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without '=' in {line:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value in {line:?}"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            (&name_labels[..i], labels)
        }
        None => (name_labels, Vec::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok((name.to_string(), labels, value))
}

/// Check `text` is well-formed Prometheus exposition: every sample parses,
/// every sample's family has a `# TYPE`, histogram bucket series are
/// cumulative, terminated by `le="+Inf"`, and agree with `_count`.
pub fn validate(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, non-le labels) -> (last cumulative, saw +Inf, last le)
    let mut buckets: BTreeMap<String, (f64, bool, f64)> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                return Err(format!("malformed TYPE line {line:?}"));
            };
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("unknown TYPE {kind:?} in {line:?}"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        let family = base_name(&name, &types).to_string();
        if !types.contains_key(&family) {
            return Err(format!("sample {name:?} has no # TYPE declaration"));
        }
        let series_key = |labels: &[(String, String)]| {
            let mut other: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            other.sort();
            format!("{family}|{}", other.join(","))
        };
        if name == format!("{family}_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("bucket sample missing le: {line:?}"))?;
            let le_val = match le.1.as_str() {
                "+Inf" => f64::INFINITY,
                v => v.parse().map_err(|_| format!("bad le {v:?} in {line:?}"))?,
            };
            let slot =
                buckets
                    .entry(series_key(&labels))
                    .or_insert((0.0, false, f64::NEG_INFINITY));
            if value < slot.0 {
                return Err(format!("non-cumulative bucket in {line:?}"));
            }
            if le_val <= slot.2 {
                return Err(format!("non-increasing le boundary in {line:?}"));
            }
            slot.0 = value;
            slot.1 |= le_val.is_infinite();
            slot.2 = le_val;
        } else if name == format!("{family}_count") && types[&family] == "histogram" {
            counts.insert(series_key(&labels), value);
        }
    }
    for (series, (last, saw_inf, _)) in &buckets {
        if !saw_inf {
            return Err(format!("histogram series {series:?} missing le=\"+Inf\""));
        }
        if let Some(count) = counts.get(series) {
            if (count - last).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram series {series:?}: _count {count} != +Inf bucket {last}"
                ));
            }
        } else {
            return Err(format!("histogram series {series:?} missing _count"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LazyCounterFamily, LazyHisto};
    use std::time::Duration;

    static EXPO_HISTO: LazyHisto = LazyHisto::new("test_expo_micros", "test");
    static EXPO_FAMILY: LazyCounterFamily =
        LazyCounterFamily::new("test_expo_ops_total", "op", "test");

    /// The `name value` sample of `key` in `text`.
    fn sample(text: &str, key: &str) -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {key} in:\n{text}"))
    }

    #[test]
    fn rendered_exposition_validates() {
        EXPO_HISTO.record_duration(Duration::from_micros(150));
        EXPO_HISTO.record_duration(Duration::from_millis(4));
        EXPO_HISTO.record_duration(Duration::from_millis(250));
        EXPO_FAMILY.inc("get");
        EXPO_FAMILY.inc("set");
        let text = render();
        validate(&text).expect("well-formed");
        assert!(text.contains("# TYPE test_expo_micros histogram"));
        assert!(text.contains("test_expo_micros_count 3"));
        assert!(text.contains("test_expo_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("test_expo_ops_total{op=\"get\"} 1"));
    }

    #[test]
    fn a_sub_microsecond_duration_is_exposed_in_fractional_micros() {
        static SUB_US: LazyHisto = LazyHisto::new("test_expo_sub_us_micros", "test");
        SUB_US.record_duration(Duration::from_nanos(1_300));
        let text = render();
        validate(&text).expect("well-formed");
        let sum = sample(&text, "test_expo_sub_us_micros_sum");
        assert!((sum - 1.3).abs() / 1.3 < 0.031, "_sum {sum}");
        // The one occupied bucket's `le` is its largest value, 1 343 ns.
        assert!(text.contains("test_expo_sub_us_micros_bucket{le=\"1.343\"} 1"));
    }

    #[test]
    fn a_count_family_exposes_raw_counts() {
        static BATCH: LazyHisto = LazyHisto::new("abase_pipeline_batch_commands", "test");
        BATCH.record(1);
        let text = render();
        assert_eq!(sample(&text, "abase_pipeline_batch_commands_sum"), 1.0);
        assert!(text.contains("abase_pipeline_batch_commands_bucket{le=\"1\"} 1"));
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate("no_type_decl 1").is_err());
        assert!(validate("# TYPE x counter\nx notanumber").is_err());
        assert!(validate("# TYPE x counter\n1badname 3").is_err());
        // Non-cumulative buckets.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\n\
                   h_sum 9\nh_count 5\n";
        assert!(validate(bad).unwrap_err().contains("non-cumulative"));
        // Missing +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate(bad).unwrap_err().contains("+Inf"));
        // Count disagrees with +Inf bucket.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(validate(bad).unwrap_err().contains("_count"));
        // Good minimal doc passes.
        let good = "# HELP c helps\n# TYPE c counter\nc{op=\"a\"} 12\n";
        validate(good).expect("good doc");
    }
}
