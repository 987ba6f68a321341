//! What the live server says about itself: parsers for `METRICS`
//! (Prometheus text) and `INFO keyspace`, and the per-layer metrics derived
//! from the difference of two scrapes.

use crate::Metric;
use std::collections::BTreeMap;

/// One scrape: every `METRICS` sample under its `name{labels}` spelling, and
/// every numeric `INFO` field under `info:<field>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(metrics_text: &str, info_text: &str) -> Self {
        let mut samples = parse_prometheus(metrics_text);
        samples.extend(
            parse_info(info_text)
                .into_iter()
                .map(|(k, v)| (format!("info:{k}"), v)),
        );
        Scrape(samples)
    }

    /// The sample spelled exactly `key`; 0 when the server has not registered
    /// it yet (families appear on first use).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of the family `name`.
    pub fn family(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// `name{labels} value` lines; comments and blank lines are skipped.
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            // A label value may hold spaces; the sample value never does.
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.trim().to_owned(), parse_sample(value)?))
        })
        .collect()
}

fn parse_sample(value: &str) -> Option<f64> {
    match value {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        v => v.parse().ok(),
    }
}

/// `field:value` lines of an `INFO` reply whose value is a number.
pub fn parse_info(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.trim().split_once(':')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// What the client did between the two scrapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientCounts {
    pub gets: u64,
    pub sets: u64,
    /// Key + value bytes of the SETs.
    pub user_bytes_written: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the measured phases: `after - before` for counters,
/// `after` for gauges.
pub fn layer_metrics(before: &Scrape, after: &Scrape, client: ClientCounts) -> Vec<Metric> {
    let d = |key: &str| after.get(key) - before.get(key);
    let d_family = |name: &str| after.family(name) - before.family(name);
    let ops = (client.gets + client.sets) as f64;
    let gets = client.gets as f64;
    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };

    // core: stage time per served op, from the server's own spans.
    let stage = |s: &str| {
        ratio(
            d(&format!("abase_server_stage_micros_sum{{stage=\"{s}\"}}")),
            ops,
        )
    };
    push("core.stage_parse_us", stage("parse"), "us");
    push("core.stage_admission_us", stage("admission"), "us");
    push("core.stage_engine_us", stage("engine"), "us");
    push("core.stage_respond_us", stage("respond"), "us");
    let cmd = |suffix: &str| {
        ["GET", "SET"]
            .iter()
            .map(|c| {
                d(&format!(
                    "abase_server_command_micros_{suffix}{{command=\"{c}\"}}"
                ))
            })
            .sum::<f64>()
    };
    push(
        "core.command_us_mean",
        ratio(cmd("sum"), cmd("count")),
        "us",
    );
    push(
        "core.batch_cmds_mean",
        ratio(
            d("abase_pipeline_batch_commands_sum"),
            d("abase_pipeline_batch_commands_count"),
        ),
        "count",
    );
    push(
        "core.read_ru_per_op",
        ratio(d_family("abase_tenant_read_ru_total"), gets),
        "count",
    );
    push(
        "core.write_ru_per_op",
        ratio(d_family("abase_tenant_write_ru_total"), client.sets as f64),
        "count",
    );
    push(
        "core.command_errors",
        d_family("abase_server_command_errors_total"),
        "count",
    );

    // cache: the shared block cache under the SST readers.
    let hits = d("abase_block_cache_hits_total");
    let misses = d("abase_block_cache_misses_total");
    push("cache.hit_frac", ratio(hits, hits + misses), "1");
    push(
        "cache.evictions_per_get",
        ratio(d("abase_block_cache_evictions_total"), gets),
        "count",
    );
    push(
        "cache.insertions_per_get",
        ratio(d("abase_block_cache_insertions_total"), gets),
        "count",
    );
    push(
        "cache.resident_mb",
        after.get("abase_block_cache_bytes") / 1e6,
        "MB",
    );

    // lavastore: read amplification.
    let engine_gets = d("info:gets");
    let checks = d("abase_bloom_checks_total");
    push(
        "lavastore.block_reads_per_get",
        ratio(d("info:block_reads"), engine_gets),
        "count",
    );
    push(
        "lavastore.bloom_checks_per_get",
        ratio(checks, engine_gets),
        "count",
    );
    push(
        "lavastore.bloom_negative_frac",
        ratio(d("abase_bloom_negatives_total"), checks),
        "1",
    );
    push(
        "lavastore.bloom_fp_frac",
        ratio(d("abase_bloom_false_positives_total"), checks),
        "1",
    );
    push(
        "lavastore.memtable_hit_frac",
        ratio(d("info:memtable_hits"), engine_gets),
        "1",
    );

    // lavastore: background work done in the foreground.
    push("lavastore.flushes", d("abase_lava_flushes_total"), "count");
    push(
        "lavastore.flush_us_mean",
        ratio(
            d("abase_lava_flush_micros_sum"),
            d("abase_lava_flush_micros_count"),
        ),
        "us",
    );
    push(
        "lavastore.flush_bytes",
        d("abase_lava_flush_bytes_total"),
        "B",
    );
    push(
        "lavastore.compactions",
        d("abase_lava_compactions_total"),
        "count",
    );
    push(
        "lavastore.compaction_bytes",
        d("abase_lava_compaction_bytes_total"),
        "B",
    );

    // lavastore: the log.
    push(
        "lavastore.wal_append_us_mean",
        ratio(
            d("abase_lava_wal_append_micros_sum"),
            d("abase_lava_wal_append_micros_count"),
        ),
        "us",
    );
    push(
        "lavastore.wal_bytes_per_user_byte",
        ratio(
            d("abase_lava_wal_append_bytes_total"),
            client.user_bytes_written as f64,
        ),
        "B/B",
    );
    push(
        "lavastore.wal_fsyncs",
        d("abase_lava_wal_fsync_micros_count"),
        "count",
    );
    out
}

/// Bytes the server wrote to storage over its life: WAL + flush + compaction.
pub fn written_bytes(scrape: &Scrape) -> f64 {
    scrape.get("abase_lava_wal_append_bytes_total")
        + scrape.get("abase_lava_flush_bytes_total")
        + scrape.get("abase_lava_compaction_bytes_total")
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = "\
# HELP abase_server_commands_total Commands served, by command name
# TYPE abase_server_commands_total counter
abase_server_commands_total{command=\"GET\"} 2
abase_server_commands_total{command=\"SET\"} 1
abase_server_stage_micros_bucket{stage=\"engine\",le=\"+Inf\"} 4
abase_server_stage_micros_sum{stage=\"engine\"} 448.55330410711
abase_tenant_read_ru_total{tenant=\"1\"} 3
abase_tenant_read_ru_total{tenant=\"2\"} 4
abase_tenant_read_ru_totally_else{tenant=\"2\"} 100
abase_block_cache_bytes 1500000
weird_label{path=\"a b\"} 5
abase_some_gauge +Inf

not a sample line at all
";

    const INFO: &str = "\
# Keyspace\r
last_seq:1\r
gets:20\r
block_cache_hit_ratio:0.2500\r
role:none\r
leader_addr:\r
abase_server_command_micros{GET}:count=2,mean_us=61\r
";

    #[test]
    fn parses_prometheus_text() {
        let m = parse_prometheus(METRICS);
        assert_eq!(m["abase_server_commands_total{command=\"GET\"}"], 2.0);
        assert_eq!(
            m["abase_server_stage_micros_sum{stage=\"engine\"}"],
            448.55330410711
        );
        assert_eq!(
            m["abase_server_stage_micros_bucket{stage=\"engine\",le=\"+Inf\"}"],
            4.0
        );
        assert_eq!(m["weird_label{path=\"a b\"}"], 5.0);
        assert_eq!(m["abase_some_gauge"], f64::INFINITY);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn parses_numeric_info_fields_only() {
        let i = parse_info(INFO);
        assert_eq!(i["gets"], 20.0);
        assert_eq!(i["block_cache_hit_ratio"], 0.25);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn family_sums_label_sets_of_exactly_that_name() {
        let s = Scrape::parse(METRICS, INFO);
        assert_eq!(s.family("abase_tenant_read_ru_total"), 7.0);
        assert_eq!(s.get("info:gets"), 20.0);
        assert_eq!(s.get("never_registered"), 0.0);
    }

    #[test]
    fn layer_metrics_are_deltas_per_op() {
        let before = Scrape::parse(METRICS, INFO);
        let after = Scrape::parse(
            &METRICS
                .replace("448.55330410711", "1448.55330410711")
                .replace("{tenant=\"1\"} 3", "{tenant=\"1\"} 103"),
            &INFO.replace("gets:20", "gets:120"),
        );
        let client = ClientCounts {
            gets: 100,
            sets: 0,
            user_bytes_written: 0,
        };
        let m = layer_metrics(&before, &after, client);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("core.stage_engine_us"), 10.0);
        assert_eq!(get("core.read_ru_per_op"), 1.0);
        assert_eq!(get("core.write_ru_per_op"), 0.0);
        assert_eq!(get("cache.resident_mb"), 1.5);
        assert_eq!(get("lavastore.wal_bytes_per_user_byte"), 0.0);
    }
}
