//! Quickstart: a multi-tenant key-value store over the real storage engine.
//!
//! Demonstrates the paper's data model (§3.1) end to end: Redis-protocol
//! commands, tenant namespacing, TTLs against virtual time, hash tables, and
//! the LSM engine's flush/compaction lifecycle underneath.
//!
//! Run with: `cargo run --example quickstart`. It exits non-zero if no
//! compaction round runs, a bulk key reads back wrong after compaction, or
//! `HGETALL` returns a different number of fields after compaction than
//! before it.

use abase::core::engine::TableEngine;
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::util::clock::secs;

/// The owned command: `"key".into()` needs the argument type named.
type Command = abase::proto::Command<bytes::Bytes>;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("abase-quickstart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = DbConfig {
        memtable_bytes: 256 << 10, // small memtable so the example exercises compaction
        ..DbConfig::default()
    };
    let engine = TableEngine::open(&dir, config)?;
    println!("opened ABase table engine at {}", dir.display());

    // --- Two tenants write the same key: namespaces keep them apart. ---
    fn set(key: &str, value: &str) -> Command {
        Command::Set {
            key: bytes::Bytes::copy_from_slice(key.as_bytes()),
            value: bytes::Bytes::copy_from_slice(value.as_bytes()),
            ttl_secs: None,
        }
    }
    engine.execute(1, &set("profile:42", "tenant-one's data"), 0)?;
    engine.execute(2, &set("profile:42", "tenant-two's data"), 0)?;
    for tenant in [1u32, 2] {
        let out = engine.execute(
            tenant,
            &Command::Get {
                key: "profile:42".into(),
            },
            0,
        )?;
        println!("tenant {tenant} reads profile:42 -> {:?}", out.reply);
    }

    // --- TTLs: the advertisement workload's 3-hour expiry (Table 1). ---
    engine.execute(
        1,
        &Command::Set {
            key: "ad-join:event".into(),
            value: "impression-payload".into(),
            ttl_secs: Some(3 * 3600),
        },
        0,
    )?;
    let before = engine.execute(
        1,
        &Command::Get {
            key: "ad-join:event".into(),
        },
        secs(3 * 3600 - 1),
    )?;
    let after = engine.execute(
        1,
        &Command::Get {
            key: "ad-join:event".into(),
        },
        secs(3 * 3600 + 1),
    )?;
    println!(
        "ad payload 1s before TTL: {}, 1s after: {}",
        if matches!(before.reply, RespValue::Bulk(Some(_))) {
            "present"
        } else {
            "gone"
        },
        if matches!(after.reply, RespValue::Bulk(Some(_))) {
            "present"
        } else {
            "gone"
        },
    );

    // --- Hash commands: the complex reads of §4.1. ---
    engine.execute(
        1,
        &Command::HSet {
            key: "video:1001".into(),
            pairs: vec![
                ("title".into(), "cat jumps".into()),
                ("likes".into(), "1024".into()),
                ("author".into(), "u/whiskers".into()),
            ],
        },
        0,
    )?;
    let hlen = engine.execute(
        1,
        &Command::HLen {
            key: "video:1001".into(),
        },
        0,
    )?;
    let hgetall = || {
        engine.execute(
            1,
            &Command::HGetAll {
                key: "video:1001".into(),
            },
            0,
        )
    };
    // HGETALL replies field, value, field, value, ...
    let fields = |reply: &RespValue| match reply {
        RespValue::Array(Some(items)) => items.len() / 2,
        _ => 0,
    };
    let all = hgetall()?;
    println!(
        "video:1001 has {:?} fields; HGETALL returned {} bytes",
        hlen.reply, all.bytes_returned
    );

    // --- Push the engine through flush + compaction and read back. ---
    for i in 0..20_000u32 {
        engine.execute(1, &set(&format!("bulk:{i:06}"), &format!("value-{i}")), 0)?;
    }
    engine.db().flush()?;
    let compactions = engine.db().compact_to_quiescence(0)?;
    let check = engine.execute(
        1,
        &Command::Get {
            key: "bulk:013337".into(),
        },
        0,
    )?;
    println!(
        "after {} compaction rounds: bulk:013337 -> {:?} (cost {} block I/Os)",
        compactions, check.reply, check.io_ops
    );
    let all_after = hgetall()?;
    println!(
        "HGETALL video:1001 after compaction: {} fields (before: {})",
        fields(&all_after.reply),
        fields(&all.reply)
    );
    let stats = engine.db().stats();
    println!(
        "engine stats: {} puts, {} gets, {} flushes, {} compactions, {} SST bytes written",
        stats.puts, stats.gets, stats.flushes, stats.compactions, stats.sst_bytes_written
    );

    std::fs::remove_dir_all(&dir).ok();
    if compactions == 0 {
        return Err("no compaction round ran".into());
    }
    if check.reply != RespValue::Bulk(Some("value-13337".into())) {
        return Err(format!("bulk:013337 read back as {:?}", check.reply).into());
    }
    if fields(&all_after.reply) != fields(&all.reply) {
        return Err("HGETALL lost or gained fields across compaction".into());
    }
    Ok(())
}
