//! The typed ABase command set and its one grammar.
//!
//! String commands plus the hash commands whose RU estimation the paper treats
//! specially (§4.1): `HLEN` has an unpredictable scan size estimated from
//! history, and `HGETALL` decomposes into `HLen` followed by a scan.
//!
//! [`Command`] is generic over how it holds its arguments. The server runs
//! `Command<&[u8]>`, whose arguments are slices of the connection's input
//! buffer (see [`crate::resp::RequestScanner`]) and which therefore costs no
//! allocation to build; clients, tests and the replication handshake use the
//! owned default, `Command<Bytes>`, through [`Command::from_resp`] and
//! [`Command::to_resp`]. Verb names, arity and option checks live in exactly
//! one function, [`Command::from_args`]; `from_resp` is an adapter onto it.

use crate::resp::RespValue;
use bytes::Bytes;
use std::fmt;

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<B = Bytes> {
    /// `GET key`
    Get {
        /// Key to read.
        key: B,
    },
    /// `SET key value` with optional `EX seconds`.
    Set {
        /// Key to write.
        key: B,
        /// Value to store.
        value: B,
        /// Relative TTL in seconds, if given (`SET … EX n` / `SETEX`).
        ttl_secs: Option<u64>,
    },
    /// `DEL key [key …]`
    Del {
        /// Keys to delete.
        keys: Vec<B>,
    },
    /// `EXISTS key`
    Exists {
        /// Key to probe.
        key: B,
    },
    /// `EXPIRE key seconds`
    Expire {
        /// Key to re-arm.
        key: B,
        /// Relative TTL in seconds.
        secs: u64,
    },
    /// `HSET key field value [field value …]`
    HSet {
        /// Hash key.
        key: B,
        /// Field/value pairs.
        pairs: Vec<(B, B)>,
    },
    /// `HGET key field`
    HGet {
        /// Hash key.
        key: B,
        /// Field to read.
        field: B,
    },
    /// `HDEL key field [field …]`
    HDel {
        /// Hash key.
        key: B,
        /// Fields to remove.
        fields: Vec<B>,
    },
    /// `HLEN key` — a complex read: scan size unknown a priori.
    HLen {
        /// Hash key.
        key: B,
    },
    /// `HGETALL key` — a complex read: `HLen` + scan.
    HGetAll {
        /// Hash key.
        key: B,
    },
    /// `WAIT numreplicas timeout-ms` — block until that many replicas have
    /// acknowledged the *connection's* last write (Redis replication
    /// semantics; the reply is the number of replicas that actually have —
    /// a session that never wrote has nothing to fence on and gets the
    /// current ack count immediately).
    Wait {
        /// Follower acknowledgements required.
        numreplicas: u64,
        /// Wait budget in milliseconds. `0` means "no client-imposed limit":
        /// the server substitutes its own max-wait cap (it never blocks a
        /// connection forever on a dead follower).
        timeout_ms: u64,
    },
    /// `REPLCONF key value [key value …]` — replication handshake chatter
    /// (`listening-port`, `replica-id`, `ack <lsn>`). Accepted and
    /// acknowledged; on a replica connection, `ack` feeds the leader's
    /// per-follower acked-LSN accounting.
    ReplConf {
        /// Key/value option pairs as sent.
        pairs: Vec<(B, B)>,
    },
    /// `PSYNC segment offset` — a follower asks the leader to stream framed
    /// binlog records starting at `(segment, offset)` of the leader's WAL.
    /// `PSYNC ? -1` requests a full resynchronization (the follower has no
    /// usable position). The leader replies `+CONTINUE` and streams, or
    /// `+FULLRESYNC` when the asked position fell off retention — the
    /// follower then pulls a checkpoint and re-issues PSYNC at its edge.
    PSync {
        /// Resume position in the leader's WAL; `None` asks for a full
        /// resync (`PSYNC ? -1`).
        position: Option<(u64, u64)>,
    },
    /// `CONSISTENCY [level]` — set the connection's read-consistency level
    /// (`eventual`, `readyourwrites`/`ryw`, `leader`); without an argument,
    /// report the current level. Routed reads at `eventual`/`ryw` may be
    /// served by follower replicas.
    Consistency {
        /// Requested level name, when setting.
        level: Option<B>,
    },
    /// `INFO [section]` — human-readable server status, redis-style: named
    /// sections (`server`, `replication`, `keyspace`, `stats`, `latency`) of
    /// `key:value` lines. Without an argument every section is returned.
    Info {
        /// Requested section name, when given.
        section: Option<B>,
    },
    /// `SLOWLOG GET [count] | RESET | LEN` — query the server's ring of
    /// operations that exceeded the slow-op threshold.
    Slowlog {
        /// Which subcommand was requested.
        sub: SlowlogSub,
    },
    /// `METRICS` — dump the whole metrics registry as Prometheus text
    /// exposition (one bulk string), for scraping.
    Metrics,
    /// `PING`
    Ping,
}

/// The `SLOWLOG` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowlogSub {
    /// `SLOWLOG GET [count]` — most recent entries, newest first.
    Get {
        /// Entry cap; server default when absent.
        count: Option<u64>,
    },
    /// `SLOWLOG RESET` — drop every captured entry.
    Reset,
    /// `SLOWLOG LEN` — number of captured entries.
    Len,
}

/// Coarse classification used by quotas and the WFQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Point read with predictable shape.
    SimpleRead,
    /// Multi-stage read with history-estimated cost (`HLEN`, `HGETALL`).
    ComplexRead,
    /// Any mutation.
    Write,
    /// Control-plane chatter (`PING`).
    Control,
}

/// Command parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommandError(pub String);

impl fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad command: {}", self.0)
    }
}

impl std::error::Error for ParseCommandError {}

fn err(msg: impl Into<String>) -> ParseCommandError {
    ParseCommandError(msg.into())
}

fn as_bulk(v: &RespValue) -> Result<Bytes, ParseCommandError> {
    match v {
        RespValue::Bulk(Some(b)) => Ok(b.clone()),
        other => Err(err(format!("expected bulk string, got {other:?}"))),
    }
}

fn as_u64(raw: &[u8]) -> Option<u64> {
    std::str::from_utf8(raw).ok()?.parse().ok()
}

impl Command<Bytes> {
    /// Parse a client RESP array (`*N` of bulk strings) into an owned
    /// command: an adapter onto [`Command::from_args`], which reads each
    /// item as a bulk string only when the grammar asks for it.
    pub fn from_resp(value: &RespValue) -> Result<Self, ParseCommandError> {
        let RespValue::Array(Some(items)) = value else {
            return Err(err("commands must be RESP arrays"));
        };
        Command::from_args(items.len(), |i| as_bulk(&items[i]))
    }

    /// Build the `REPLCONF ack <lsn>` frame a follower sends after applying
    /// shipped records.
    pub fn replconf_ack(lsn: u64) -> Self {
        Command::ReplConf {
            pairs: vec![(
                Bytes::copy_from_slice(b"ack"),
                Bytes::copy_from_slice(lsn.to_string().as_bytes()),
            )],
        }
    }
}

impl<B: AsRef<[u8]>> Command<B> {
    /// **The grammar**: the one place verb names are matched and arity and
    /// options are checked. `argc` counts the frame's items, verb included;
    /// `arg(i)` yields item `i` (`i < argc`) or the reason it cannot be read
    /// as an argument. The server passes slices of its input buffer and gets
    /// a `Command<&[u8]>`; [`Command::from_resp`] passes the bulk strings of
    /// a [`RespValue`] array. The verb is compared case-insensitively in
    /// place, so an accepted command allocates only the `Vec`s of the
    /// variadic verbs.
    pub fn from_args(
        argc: usize,
        arg: impl Fn(usize) -> Result<B, ParseCommandError>,
    ) -> Result<Self, ParseCommandError> {
        if argc == 0 {
            return Err(err("empty command array"));
        }
        let verb = arg(0)?;
        let verb =
            std::str::from_utf8(verb.as_ref()).map_err(|_| err("command name must be UTF-8"))?;
        let is = |name: &str| verb.eq_ignore_ascii_case(name);
        // Arguments after the verb: `args(i)` is frame item `i + 1`.
        let n = argc - 1;
        let args = |i: usize| arg(i + 1);
        let uint =
            |i: usize| as_u64(args(i)?.as_ref()).ok_or_else(|| err("expected unsigned integer"));
        let want = |name: &str, arity: usize| {
            if n == arity {
                Ok(())
            } else {
                Err(err(format!("{name} expects {arity} arguments, got {n}")))
            }
        };
        if is("GET") {
            want("GET", 1)?;
            Ok(Command::Get { key: args(0)? })
        } else if is("SET") {
            if n == 2 {
                Ok(Command::Set {
                    key: args(0)?,
                    value: args(1)?,
                    ttl_secs: None,
                })
            } else if n == 4 {
                if !args(2)?.as_ref().eq_ignore_ascii_case(b"EX") {
                    return Err(err("SET only supports the EX option"));
                }
                Ok(Command::Set {
                    key: args(0)?,
                    value: args(1)?,
                    ttl_secs: Some(uint(3)?),
                })
            } else {
                Err(err("SET expects: key value [EX seconds]"))
            }
        } else if is("PING") {
            want("PING", 0)?;
            Ok(Command::Ping)
        } else if is("SETEX") {
            want("SETEX", 3)?;
            Ok(Command::Set {
                key: args(0)?,
                value: args(2)?,
                ttl_secs: Some(uint(1)?),
            })
        } else if is("DEL") {
            if n == 0 {
                return Err(err("DEL expects at least one key"));
            }
            Ok(Command::Del {
                keys: (0..n).map(args).collect::<Result<_, _>>()?,
            })
        } else if is("EXISTS") {
            want("EXISTS", 1)?;
            Ok(Command::Exists { key: args(0)? })
        } else if is("EXPIRE") {
            want("EXPIRE", 2)?;
            Ok(Command::Expire {
                key: args(0)?,
                secs: uint(1)?,
            })
        } else if is("HSET") {
            if n < 3 || n.is_multiple_of(2) {
                return Err(err("HSET expects key followed by field/value pairs"));
            }
            let key = args(0)?;
            let mut pairs = Vec::with_capacity((n - 1) / 2);
            for i in (1..n).step_by(2) {
                pairs.push((args(i)?, args(i + 1)?));
            }
            Ok(Command::HSet { key, pairs })
        } else if is("HGET") {
            want("HGET", 2)?;
            Ok(Command::HGet {
                key: args(0)?,
                field: args(1)?,
            })
        } else if is("HDEL") {
            if n < 2 {
                return Err(err("HDEL expects key and at least one field"));
            }
            Ok(Command::HDel {
                key: args(0)?,
                fields: (1..n).map(args).collect::<Result<_, _>>()?,
            })
        } else if is("HLEN") {
            want("HLEN", 1)?;
            Ok(Command::HLen { key: args(0)? })
        } else if is("HGETALL") {
            want("HGETALL", 1)?;
            Ok(Command::HGetAll { key: args(0)? })
        } else if is("WAIT") {
            want("WAIT", 2)?;
            Ok(Command::Wait {
                numreplicas: uint(0)?,
                timeout_ms: uint(1)?,
            })
        } else if is("REPLCONF") {
            if n == 0 || !n.is_multiple_of(2) {
                return Err(err("REPLCONF expects key/value pairs"));
            }
            let mut pairs = Vec::with_capacity(n / 2);
            for i in (0..n).step_by(2) {
                pairs.push((args(i)?, args(i + 1)?));
            }
            Ok(Command::ReplConf { pairs })
        } else if is("PSYNC") {
            want("PSYNC", 2)?;
            let seg = args(0)?;
            let off = args(1)?;
            if seg.as_ref() == b"?" || off.as_ref() == b"-1" {
                return Ok(Command::PSync { position: None });
            }
            let position = |raw: &B| {
                as_u64(raw.as_ref()).ok_or_else(|| err("PSYNC expects `segment offset` or `? -1`"))
            };
            Ok(Command::PSync {
                position: Some((position(&seg)?, position(&off)?)),
            })
        } else if is("CONSISTENCY") {
            if n > 1 {
                return Err(err("CONSISTENCY expects at most one level argument"));
            }
            Ok(Command::Consistency {
                level: (n == 1).then(|| args(0)).transpose()?,
            })
        } else if is("INFO") {
            if n > 1 {
                return Err(err("INFO expects at most one section argument"));
            }
            Ok(Command::Info {
                section: (n == 1).then(|| args(0)).transpose()?,
            })
        } else if is("SLOWLOG") {
            if n == 0 {
                return Err(err("SLOWLOG expects GET|RESET|LEN"));
            }
            let sub = args(0)?;
            let sub_is = |name: &str| sub.as_ref().eq_ignore_ascii_case(name.as_bytes());
            let sub = if sub_is("GET") {
                if n > 2 {
                    return Err(err("SLOWLOG GET expects at most one count"));
                }
                SlowlogSub::Get {
                    count: (n == 2).then(|| uint(1)).transpose()?,
                }
            } else if sub_is("RESET") {
                want("SLOWLOG", 1)?;
                SlowlogSub::Reset
            } else if sub_is("LEN") {
                want("SLOWLOG", 1)?;
                SlowlogSub::Len
            } else {
                return Err(err("SLOWLOG expects GET|RESET|LEN"));
            };
            Ok(Command::Slowlog { sub })
        } else if is("METRICS") {
            want("METRICS", 0)?;
            Ok(Command::Metrics)
        } else {
            let mut shown = verb.to_owned();
            shown.make_ascii_uppercase();
            Err(err(format!("unknown command {shown}")))
        }
    }

    /// Serialize the command back to its RESP array form.
    pub fn to_resp(&self) -> RespValue {
        let mut items: Vec<RespValue> = Vec::new();
        let mut push = |s: &[u8]| items.push(RespValue::bulk(Bytes::copy_from_slice(s)));
        push(self.name().as_bytes());
        match self {
            Command::Ping | Command::Metrics => {}
            Command::Get { key }
            | Command::Exists { key }
            | Command::HLen { key }
            | Command::HGetAll { key } => push(key.as_ref()),
            Command::Set {
                key,
                value,
                ttl_secs,
            } => {
                push(key.as_ref());
                push(value.as_ref());
                if let Some(ttl) = ttl_secs {
                    push(b"EX");
                    push(ttl.to_string().as_bytes());
                }
            }
            Command::Del { keys } => {
                for k in keys {
                    push(k.as_ref());
                }
            }
            Command::Expire { key, secs } => {
                push(key.as_ref());
                push(secs.to_string().as_bytes());
            }
            Command::HSet { key, pairs } => {
                push(key.as_ref());
                for (f, v) in pairs {
                    push(f.as_ref());
                    push(v.as_ref());
                }
            }
            Command::HGet { key, field } => {
                push(key.as_ref());
                push(field.as_ref());
            }
            Command::HDel { key, fields } => {
                push(key.as_ref());
                for f in fields {
                    push(f.as_ref());
                }
            }
            Command::Wait {
                numreplicas,
                timeout_ms,
            } => {
                push(numreplicas.to_string().as_bytes());
                push(timeout_ms.to_string().as_bytes());
            }
            Command::ReplConf { pairs } => {
                for (k, v) in pairs {
                    push(k.as_ref());
                    push(v.as_ref());
                }
            }
            Command::PSync { position } => match position {
                Some((seg, off)) => {
                    push(seg.to_string().as_bytes());
                    push(off.to_string().as_bytes());
                }
                None => {
                    push(b"?");
                    push(b"-1");
                }
            },
            Command::Consistency { level: arg } | Command::Info { section: arg } => {
                if let Some(arg) = arg {
                    push(arg.as_ref());
                }
            }
            Command::Slowlog { sub } => match sub {
                SlowlogSub::Get { count } => {
                    push(b"GET");
                    if let Some(count) = count {
                        push(count.to_string().as_bytes());
                    }
                }
                SlowlogSub::Reset => push(b"RESET"),
                SlowlogSub::Len => push(b"LEN"),
            },
        }
        RespValue::array(items)
    }

    /// The value of a named `REPLCONF` option (`listening-port`,
    /// `replica-id`, `ack`), parsed as an unsigned integer.
    pub fn replconf_option(&self, name: &str) -> Option<u64> {
        let Command::ReplConf { pairs } = self else {
            return None;
        };
        pairs.iter().find_map(|(k, v)| {
            k.as_ref()
                .eq_ignore_ascii_case(name.as_bytes())
                .then(|| as_u64(v.as_ref()))
                .flatten()
        })
    }

    /// The acked LSN carried by a `REPLCONF ack <lsn>` frame, if this is one.
    pub fn replconf_ack_lsn(&self) -> Option<u64> {
        self.replconf_option("ack")
    }

    /// Payload bytes carried by the request (for write sizing / size class).
    pub fn payload_size(&self) -> usize {
        let len = |b: &B| b.as_ref().len();
        match self {
            Command::Set { key, value, .. } => len(key) + len(value),
            Command::HSet { key, pairs } => {
                len(key) + pairs.iter().map(|(f, v)| len(f) + len(v)).sum::<usize>()
            }
            Command::Del { keys } => keys.iter().map(len).sum(),
            Command::HDel { key, fields } => len(key) + fields.iter().map(len).sum::<usize>(),
            Command::Get { key }
            | Command::Exists { key }
            | Command::Expire { key, .. }
            | Command::HGet { key, .. }
            | Command::HLen { key }
            | Command::HGetAll { key } => len(key),
            Command::ReplConf { pairs } => pairs.iter().map(|(k, v)| len(k) + len(v)).sum(),
            Command::Consistency { level: arg } | Command::Info { section: arg } => {
                arg.as_ref().map_or(0, len)
            }
            Command::Ping
            | Command::Wait { .. }
            | Command::PSync { .. }
            | Command::Slowlog { .. }
            | Command::Metrics => 0,
        }
    }
}

impl<B> Command<B> {
    /// The canonical uppercase command name (the metrics `command` label).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Get { .. } => "GET",
            Command::Set { .. } => "SET",
            Command::Del { .. } => "DEL",
            Command::Exists { .. } => "EXISTS",
            Command::Expire { .. } => "EXPIRE",
            Command::HSet { .. } => "HSET",
            Command::HGet { .. } => "HGET",
            Command::HDel { .. } => "HDEL",
            Command::HLen { .. } => "HLEN",
            Command::HGetAll { .. } => "HGETALL",
            Command::Wait { .. } => "WAIT",
            Command::ReplConf { .. } => "REPLCONF",
            Command::PSync { .. } => "PSYNC",
            Command::Consistency { .. } => "CONSISTENCY",
            Command::Info { .. } => "INFO",
            Command::Slowlog { .. } => "SLOWLOG",
            Command::Metrics => "METRICS",
            Command::Ping => "PING",
        }
    }

    /// Coarse classification for quotas and queue selection.
    pub fn kind(&self) -> CommandKind {
        match self {
            Command::Get { .. } | Command::Exists { .. } | Command::HGet { .. } => {
                CommandKind::SimpleRead
            }
            Command::HLen { .. } | Command::HGetAll { .. } => CommandKind::ComplexRead,
            Command::Set { .. }
            | Command::Del { .. }
            | Command::Expire { .. }
            | Command::HSet { .. }
            | Command::HDel { .. } => CommandKind::Write,
            Command::Ping
            | Command::Wait { .. }
            | Command::ReplConf { .. }
            | Command::PSync { .. }
            | Command::Consistency { .. }
            | Command::Info { .. }
            | Command::Slowlog { .. }
            | Command::Metrics => CommandKind::Control,
        }
    }

    /// True for mutations.
    pub fn is_write(&self) -> bool {
        self.kind() == CommandKind::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Command, ParseCommandError> {
        let items = parts
            .iter()
            .map(|p| RespValue::bulk(Bytes::copy_from_slice(p.as_bytes())))
            .collect();
        Command::from_resp(&RespValue::array(items))
    }

    #[test]
    fn parses_string_commands() {
        assert_eq!(
            parse(&["GET", "k"]).unwrap(),
            Command::Get { key: "k".into() }
        );
        assert_eq!(
            parse(&["set", "k", "v"]).unwrap(),
            Command::Set {
                key: "k".into(),
                value: "v".into(),
                ttl_secs: None
            }
        );
        assert_eq!(
            parse(&["SET", "k", "v", "EX", "30"]).unwrap(),
            Command::Set {
                key: "k".into(),
                value: "v".into(),
                ttl_secs: Some(30)
            }
        );
        assert_eq!(
            parse(&["SETEX", "k", "60", "v"]).unwrap(),
            Command::Set {
                key: "k".into(),
                value: "v".into(),
                ttl_secs: Some(60)
            }
        );
    }

    #[test]
    fn parses_hash_commands() {
        assert_eq!(
            parse(&["HSET", "h", "f1", "v1", "f2", "v2"]).unwrap(),
            Command::HSet {
                key: "h".into(),
                pairs: vec![("f1".into(), "v1".into()), ("f2".into(), "v2".into())]
            }
        );
        assert_eq!(
            parse(&["HGETALL", "h"]).unwrap(),
            Command::HGetAll { key: "h".into() }
        );
        assert_eq!(
            parse(&["HLEN", "h"]).unwrap(),
            Command::HLen { key: "h".into() }
        );
    }

    #[test]
    fn rejects_malformed_commands() {
        assert!(parse(&["GET"]).is_err());
        assert!(parse(&["SET", "k"]).is_err());
        assert!(parse(&["HSET", "h", "f1"]).is_err());
        assert!(parse(&["EXPIRE", "k", "soon"]).is_err());
        assert!(parse(&["NOSUCH", "x"]).is_err());
        assert!(Command::from_resp(&RespValue::Integer(1)).is_err());
    }

    #[test]
    fn resp_roundtrip() {
        let cmds = vec![
            Command::Get { key: "k".into() },
            Command::Set {
                key: "k".into(),
                value: "v".into(),
                ttl_secs: Some(5),
            },
            Command::Del {
                keys: vec!["a".into(), "b".into()],
            },
            Command::HSet {
                key: "h".into(),
                pairs: vec![("f".into(), "v".into())],
            },
            Command::HGetAll { key: "h".into() },
            Command::Ping,
        ];
        for cmd in cmds {
            let round = Command::from_resp(&cmd.to_resp()).unwrap();
            assert_eq!(round, cmd);
        }
    }

    #[test]
    fn parses_consistency_command() {
        assert_eq!(
            parse(&["CONSISTENCY", "eventual"]).unwrap(),
            Command::Consistency {
                level: Some("eventual".into())
            }
        );
        assert_eq!(
            parse(&["consistency"]).unwrap(),
            Command::Consistency { level: None }
        );
        assert!(parse(&["CONSISTENCY", "a", "b"]).is_err());
        let cmd = parse(&["CONSISTENCY", "ryw"]).unwrap();
        assert_eq!(cmd.kind(), CommandKind::Control);
        assert_eq!(Command::from_resp(&cmd.to_resp()).unwrap(), cmd);
    }

    #[test]
    fn parses_psync_and_replconf_ack() {
        assert_eq!(
            parse(&["PSYNC", "3", "128"]).unwrap(),
            Command::PSync {
                position: Some((3, 128))
            }
        );
        assert_eq!(
            parse(&["psync", "?", "-1"]).unwrap(),
            Command::PSync { position: None }
        );
        assert!(parse(&["PSYNC", "3"]).is_err());
        assert!(parse(&["PSYNC", "x", "y"]).is_err());
        for cmd in [
            Command::PSync {
                position: Some((7, 42)),
            },
            Command::PSync { position: None },
        ] {
            assert_eq!(Command::from_resp(&cmd.to_resp()).unwrap(), cmd);
            assert_eq!(cmd.kind(), CommandKind::Control);
        }
        let ack = Command::replconf_ack(99);
        assert_eq!(ack.replconf_ack_lsn(), Some(99));
        assert_eq!(Command::from_resp(&ack.to_resp()).unwrap(), ack);
        let hs = parse(&["REPLCONF", "listening-port", "6380", "replica-id", "7"]).unwrap();
        assert_eq!(hs.replconf_option("listening-port"), Some(6380));
        assert_eq!(hs.replconf_option("replica-id"), Some(7));
        assert_eq!(hs.replconf_ack_lsn(), None);
    }

    #[test]
    fn parses_observability_commands() {
        assert_eq!(parse(&["INFO"]).unwrap(), Command::Info { section: None });
        assert_eq!(
            parse(&["info", "replication"]).unwrap(),
            Command::Info {
                section: Some("replication".into())
            }
        );
        assert!(parse(&["INFO", "a", "b"]).is_err());
        assert_eq!(
            parse(&["SLOWLOG", "GET"]).unwrap(),
            Command::Slowlog {
                sub: SlowlogSub::Get { count: None }
            }
        );
        assert_eq!(
            parse(&["slowlog", "get", "5"]).unwrap(),
            Command::Slowlog {
                sub: SlowlogSub::Get { count: Some(5) }
            }
        );
        assert_eq!(
            parse(&["SLOWLOG", "RESET"]).unwrap(),
            Command::Slowlog {
                sub: SlowlogSub::Reset
            }
        );
        assert_eq!(
            parse(&["SLOWLOG", "len"]).unwrap(),
            Command::Slowlog {
                sub: SlowlogSub::Len
            }
        );
        assert!(parse(&["SLOWLOG"]).is_err());
        assert!(parse(&["SLOWLOG", "TRUNCATE"]).is_err());
        assert!(parse(&["SLOWLOG", "RESET", "1"]).is_err());
        assert_eq!(parse(&["METRICS"]).unwrap(), Command::Metrics);
        assert!(parse(&["METRICS", "x"]).is_err());
        for cmd in [
            Command::Info {
                section: Some("stats".into()),
            },
            Command::Slowlog {
                sub: SlowlogSub::Get { count: Some(3) },
            },
            Command::Slowlog {
                sub: SlowlogSub::Len,
            },
            Command::Metrics,
        ] {
            assert_eq!(Command::from_resp(&cmd.to_resp()).unwrap(), cmd);
            assert_eq!(cmd.kind(), CommandKind::Control);
        }
    }

    #[test]
    fn names_match_wire_spelling() {
        for (cmd, want) in [
            (parse(&["GET", "k"]).unwrap(), "GET"),
            (parse(&["set", "k", "v"]).unwrap(), "SET"),
            (parse(&["hgetall", "h"]).unwrap(), "HGETALL"),
            (parse(&["INFO"]).unwrap(), "INFO"),
            (parse(&["SLOWLOG", "LEN"]).unwrap(), "SLOWLOG"),
            (parse(&["METRICS"]).unwrap(), "METRICS"),
            (parse(&["PING"]).unwrap(), "PING"),
        ] {
            assert_eq!(cmd.name(), want);
        }
    }

    #[test]
    fn classification() {
        assert_eq!(
            parse(&["GET", "k"]).unwrap().kind(),
            CommandKind::SimpleRead
        );
        assert_eq!(
            parse(&["HGETALL", "h"]).unwrap().kind(),
            CommandKind::ComplexRead
        );
        assert_eq!(
            parse(&["SET", "k", "v"]).unwrap().kind(),
            CommandKind::Write
        );
        assert!(parse(&["DEL", "k"]).unwrap().is_write());
        assert_eq!(parse(&["PING"]).unwrap().kind(), CommandKind::Control);
    }

    #[test]
    fn payload_size_counts_key_and_value() {
        let set = parse(&["SET", "key", "0123456789"]).unwrap();
        assert_eq!(set.payload_size(), 13);
    }
}
