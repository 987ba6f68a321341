//! # abase-proto
//!
//! The Redis wire protocol (RESP2) and the command subset ABase exposes.
//!
//! "ABase supports the Redis protocol to ease adoption for users familiar with
//! Redis" (paper §3.1). This crate provides:
//!
//! * [`resp`] — the owned RESP2 value model ([`RespValue`]: incremental
//!   parser and serializer, the client-side and reply-side API) and the
//!   server's allocation-free [`RequestScanner`], which reads one command
//!   frame into argument slices borrowed from the input.
//! * [`command`] — the typed command set, including the string commands whose
//!   RU estimation §4.1 discusses (`GET`/`SET`) and the complex hash commands
//!   (`HLEN`, `HGETALL`) whose costs are decomposed into stages. The one
//!   verb-and-arity grammar is [`Command::from_args`]; the server runs it
//!   over borrowed arguments (`Command<&[u8]>`), clients reach it through
//!   [`Command::from_resp`] (`Command<Bytes>`).

#![deny(missing_docs)]

pub mod command;
pub mod resp;

pub use command::{Command, CommandKind, ParseCommandError, SlowlogSub};
pub use resp::{Argv, Batch, ParseError, RequestScanner, RespValue, Scanned};
