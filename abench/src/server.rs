//! The server as an operator runs it: a child process of the release
//! `abase-server`, its `/proc` counters, and the scratch space it writes to.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The data dir of one server may not pass this; `set_stream`, the workload
/// that writes the most, stays well under it.
pub const DATA_DIR_CAP_BYTES: u64 = 1 << 30;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, 100 on
/// every Linux target Rust supports).
const TICKS_PER_S: f64 = 100.0;

/// Set by SIGINT/SIGTERM; the phases poll it and return, so the guards drop.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// `Err` once a signal asked the run to stop.
pub fn check_interrupted() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::Relaxed) {
        Err("interrupted".into())
    } else {
        Ok(())
    }
}

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Turn Ctrl-C and SIGTERM into a flag instead of an immediate exit, so the
/// child is killed and the scratch dir removed on the way out.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    for signum in [SIGINT, SIGTERM] {
        // SAFETY: `signal` is the C library's (std links it); `on_signal` has
        // the handler's signature and only stores to an atomic, which is
        // async-signal-safe.
        unsafe { signal(signum, on_signal) };
    }
}

/// Where this benchmark's build outputs live: the directory holding
/// `release/abench`, so the server is built next to it.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/abench, or <target>/release/deps/abench-<hash> under `cargo test`.
    exe.ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// Build the release `abase-server` from the repository in the current
/// directory into `target`, and return the executable. Cargo does nothing
/// when it is fresh.
pub fn build_server(target: &Path) -> Result<PathBuf, String> {
    if !Path::new("src/bin/abase-server.rs").exists() {
        return Err(
            "run abench from the root of the abase repository: src/bin/abase-server.rs is not here"
                .into(),
        );
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "abase-server",
        ])
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release --bin abase-server failed: {status}"
        ));
    }
    server_binary(target)
}

/// The server executable next to abench's own, or a clear error.
pub fn server_binary(target: &Path) -> Result<PathBuf, String> {
    let bin = target.join("release").join("abase-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing: build it with `cargo build --release --bin abase-server --target-dir {}`",
            bin.display(),
            target.display()
        ))
    }
}

/// A scratch directory under `<target>/abench-tmp`, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(target: &Path, tag: &str) -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let root = target.join("abench-tmp");
        sweep_dead_owners(&root);
        let dir = root.join(format!(
            "{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Remove scratch dirs whose owning process is gone (it was killed with a
/// signal no handler can catch).
fn sweep_dead_owners(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let owner = name.to_string_lossy().split('-').next().map(str::to_owned);
        if let Some(pid) = owner.and_then(|p| p.parse::<u32>().ok()) {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Number of `*.sst` files in the data dir.
pub fn sst_files(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "sst"))
            .count() as u64
    })
}

/// A running `abase-server`. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Start `bin` on an ephemeral loopback port over `data_dir` and wait for
    /// its `listening on` line.
    pub fn spawn(bin: &Path, data_dir: &Path, cache_bytes: Option<usize>) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("127.0.0.1:0")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            // The server's defaults are what is measured: drop any override
            // the caller's shell carries.
            .env_remove("ABASE_IO_THREADS")
            .env_remove("ABASE_MAX_CLIENTS")
            .env_remove("ABASE_IDLE_TIMEOUT_SECS")
            .env_remove("ABASE_SLOWLOG_MICROS")
            .env_remove("ABASE_BLOCK_CACHE_BYTES");
        if let Some(bytes) = cache_bytes {
            cmd.env("ABASE_BLOCK_CACHE_BYTES", bytes.to_string());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("abase-server exited before printing its address".into());
                }
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_owned();
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU seconds (user + system, all threads) process `pid` has used.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    parse_stat_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 / TICKS_PER_S)
        .ok_or_else(|| format!("cannot parse /proc/{pid}/stat"))
}

/// utime + stime (fields 14 and 15). The command name, field 2, may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> Result<u64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    parse_status_kb(&status, "VmHWM")
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat =
            "123 (a b) c) S 1 123 123 0 -1 4194560 500 0 0 0 77 23 0 0 20 0 5 0 100 1000 200";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(100));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tabase-server\nVmPeak:\t  999 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(81234));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn own_cpu_time_is_readable() {
        assert!(cpu_seconds("self").unwrap() >= 0.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_sized() {
        let target = target_dir().unwrap();
        let dir = ScratchDir::new(&target, "unit").unwrap();
        let path = dir.path().to_path_buf();
        fs::write(path.join("a.sst"), [0u8; 10]).unwrap();
        fs::create_dir(path.join("sub")).unwrap();
        fs::write(path.join("sub").join("b.log"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&path), 15);
        assert_eq!(sst_files(&path), 1);
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn a_missing_server_binary_is_a_clear_error() {
        let err = server_binary(Path::new("/nonexistent-target")).unwrap_err();
        assert!(err.contains("abase-server is missing"), "{err}");
    }
}
