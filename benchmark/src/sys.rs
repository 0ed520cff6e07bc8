//! The little the benchmark needs from the operating system: CPU time and
//! peak memory of the processes under test, and a fingerprint of the host.
//!
//! `getrusage` and `wait4` are declared here by hand: `std` already links
//! libc, and the repository builds with no registry crates.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

impl RUsage {
    fn cpu(&self) -> Duration {
        let micros = (self.utime[0] + self.stime[0]) * 1_000_000 + self.utime[1] + self.stime[1];
        Duration::from_micros(micros.max(0) as u64)
    }
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// User plus system CPU time this process has used so far.
pub fn self_cpu() -> Duration {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; the call writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    ru.cpu()
}

/// The number on the `kB` line `key` (`VmHWM`, `VmRSS`) of a process's
/// `/proc` status; `pid` `None` is this process.
pub fn proc_status_kb(pid: Option<u32>, key: &str) -> Option<f64> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    let status = std::fs::read_to_string(format!("/proc/{who}/status")).ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    proc_status_kb(None, "VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// What one finished child cost.
#[derive(Debug, Clone)]
pub struct ChildUsage {
    /// Exit code; `None` when a signal killed it.
    pub exit_code: Option<i32>,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set in MB. The kernel carries this over `exec`, so
    /// it is never below what the spawning process held at the time: right
    /// for children of a small harness, too high after a large one.
    pub peak_rss_mb: f64,
}

/// Reaps `child` with `wait4`, which returns the child's own CPU time and
/// peak memory together with its exit status. `std`'s `Child::wait` must
/// not be called afterwards; the `Child` is consumed to make that so.
pub fn reap(child: Child) -> std::io::Result<ChildUsage> {
    let mut status = 0i32;
    let mut ru = RUsage::default();
    // SAFETY: `status` and `ru` are live and writable, and the pid is that
    // of a child this process spawned and has not yet waited for.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // Linux wait status: low seven bits zero means a normal exit whose
    // code sits in the next byte.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildUsage {
        exit_code,
        cpu: ru.cpu(),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    })
}

/// One run of a program to completion.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Everything it wrote to standard output.
    pub stdout: Vec<u8>,
    /// Wall time from spawn to reaped.
    pub wall: Duration,
    /// CPU, memory and exit status.
    pub usage: ChildUsage,
}

/// Spawns `program args…`, collects its standard output and reaps it.
/// Standard error goes to `stderr_to`, so a failing run leaves its message
/// behind without a second pipe to drain.
pub fn run_to_completion(
    program: &Path,
    args: &[String],
    stderr_to: &Path,
) -> std::io::Result<Finished> {
    let stderr = std::fs::File::create(stderr_to)?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout)?;
    let usage = reap(child)?;
    Ok(Finished {
        stdout,
        wall: start.elapsed(),
        usage,
    })
}

/// `min(nproc, 4)`: the worker / client count every threaded workload uses.
pub fn workers() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken, as `(key, value)` pairs in a
/// fixed order. Run from the repository root.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let rustflags = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(str::to_string)
        })
        .map_or_else(|| "none".to_string(), |l| l.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let dirty = command_line("git", &["status", "--porcelain"])
        .map_or_else(unknown, |s| (!s.is_empty()).to_string());
    vec![
        ("nproc", nproc().to_string()),
        ("workers", workers().to_string()),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        ),
        ("rustflags", rustflags),
        ("kernel", kernel),
        ("git_commit", commit),
        ("git_dirty", dirty),
    ]
}
