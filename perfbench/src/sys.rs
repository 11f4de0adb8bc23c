//! Operating-system probes: readiness waits, `/proc` samples, and the
//! host record printed with every result.

use std::collections::HashMap;
use std::fs;
use std::os::fd::RawFd;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const SC_CLK_TCK: i32 = 2;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Blocks until one of `fds` is readable (or writable, where its flag is
/// set) or `timeout` passes. `ppoll` takes a nanosecond timeout, unlike a
/// socket's `SO_RCVTIMEO`, which this class of kernel rounds up to
/// scheduler ticks (a 50 µs or 1 ms receive timeout blocks about 8 ms).
/// Interrupted and failed waits simply return; callers re-check state.
pub fn wait_ready(fds: &[(RawFd, bool)], timeout: Duration) {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: if write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polls` is a live, correctly laid out `struct pollfd` array
    // of exactly `polls.len()` entries that the kernel may write
    // `revents` into; `ts` is a valid `struct timespec` that outlives the
    // call; a null signal mask means "leave the mask unchanged".
    unsafe {
        ppoll(polls.as_mut_ptr(), polls.len() as u64, &ts, std::ptr::null());
    }
}

/// Makes the child that `cmd` starts receive SIGKILL when the thread
/// that spawned it dies, so a benchmark killed from outside leaves no
/// server behind.
pub fn kill_with_parent(cmd: &mut Command) {
    // SAFETY: the closure runs in the forked child before exec and only
    // makes the async-signal-safe `prctl` system call; it allocates
    // nothing and touches no shared state.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` has no memory preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// One sample of a process's resource use.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`), KiB.
    pub hwm_kb: u64,
    /// Current resident set (`VmRSS`), KiB.
    pub rss_kb: u64,
}

/// Samples `/proc/<pid>` (`"self"` for this process); `None` once the
/// process is gone or has released its memory.
pub fn proc_sample(pid: &str) -> Option<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `") "`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = |name: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(name))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some(ProcSample {
        cpu_ms: ticks * 1000.0 / clock_ticks(),
        hwm_kb: kb("VmHWM:")?,
        rss_kb: kb("VmRSS:")?,
    })
}

/// CPU time of each live thread of `pid`, ns by thread id, from the
/// scheduler's accounting (`/proc/<pid>/task/*/schedstat`): much finer
/// than the clock ticks of `/proc/<pid>/stat`. A thread that exits while
/// it is read is skipped. `None` once the process is gone.
pub fn thread_cpu_ns(pid: u32) -> Option<HashMap<u32, u64>> {
    let mut out = HashMap::new();
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        let Ok(stat) = fs::read_to_string(task.path().join("schedstat")) else { continue };
        let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
        if let (Some(tid), Some(ns)) =
            (tid, stat.split_whitespace().next().and_then(|n| n.parse().ok()))
        {
            out.insert(tid, ns);
        }
    }
    Some(out)
}

/// CPU ms spent between two [`thread_cpu_ns`] samples by the threads
/// alive at the second (a thread that exited in between is not counted;
/// the server's only short-lived threads serve finished connections).
pub fn cpu_ms_between(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> f64 {
    let ns: u64 = after
        .iter()
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum();
    ns as f64 / 1e6
}

/// Total CPU steal ticks of the host so far (`/proc/stat`, 8th column of
/// the aggregate `cpu` line).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    nproc: usize,
    cpu: String,
    kernel: String,
    steal_start: u64,
}

impl Host {
    pub fn probe() -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Host { nproc: nproc(), cpu, kernel, steal_start: steal_ticks() }
    }

    /// CPU steal ticks of the host since `probe`.
    pub fn steal_since_probe(&self) -> u64 {
        steal_ticks().saturating_sub(self.steal_start)
    }

    /// The host record as a JSON object, steal counted since `probe`.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"steal_ticks\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.kernel),
            self.steal_since_probe()
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
