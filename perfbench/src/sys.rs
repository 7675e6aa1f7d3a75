//! Peak resident memory of this process and of child processes.

use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set of this process in KiB (`VmHWM` in
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A finished child process.
#[derive(Debug)]
pub struct ChildRun {
    /// How it exited.
    pub status: ExitStatus,
    /// Everything it wrote to standard output.
    pub stdout: String,
    /// Its peak resident set in KiB, from the kernel's accounting.
    pub max_rss_kib: u64,
    /// Wall time from spawn to reaping.
    pub wall: Duration,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Run `cmd` to completion with its standard output captured, and reap
/// it with `wait4` to learn its own peak resident set (the per-child
/// figure `getrusage(RUSAGE_CHILDREN)` cannot give).
pub fn run_child(cmd: &mut Command) -> std::io::Result<ChildRun> {
    let t = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    let reaped = loop {
        // SAFETY: `pid` is our unreaped child (std never waits on a
        // `Child` it has not been asked to), and both out-pointers refer
        // to live, writable locals of the layout `wait4` expects on
        // 64-bit Linux (`Rusage` above; `int` status).
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r >= 0 {
            break Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            break Err(err);
        }
    };
    let wall = t.elapsed();
    reaped?;
    read?;
    Ok(ChildRun {
        status: ExitStatus::from_raw(status),
        stdout,
        max_rss_kib: usage.maxrss.max(0) as u64,
        wall,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads child rusage with the 64-bit Linux layout");
