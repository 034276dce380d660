//! Processes, sockets and clocks: spawning the daemon, one closed-loop
//! client connection, and the per-process counters read from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the built binaries live (`PERFBENCH_BIN_DIR`, set by run.sh).
pub fn bin(name: &str) -> PathBuf {
    let dir = std::env::var("PERFBENCH_BIN_DIR").unwrap_or_else(|_| "target/release".into());
    Path::new(&dir).join(name)
}

/// A small deterministic generator (splitmix64): the workload inputs are
/// a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Rng64 {
        Rng64(seed ^ 0x5e_ed0f_7cd9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to 6 decimals so the wire text and
    /// the reference see the same value.
    pub fn f(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        round6(lo + (hi - lo) * u)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

pub fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// The daemon under test.
pub struct Daemon {
    child: Child,
    pub sock: PathBuf,
    /// Set once [`Daemon::kill_cpu_s`] has reaped the process.
    reaped: bool,
}

impl Daemon {
    /// Start `tcdp-serve --unix <sock> <extra...>` and wait for its
    /// `listening on` line.
    pub fn spawn(sock: &Path, extra: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin("tcdp-serve"))
            .arg("--unix")
            .arg(sock)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn tcdp-serve: {e}"))?;
        let stdout = child.stdout.take().ok_or("tcdp-serve: no stdout")?;
        let mut lines = BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(l)) if l.starts_with("listening on") => break,
                Some(Ok(_)) => continue,
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("tcdp-serve exited before listening".into());
                }
            }
        }
        // The rest of stdout is not read; the daemon prints nothing more
        // after the listening line.
        Ok(Daemon {
            child,
            sock: sock.to_path_buf(),
            reaped: false,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.sock)
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `kill -9`, reap with `wait4`, and return the CPU time (user plus
    /// system, every thread, live or exited) the daemon used over its
    /// whole life, to the microsecond.
    pub fn kill_cpu_s(mut self) -> Result<f64, String> {
        let _ = self.child.kill();
        let usage = reap(self.child.id());
        self.reaped = true;
        Ok(usage?.cpu_s)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One closed-loop connection: send a line, wait for its answer.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Client {
    pub fn connect(sock: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// Send one request; return the answer and the round-trip time.
    pub fn call(&mut self, line: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        self.reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("recv: {e}"))?;
        let rtt = start.elapsed();
        if self.buf.is_empty() {
            return Err("daemon closed the connection".into());
        }
        Ok((self.buf.trim_end().to_string(), rtt))
    }
}

/// User plus system CPU of a whole process (every thread, live or
/// exited), from `/proc/<pid>/stat`, in seconds.
pub fn proc_cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / clock_ticks()
}

fn clock_ticks() -> f64 {
    // SAFETY: sysconf has no preconditions.
    let t = unsafe { sysconf(2) }; // _SC_CLK_TCK
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: the time
/// the hypervisor ran something else on this machine's virtual CPUs.
pub fn steal_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// Steal as a share of all CPU time between two [`steal_ticks`] reads.
pub fn steal_pct(a: (u64, u64), b: (u64, u64)) -> f64 {
    100.0 * b.0.saturating_sub(a.0) as f64 / b.1.saturating_sub(a.1).max(1) as f64
}

/// A `/proc/<pid>/status` field in kB (e.g. `VmHWM`).
pub fn proc_status_kb(pid: u32, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// One finished child process: its stdout, wall time, CPU (user plus
/// system) and peak resident set.
pub struct ChildRun {
    pub stdout: String,
    pub wall: Duration,
    pub cpu_s: f64,
    pub maxrss_kb: f64,
}

/// Run a command to completion, reaping it with `wait4` for its own
/// resource usage.
pub fn run_child(cmd: &mut Command) -> Result<ChildRun, String> {
    use std::io::Read;
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut err_pipe = child.stderr.take().ok_or("no stderr")?;
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("read stdout: {e}"))?;
    }
    let stderr = err_reader.join().unwrap_or_default();
    // std never waits on the child: the Child is only dropped.
    let usage = reap(child.id())?;
    let wall = start.elapsed();
    if usage.status != 0 {
        return Err(format!(
            "exit status {:#x}: {}",
            usage.status,
            stderr.trim()
        ));
    }
    Ok(ChildRun {
        stdout,
        wall,
        cpu_s: usage.cpu_s,
        maxrss_kb: usage.maxrss_kb,
    })
}

/// A reaped child's wait status and resource usage.
struct Usage {
    status: i32,
    cpu_s: f64,
    maxrss_kb: f64,
}

/// Wait for our own unreaped child `pid` with `wait4`.
fn reap(pid: u32) -> Result<Usage, String> {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `ru` are valid for writes; the pid is our own
    // child, not yet reaped.
    let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
    if rc < 0 {
        return Err("wait4 failed".into());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok(Usage {
        status,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        maxrss_kb: ru.maxrss as f64,
    })
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
