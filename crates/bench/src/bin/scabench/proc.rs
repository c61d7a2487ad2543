//! Child processes: the shipped `scaguard` binary as a server and as
//! one-shot CLI commands, plus CPU accounting read from `/proc`.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use sca_serve::Client;

/// Linux reports `/proc` CPU times in USER_HZ ticks, 100 per second on
/// every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

fn fail(what: impl Into<String>) -> io::Error {
    io::Error::other(what.into())
}

/// The `scaguard` binary built next to this benchmark's own executable.
pub fn scaguard_bin() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let bin = exe.with_file_name("scaguard");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(fail(format!(
            "{} not found: build it with `cargo build --release --bin scaguard`",
            bin.display()
        )))
    }
}

/// Run `scaguard <args>` to completion, failing on a nonzero exit.
pub fn scaguard(args: &[&str]) -> io::Result<Output> {
    let out = Command::new(scaguard_bin()?)
        .args(args)
        .stdin(Stdio::null())
        .output()?;
    if !out.status.success() {
        return Err(fail(format!(
            "scaguard {} failed ({}): {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    Ok(out)
}

/// CPU seconds (user + system) of process `pid`, or of its waited-for
/// children when `children` is set.
pub fn cpu_secs(pid: &str, children: bool) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    Ok(parse_stat(&stat, children)?.1)
}

/// Seconds the hypervisor has taken from this machine so far, per CPU
/// (`steal` in the `cpu` line of `/proc/stat`, over the `cpuN` lines).
pub fn steal_secs() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| fail("no steal time in /proc/stat"))?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count()
        .max(1);
    Ok(ticks as f64 / TICKS_PER_SEC / cpus as f64)
}

/// The process (or thread) name in a `/proc` stat line and its CPU
/// seconds: fields 14–15, or 16–17 (waited-for children) when `children`
/// is set.
fn parse_stat(stat: &str, children: bool) -> io::Result<(&str, f64)> {
    // The name may contain spaces; fields restart after its last `)`.
    let (head, rest) = stat
        .rsplit_once(')')
        .ok_or_else(|| fail("malformed /proc stat"))?;
    let name = head.split_once('(').map_or("", |(_, n)| n);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let at = if children { 16 - 3 } else { 14 - 3 };
    let ticks = fields
        .get(at..at + 2)
        .ok_or_else(|| fail("short /proc stat"))?
        .iter()
        .map(|f| f.parse::<u64>().map_err(|e| fail(e.to_string())))
        .sum::<io::Result<u64>>()?;
    Ok((name, ticks as f64 / TICKS_PER_SEC))
}

/// CPU seconds a server has used: in total, in the threads that serve
/// requests (the worker pool and the scan threads it hands work to), and
/// in its reactor thread.
#[derive(Debug, Clone, Copy)]
pub struct ServerCpu {
    pub total: f64,
    pub requests: f64,
    pub reactor: f64,
}

/// A running `scaguard serve` child.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address from the server's `listening on <addr>` line.
    pub addr: String,
}

impl Server {
    /// Start `scaguard serve <repo> --workers 2 <extra>` and wait for its
    /// `listening` line. The server's stderr goes to `server.log` beside
    /// the repository.
    pub fn spawn(repo: &Path, extra: &[&str]) -> io::Result<Server> {
        let log = repo.with_file_name("server.log");
        let mut child = Command::new(scaguard_bin()?)
            .arg("serve")
            .arg(repo)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(&log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            let why = std::fs::read_to_string(&log).unwrap_or_default();
            return Err(fail(format!("server did not start: {}", why.trim())));
        };
        let addr = addr.to_string();
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// CPU seconds the server process has used so far.
    pub fn cpu_secs(&self) -> io::Result<f64> {
        cpu_secs(&self.child.id().to_string(), false)
    }

    /// CPU seconds the server has used so far, split by thread kind.
    pub fn cpu(&self) -> io::Result<ServerCpu> {
        let mut cpu = ServerCpu {
            total: self.cpu_secs()?,
            requests: 0.0,
            reactor: 0.0,
        };
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            // A thread that exited since the listing (a stream or reload
            // thread) can no longer be read; its time stays in the
            // process total.
            let Ok(stat) = std::fs::read_to_string(task?.path().join("stat")) else {
                continue;
            };
            // Linux keeps the first 15 bytes of a thread's name:
            // `sca-serve-worker-N`, `sca-serve-shard-S-T` (the scan
            // threads) and `sca-serve-reactor`.
            match parse_stat(&stat, false)? {
                (name, secs)
                    if name.starts_with("sca-serve-worke")
                        || name.starts_with("sca-serve-shar") =>
                {
                    cpu.requests += secs
                }
                (name, secs) if name.starts_with("sca-serve-react") => cpu.reactor += secs,
                _ => {}
            }
        }
        Ok(cpu)
    }

    /// Ask the server to shut down and wait for it to exit, killing it if
    /// it has not exited within 10 s.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Client::connect(self.addr.as_str()).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if asked.is_err() || Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(fail("server did not stop on `shutdown`; killed it"));
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths (`stop` consumes the server after
        // waiting): never leave a server running behind the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
