//! Everything the harness owns outside its own memory: the scratch
//! directory, the `arb` binary it builds and spawns, child processes,
//! and the CPU-time counters of `/proc`.

use std::io::{self, BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Where cargo puts build output: `$CARGO_TARGET_DIR` (made absolute
/// against the working directory, as cargo reads it) or this package's
/// own `target/`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => std::env::current_dir()
            .expect("working directory")
            .join(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
}

/// Builds the `arb` binary the CLI and server workloads spawn, into the
/// same target directory as the harness. A no-op after the first run of
/// a checkout; always outside every timed interval.
pub fn build_arb() -> io::Result<PathBuf> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ sits in the repository root");
    let target = target_dir();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "arb-cli",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building arb-cli failed: {status}"
        )));
    }
    Ok(target.join("release").join("arb"))
}

/// The run's scratch directory,
/// `<target>/perfbench-data/<workload>-<seed>-<pid>/`: every `.xml`,
/// `.arb`, `.lab` and `.sta` of a run lives below it and goes with it
/// when the guard drops, on success, error and panic alike.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create(workload: &str, seed: u64) -> io::Result<Self> {
        let data = data_dir();
        sweep_stale(&data);
        let root = data.join(format!("{workload}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.root.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes the scratch directories of runs that were killed before
/// their guard could: those whose `-<pid>` names no live process.
fn sweep_stale(data: &Path) {
    for entry in std::fs::read_dir(data).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let pid = name.to_string_lossy().rsplit('-').next().map(str::to_owned);
        let dead = pid
            .and_then(|pid| pid.parse::<u32>().ok())
            .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
        if dead && entry.file_type().is_ok_and(|t| t.is_dir()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// `<target>/perfbench-data/`: scratch directories and the trace files
/// (which outlive the run).
pub fn data_dir() -> PathBuf {
    target_dir().join("perfbench-data")
}

extern "C" {
    /// `prctl(2)`, from the C library `std` links.
    fn prctl(option: i32, ...) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;

/// A child process that is killed and waited for when dropped, so no
/// exit path of the harness, a panic included, leaves one behind. Where
/// no guard runs, because a signal killed the harness, the kernel kills
/// the child: it is spawned with `SIGKILL` as its parent-death signal.
/// That signal follows the spawning *thread*, so a child must not
/// outlive the thread that spawned it; every spawn here is the main
/// thread's.
pub struct Guarded(Child);

impl Guarded {
    pub fn spawn(cmd: &mut Command) -> io::Result<Self> {
        let harness = std::process::id();
        // SAFETY: the closure runs in the forked child before `exec` and
        // makes two system calls, `prctl` and `getppid`, both
        // async-signal-safe; it allocates nothing and takes no lock.
        // `PR_SET_PDEATHSIG` reads one `unsigned long` argument.
        unsafe {
            cmd.pre_exec(move || {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                // The harness may have died before the request took hold.
                if std::os::unix::process::parent_id() != harness {
                    return Err(io::ErrorKind::NotFound.into());
                }
                Ok(())
            });
        }
        cmd.spawn().map(Guarded)
    }

    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    pub fn stdout(&mut self) -> Option<ChildStdout> {
        self.0.stdout.take()
    }

    /// Waits for the child to exit by itself.
    pub fn wait(mut self) -> io::Result<std::process::ExitStatus> {
        self.0.wait()
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Keeps every core from going idle while it lives: one busy child per
/// core at the lowest priority, which any thread of the harness or the
/// server preempts at once. An open loop sleeps between arrivals; a
/// virtual CPU that halts is woken late when the host is busy, and a
/// request crosses four such wake-ups. On the sandbox this was written
/// on that alone put 17-20 % between the runs of one seed in the host's
/// noisy spells, against 7-12 % with the cores kept awake (README.md).
/// The children's CPU time reaches the harness's counters only when they
/// are reaped, which is after every measured window has closed.
pub struct KeepAwake {
    _spinners: Vec<Guarded>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _spinners = (0..cores)
            .filter_map(|_| {
                Guarded::spawn(
                    Command::new("nice")
                        .args(["-n", "19", "sh", "-c", "while :; do :; done"])
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null()),
                )
                .map_err(|e| eprintln!("perfbench: cannot keep the cores awake (nice sh): {e}"))
                .ok()
            })
            .collect();
        KeepAwake { _spinners }
    }
}

/// Runs `arb query <db> <flag> <text> --output count` to completion and
/// returns the count it printed. A non-zero exit or unparsable output
/// is an error.
pub fn arb_query_count(arb: &Path, db: &Path, flag: &str, text: &str) -> io::Result<u64> {
    let mut child = Guarded::spawn(
        Command::new(arb)
            .arg("query")
            .arg(db)
            .args([flag, text, "--output", "count"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    )?;
    let mut out = String::new();
    child
        .stdout()
        .expect("stdout is piped")
        .read_to_string(&mut out)?;
    let status = child.wait()?;
    if !status.success() {
        return Err(io::Error::other(format!("arb query exited with {status}")));
    }
    out.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unexpected arb query output {out:?}")))
}

/// A running `arb serve` over one database, on an ephemeral port.
pub struct ServerProc {
    child: Guarded,
    /// Held open, unread: the server prints a few more lines and would
    /// die of a broken pipe if its stdout closed.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawns the server and reads the address it bound from its
    /// banner. The caller's first `ping` completes the start-up.
    pub fn spawn(arb: &Path, db: &Path) -> io::Result<Self> {
        let mut child = Guarded::spawn(
            Command::new(arb)
                .args(["serve", "--listen", "127.0.0.1:0"])
                .arg(db)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null()),
        )?;
        let mut stdout = BufReader::new(child.stdout().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| io::Error::other(format!("unexpected arb serve banner {banner:?}")))?
            .to_string();
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.pid()
    }

    /// After a `shutdown` request: waits for the server to drain and
    /// exit. Dropping instead kills it.
    pub fn wait(self) -> io::Result<std::process::ExitStatus> {
        self.child.wait()
    }
}

/// Kernel clock ticks per second of `/proc/<pid>/stat` times. Linux
/// fixes USER_HZ at 100 on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

fn stat_fields(pid: &str) -> io::Result<Vec<u64>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    Ok(rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect())
}

/// CPU seconds the harness has used, with every child it has waited
/// for: utime + stime + cutime + cstime.
pub fn cpu_self_s() -> f64 {
    // After ')' the fields start at `state` (field 3): utime is field 14.
    let f = stat_fields("self").expect("/proc/self/stat");
    (f[11] + f[12] + f[13] + f[14]) as f64 / TICKS_PER_S
}

/// CPU seconds a live child has used so far: utime + stime.
pub fn cpu_of_s(pid: u32) -> f64 {
    let f = stat_fields(&pid.to_string()).expect("/proc/<pid>/stat of a live child");
    (f[11] + f[12]) as f64 / TICKS_PER_S
}

/// CPU seconds the hypervisor has withheld from this machine since boot
/// (`steal` of `/proc/stat`): while a run's numbers are being taken, the
/// direct sign of a noisy neighbour.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Peak resident set size of a live process in MB (`VmHWM`).
pub fn rss_peak_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_counters_read_and_grow() {
        let before = cpu_self_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(cpu_self_s() > before);
        assert!(cpu_of_s(std::process::id()) > 0.0);
        assert!(rss_peak_mb(std::process::id()) > 0.0);
    }

    #[test]
    fn guard_kills_and_reaps_its_child() {
        let child = Guarded::spawn(Command::new("sleep").arg("600")).unwrap();
        let pid = child.pid();
        drop(child);
        // Reaped: the pid is gone, not a zombie.
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn a_killed_run_s_scratch_is_swept() {
        // A child that has exited and been reaped: its pid is free.
        let gone = Command::new("true").spawn().unwrap();
        let dead_pid = gone.id();
        drop(Guarded(gone));
        let data = Scratch::create("sweep", 0).unwrap();
        let stale = data.path().join(format!("cold_cli-7-{dead_pid}"));
        let live = data
            .path()
            .join(format!("cold_cli-7-{}", std::process::id()));
        let trace = data.path().join("trace-cold_cli-7.json");
        std::fs::create_dir_all(stale.join("setup-0")).unwrap();
        std::fs::create_dir_all(&live).unwrap();
        std::fs::write(&trace, b"{}").unwrap();
        sweep_stale(data.path());
        assert!(!stale.exists());
        assert!(live.exists() && trace.exists());
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let s = Scratch::create("unit", 0).unwrap();
        let dir = s.path().to_path_buf();
        std::fs::write(s.subdir("a").unwrap().join("f"), b"x").unwrap();
        assert!(dir.join("a/f").exists());
        drop(s);
        assert!(!dir.exists());
    }
}
