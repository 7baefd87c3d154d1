//! Process hygiene and `/proc` readers: a temp directory removed on every
//! exit path, a child guard that never leaks a process, CPU and memory
//! figures of a process read from outside it.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Everything a run writes lives under this directory of the working
/// directory (the checkout root under `run.sh`, the package root under
/// `cargo test`): the benchmark never touches `/tmp`, and the relative path
/// keeps Unix-socket paths far below the 108-byte `sun_path` limit however
/// deep the checkout sits.
const TEMP_ROOT: &str = ".bench_tmp";

/// A directory removed, with everything in it, when the value drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(name: &str) -> io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = Path::new(TEMP_ROOT).join(format!(
            "{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory's name: unique to this run, and part of the command
    /// line of every program process the run starts (socket, store and log
    /// paths all live here), which is how [`survivors`] finds leaks.
    pub fn marker(&self) -> String {
        self.path
            .file_name()
            .expect("temp dirs are named")
            .to_string_lossy()
            .into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes the (by now empty) root of all temp dirs; a no-op while another
/// run still has a directory under it.
pub fn remove_temp_root() {
    let _ = std::fs::remove_dir(TEMP_ROOT);
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

fn send_signal(pid: u32, signal: i32) {
    extern "C" {
        fn kill(pid: i32, signal: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else { return };
    if pid <= 1 {
        return; // never a process group or init
    }
    // SAFETY: kill(2) takes two integers and touches no memory of ours; the
    // pid is a positive single-process id checked just above.
    unsafe {
        kill(pid, signal);
    }
}

/// A spawned program process that cannot outlive its guard: dropping kills
/// and reaps it.
#[derive(Debug)]
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    pub fn spawn(command: &mut Command) -> io::Result<ChildGuard> {
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(ChildGuard { child })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the process has already exited (a daemon that died under the
    /// benchmark is a failure the caller reports).
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// SIGTERM, then up to `grace` for a clean exit, then SIGKILL. Returns
    /// whether the process exited on its own.
    pub fn terminate(mut self, grace: Duration) -> bool {
        send_signal(self.child.id(), SIGTERM);
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if self.exited() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false // Drop kills and reaps
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if !self.exited() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Pids (other than ours) whose command line mentions `marker`. Called after
/// teardown: anything found is a leaked daemon or worker. Found processes
/// are killed so a failed run still leaves nothing behind.
pub fn survivors(marker: &str) -> Vec<u32> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return found;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|name| name.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        if String::from_utf8_lossy(&cmdline).contains(marker) {
            send_signal(pid, SIGKILL);
            found.push(pid);
        }
    }
    found
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux the toolchain targets; the figure only scales `cpu_us_per_entry`,
/// identically for parent and change.
const TICKS_PER_SECOND: f64 = 100.0;

fn stat_fields(pid: u32) -> io::Result<Vec<u64>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    Ok(rest
        .split_whitespace()
        .map(|field| field.parse::<u64>().unwrap_or(0))
        .collect())
}

/// User + system CPU seconds of a process and of the children it has
/// reaped (for the daemon: its finished workers).
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let fields = stat_fields(pid)?;
    // After the command name: state is index 0, utime/stime/cutime/cstime
    // are fields 14–17 of proc(5), i.e. indices 11..=14 here.
    let ticks: u64 = fields.get(11..=14).map(|f| f.iter().sum()).unwrap_or(0);
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

fn status_kib(pid: u32, key: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {key} in /proc/{pid}/status")))
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    status_kib(pid, "VmHWM")
}

/// Current resident set (`VmRSS`) in KiB.
pub fn rss_kib(pid: u32) -> io::Result<u64> {
    status_kib(pid, "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_vanish_and_guards_reap() {
        let marker;
        let path;
        {
            let dir = TempDir::new("sys-test").unwrap();
            marker = dir.marker();
            path = dir.path().to_path_buf();
            let file = path.join("x");
            std::fs::write(&file, b"x").unwrap();
            let mut tail = Command::new("tail");
            tail.arg("-f").arg(&file); // the marker rides on the command line
            let guard = ChildGuard::spawn(&mut tail).unwrap();
            assert!(cpu_seconds(guard.pid()).unwrap() >= 0.0);
            assert!(rss_kib(guard.pid()).unwrap() > 0);
            assert!(peak_rss_kib(std::process::id()).unwrap() > 0);
            assert!(
                guard.terminate(Duration::from_secs(5)),
                "tail exits on SIGTERM"
            );
        }
        assert!(!path.exists());
        assert_eq!(survivors(&marker), Vec::<u32>::new());
    }
}
