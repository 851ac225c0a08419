//! Child `sip-prover` processes and what `/proc` says about them.
//!
//! Hygiene rules this module enforces: every prover is killed and reaped on
//! every exit path (its [`Prover`] guard's `Drop`, plus a process-wide
//! registry the panic hook drains), every scratch directory is removed the
//! same way, and scratch lives beside the benchmark's own executable so a
//! run never writes outside its checkout.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sip_fleetobs::scrape::{http_get, parse_prometheus, sum_by_name};

/// How long a freshly spawned prover gets to print its listening line.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(10);

/// How long [`Prover::settle`] waits for the last session to be torn down.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ` is
/// 100 on every Linux ABI this benchmark runs on; `sysconf` is not
/// reachable without a libc binding.
const CLK_TCK: f64 = 100.0;

type SharedChild = Arc<Mutex<Option<Child>>>;

/// Whether [`pin_to_one_cpu`] succeeded.
static PINNED: AtomicBool = AtomicBool::new(false);

/// CPUs this process may run on, read once: `available_parallelism`
/// honours the affinity mask, so after [`pin_to_one_cpu`] it would say 1.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Confines this process — and with it every thread and every prover it
/// later starts, which inherit the mask — to the highest-numbered CPU,
/// using `taskset`. Returns whether placement is now fixed.
///
/// Why one CPU: client and prover ping-pong over loopback, one always
/// waiting for the other. Left alone on a two-vCPU machine the scheduler
/// flips them between "same CPU" and "different CPUs" for whole runs at a
/// time (F₂ at `log u = 20`: 9.4 ms ↔ 11.2 ms), which reads as a regression
/// that is not one. Pinned to *different* CPUs every message pays a
/// cross-CPU wake-up of an idle vCPU — 30–60 µs here, so a kv `get` of 18
/// round trips goes from 0.8 ms to 1.9 ms and its run-to-run spread from
/// 1 % to 6 %: the benchmark would measure the hypervisor. On one CPU the
/// timings are CPU work plus context switches, repeatable to 1–2 %. The
/// price: nothing here can show a gain from overlapping client and prover
/// work. CPU 0 is left to the kernel and whoever started the benchmark.
/// Without `taskset`, or on a one-CPU machine, nothing is done and the
/// result file says so.
pub fn pin_to_one_cpu() -> bool {
    let cpu = cpus() - 1;
    let pinned = cpu > 0
        && Command::new("taskset")
            .args(["-a", "-cp", &cpu.to_string()])
            .arg(std::process::id().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
    PINNED.store(pinned, Ordering::Relaxed);
    pinned
}

/// Whether placement is fixed (for the result file).
pub fn pinned() -> bool {
    PINNED.load(Ordering::Relaxed)
}

static CHILDREN: Mutex<Vec<SharedChild>> = Mutex::new(Vec::new());
static SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

fn kill_and_reap(slot: &SharedChild) {
    let mut guard = slot.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(mut child) = guard.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Kills every live prover and removes every scratch directory. Called by
/// the panic hook and at the end of `main`; idempotent.
pub fn cleanup_all() {
    let children = std::mem::take(&mut *CHILDREN.lock().unwrap_or_else(|p| p.into_inner()));
    for slot in &children {
        kill_and_reap(slot);
    }
    let dirs = std::mem::take(&mut *SCRATCH.lock().unwrap_or_else(|p| p.into_inner()));
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Installs a panic hook that runs [`cleanup_all`] before the default
/// report, so a harness bug never leaves a prover running.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        cleanup_all();
        default(info);
    }));
}

/// The directory holding this executable — where `sip-prover` is expected
/// and where scratch directories are made.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "own executable has no parent directory".to_string())
}

/// Path of the `sip-prover` binary: beside this executable (one directory up
/// when this is a test executable under `deps/`). If it is not there, the
/// error is the exact command that builds it there.
pub fn prover_binary() -> Result<PathBuf, String> {
    let mut dir = exe_dir()?;
    if dir.ends_with("deps") {
        dir.pop();
    }
    let path = dir.join("sip-prover");
    if path.is_file() {
        return Ok(path);
    }
    let profile = if dir.ends_with("release") {
        "--release "
    } else {
        ""
    };
    Err(format!(
        "sip-prover not found in {}; from the repository root, build it there first:\n  \
         cargo build {profile}--offline -p sip-server --bin sip-prover --target-dir {}",
        dir.display(),
        dir.parent().unwrap_or(&dir).display()
    ))
}

/// A scratch directory removed on drop (and by [`cleanup_all`]).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh empty directory under `<exe dir>/sipbench-tmp/`.
    pub fn new(label: &str) -> Result<Self, String> {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let path = exe_dir()?
            .join("sipbench-tmp")
            .join(format!("{}-{n}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        SCRATCH
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(path.clone());
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the regular files below the directory.
    pub fn bytes_on_disk(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        SCRATCH
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|p| p != &self.path);
    }
}

/// CPU time and peak memory of one process, read from `/proc`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ProcUsage {
    /// `utime + stime`, seconds.
    pub cpu_s: f64,
    /// `VmHWM`, mebibytes.
    pub peak_rss_mb: f64,
}

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// `VmHWM` in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 1-, 5- and 15-minute load averages from `/proc/loadavg`.
pub fn load_average() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    Some([it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?])
}

/// What a prover is asked to be.
#[derive(Clone, Debug, Default)]
pub struct ProverSpec {
    /// `(index, count, replica, log_u)` for a pinned fleet member.
    pub shard: Option<(u32, u32, u32, u32)>,
    /// `--data-dir`.
    pub data_dir: Option<PathBuf>,
}

/// A running `sip-prover` child. Killed and reaped on drop.
pub struct Prover {
    child: SharedChild,
    /// Drains the child's stdout; ends when the child does.
    reader: Option<std::thread::JoinHandle<()>>,
    pid: u32,
    /// Where it serves sessions.
    pub addr: SocketAddr,
    /// Its `/metrics` listener.
    pub ops_addr: String,
}

impl Prover {
    /// Spawns `sip-prover --listen 127.0.0.1:0 --threads 1 --metrics-addr
    /// 127.0.0.1:0 …` and waits (bounded) for its "listening on" line.
    pub fn spawn(spec: &ProverSpec) -> Result<Self, String> {
        let mut cmd = Command::new(prover_binary()?);
        cmd.args(["--listen", "127.0.0.1:0", "--threads", "1"])
            .args(["--metrics-addr", "127.0.0.1:0"]);
        if let Some((index, count, replica, log_u)) = spec.shard {
            cmd.args(["--shard", &index.to_string(), "--of", &count.to_string()])
                .args(["--replica", &replica.to_string()])
                .args(["--log-u", &log_u.to_string()]);
        }
        if let Some(dir) = &spec.data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning sip-prover: {e}"))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let slot: SharedChild = Arc::new(Mutex::new(Some(child)));
        CHILDREN
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&slot));

        // Port 0 makes the startup banner the only way to learn the ports.
        // A reader thread lets the wait be bounded; it ends when the child's
        // stdout closes, i.e. at the latest when the child is killed.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut ops = String::new();
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("metrics on http://").nth(1) {
                    ops = rest.split('/').next().unwrap_or("").to_string();
                }
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send((rest.trim().to_string(), ops.clone()));
                }
            }
        });
        let mut prover = Prover {
            child: slot,
            reader: Some(reader),
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ops_addr: String::new(),
        };
        // Dropping `prover` on the error paths kills and reaps the child.
        let (addr, ops_addr) = rx
            .recv_timeout(STARTUP_TIMEOUT)
            .map_err(|_| "sip-prover did not report a listening address".to_string())?;
        prover.addr = addr
            .parse()
            .map_err(|e| format!("sip-prover printed address {addr:?}: {e}"))?;
        prover.ops_addr = ops_addr;
        Ok(prover)
    }

    /// CPU seconds and peak RSS so far (zeros once the process is gone).
    pub fn usage(&self) -> ProcUsage {
        let read = |file: &str| std::fs::read_to_string(format!("/proc/{}/{file}", self.pid));
        ProcUsage {
            cpu_s: read("stat")
                .ok()
                .and_then(|s| parse_stat_cpu_s(&s))
                .unwrap_or(0.0),
            peak_rss_mb: read("status")
                .ok()
                .and_then(|s| parse_status_hwm_mb(&s))
                .unwrap_or(0.0),
        }
    }

    /// Waits (bounded) until the prover's `sip_server_active_sessions` gauge
    /// reads 0: every session thread has returned and freed what it held.
    ///
    /// Call it after a session's `bye`, outside the timed phases. A `bye`
    /// is not acknowledged, so without this the next session races the
    /// previous one's tear-down, and whether two sessions' vectors and fold
    /// tables are alive at once — 4 to 12 MB of peak RSS — is decided by the
    /// scheduler (`replicated` read 7.6 MB in a quarter of its laps and
    /// 11.6 MB in the rest). Best effort: a prover that cannot be scraped is
    /// left to the next operation to report.
    pub fn settle(&self) {
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        while Instant::now() < deadline {
            let active = http_get(&self.ops_addr, "/metrics", SETTLE_TIMEOUT)
                .ok()
                .and_then(|body| parse_prometheus(&body).ok())
                .map(|samples| sum_by_name(&samples, "sip_server_active_sessions"));
            if active != Some(0.0) {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            return;
        }
    }

    /// `SIGKILL`, then reap. The process gets no chance to flush anything.
    pub fn kill(&self) {
        kill_and_reap(&self.child);
    }
}

impl Drop for Prover {
    fn drop(&mut self) {
        self.kill();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        CHILDREN
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|c| !Arc::ptr_eq(c, &self.child));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // Field 2 is "(sip prover) x)" — spaces and a stray parenthesis.
        let stat = "4242 (sip prover) x) S 1 4242 4242 0 -1 4194304 1175 0 0 0 \
                    153 47 0 0 20 0 3 0 8913 1234 567 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(2.0));
        assert_eq!(parse_stat_cpu_s("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_hwm_is_read_in_mib() {
        let status =
            "Name:\tsip-prover\nVmPeak:\t  20000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(10.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_s(&stat).is_some());
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_status_hwm_mb(&status).unwrap() > 0.0);
        assert!(load_average().is_some());
    }
}
