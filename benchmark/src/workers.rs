//! Lifecycle of the real `spq-worker` child processes behind
//! `serve-remote` and the remote per-layer metrics.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

const BANNER: &str = "spq-worker listening on ";

/// One spawned `spq-worker`, killed **and reaped** on drop — so a failed
/// assertion, an error return or a panic unwinding through the owner
/// never leaves an orphan process or a bound port behind.
#[derive(Debug)]
pub struct WorkerProcess {
    child: Child,
    addr: String,
    pinned: bool,
}

impl WorkerProcess {
    /// Spawns `bin` on an ephemeral loopback port, pinned to `cpu` with
    /// `taskset`, and waits for its `listening on` banner. Where it
    /// cannot be pinned (no `taskset`, a CPU the sandbox does not
    /// allow) it is spawned unpinned; [`pinned`](Self::pinned) tells.
    ///
    /// Pinned, because two workers and the manager floating over two
    /// shared cores spread 25–28 % between runs of one commit on every
    /// time metric, and one worker per core 15–17 % (twenty seeds, the
    /// two alternating; README, "Repeat data").
    pub fn spawn(bin: &Path, cpu: usize) -> Result<Self, String> {
        if !bin.is_file() {
            return Err(format!(
                "spq-worker binary not found at {} — build it first \
                 (benchmark/run.sh does: cargo build --release -p spq --bin spq-worker)",
                bin.display()
            ));
        }
        let mut pinned = Command::new("taskset");
        pinned.arg("-c").arg(cpu.to_string()).arg(bin);
        Self::listening(pinned, true).or_else(|_| Self::listening(Command::new(bin), false))
    }

    fn listening(mut command: Command, pinned: bool) -> Result<Self, String> {
        let mut child = command
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {command:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on the guard owns the child: every early return
        // below drops it, which kills and reaps.
        let mut worker = Self {
            child,
            addr: String::new(),
            pinned,
        };
        read.map_err(|e| format!("cannot read spq-worker banner: {e}"))?;
        match line.trim().strip_prefix(BANNER) {
            Some(addr) => {
                worker.addr = addr.to_owned();
                Ok(worker)
            }
            None => Err(format!("unexpected spq-worker banner: {line:?}")),
        }
    }

    /// Whether the worker runs pinned to the CPU it was spawned for.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// The `host:port` the worker listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The worker's process id (for `/proc` accounting).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        // Errors mean the child is already gone; there is nothing to do
        // about them in a destructor.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `n` workers, worker `i` on CPU `i` modulo the host's cores; if
/// any spawn fails the ones already started are dropped (killed and
/// reaped) before the error is returned.
pub fn spawn_workers(bin: &Path, n: usize) -> Result<Vec<WorkerProcess>, String> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    (0..n)
        .map(|i| WorkerProcess::spawn(bin, i % cores))
        .collect()
}

/// The workers' addresses, in spawn order.
pub fn addrs(workers: &[WorkerProcess]) -> Vec<String> {
    workers.iter().map(|w| w.addr().to_owned()).collect()
}

/// The workers' process ids, in spawn order.
pub fn pids(workers: &[WorkerProcess]) -> Vec<u32> {
    workers.iter().map(WorkerProcess::pid).collect()
}
