//! `goccd` child processes: spawn, wait for `LISTENING`, stop.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// How long a daemon may take from spawn to its `LISTENING` line
/// (recovery replays the log first).
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `goccd`. Dropping it kills the process and reaps it.
pub struct Daemon {
    child: Child,
    pub port: u16,
    /// Drains the daemon's stdout after `LISTENING`, so a late summary
    /// line never blocks it on a full pipe.
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `goccd` with `args` (plus `--port 0`) and waits for its
    /// `LISTENING <port>` line.
    pub fn spawn(goccd: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut cmd = Command::new(goccd);
        cmd.args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe system call. The death signal
        // makes the daemon exit if the benchmark dies without running its
        // destructors; the main thread spawns every daemon and outlives
        // them, so the signal never fires early.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", goccd.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if !sent {
                    if let Some(port) = line.strip_prefix("LISTENING ") {
                        sent = tx.send(port.trim().parse::<u16>().ok()).is_ok();
                    }
                }
            }
        });
        let port = rx.recv_timeout(BOOT_TIMEOUT).ok().flatten();
        let mut daemon = Daemon {
            child,
            port: 0,
            stdout: Some(stdout),
        };
        match port {
            Some(port) => {
                daemon.port = port;
                Ok(daemon)
            }
            None => Err(format!("goccd {args:?} never printed LISTENING")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process without a shutdown (the crash half of the
    /// recovery probe) and reaps it.
    pub fn kill(&mut self) {
        self.reap(false);
    }

    /// Graceful SHUTDOWN, falling back to SIGKILL after a grace period.
    pub fn stop(&mut self) {
        self.reap(true);
    }

    fn reap(&mut self, graceful: bool) {
        if self.stdout.is_none() {
            return;
        }
        if graceful && gocc_loadgen::send_shutdown(self.port).is_ok() {
            let until = Instant::now() + Duration::from_secs(3);
            while Instant::now() < until {
                if let Ok(Some(_)) = self.child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap(false);
    }
}
