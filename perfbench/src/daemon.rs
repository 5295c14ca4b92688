//! The `flowd` child process: started on an ephemeral loopback port and
//! stopped on every exit path — a `shutdown` request first, then a kill —
//! so no daemon outlives the run holding a port or memory.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use service::wire;

/// How long a daemon may take to exit after a `shutdown` request before it
/// is killed. The accept loop polls every 200 ms.
const GRACE: Duration = Duration::from_secs(3);

/// How the daemon ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stopped {
    /// It exited on its own after the `shutdown` request.
    Shutdown,
    /// It had to be killed.
    Killed,
    /// It had already exited.
    AlreadyGone,
}

/// A running `flowd` child; dropping it stops the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
    stopped: Option<Stopped>,
}

impl Daemon {
    /// Starts `bin` on `127.0.0.1:0` and waits for its `listening` line.
    pub fn spawn(bin: &Path, cache: usize) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--cache", &cache.to_string()]);
        Self::from_command(cmd)
    }

    /// Starts `cmd`, which must print `flowd listening on ADDR` first.
    pub fn from_command(mut cmd: Command) -> Result<Daemon, String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("flowd listening on ")?
                .parse()
                .ok()
        });
        let daemon = Daemon {
            child,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
            stopped: None,
        };
        match addr {
            Some(_) => Ok(daemon),
            // Dropping the guard kills whatever did start.
            None => Err(format!("flowd did not report its address: {line:?}")),
        }
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Stops the daemon: a `shutdown` request, then a kill if it has not
    /// exited within [`GRACE`]. Idempotent.
    pub fn stop(&mut self) -> Stopped {
        if let Some(done) = self.stopped {
            return done;
        }
        let done = if matches!(self.child.try_wait(), Ok(Some(_))) {
            Stopped::AlreadyGone
        } else {
            request_shutdown(self.addr);
            let asked = Instant::now();
            loop {
                match self.child.try_wait() {
                    Ok(Some(_)) => break Stopped::Shutdown,
                    Ok(None) if asked.elapsed() < GRACE => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = self.child.kill();
                        break Stopped::Killed;
                    }
                }
            }
        };
        // Reap the child so it leaves no zombie.
        let _ = self.child.wait();
        self.stopped = Some(done);
        done
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends `{"op":"shutdown"}` and waits briefly for the reply, with
/// timeouts throughout so a wedged daemon cannot hold the caller.
fn request_shutdown(addr: SocketAddr) {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if wire::write_frame(&mut stream, r#"{"op":"shutdown"}"#).is_ok() {
        let _ = wire::read_frame(&mut stream);
    }
}

/// `VmHWM` (peak resident set) from a procfs status file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
