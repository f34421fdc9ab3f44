//! The server under test: one `maxmin-lp serve` child process with its
//! default flags, bound to an ephemeral loopback port.

use crate::wire::Conn;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server. Dropping it kills the process and waits for it,
/// so no exit path of the benchmark leaves one behind.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve --addr 127.0.0.1:0 [--store-dir dir]` and waits
    /// for its `listening <addr>` line, which it prints once bound and,
    /// with a store, once the warm start has loaded.
    pub fn spawn(bin: &Path, store_dir: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if out.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening ") {
                break addr.to_string();
            }
        };
        // Keep draining stdout so the shutdown report can never block
        // the server on a full pipe.
        let stdout = std::thread::spawn(move || {
            let _ = io::copy(&mut out, &mut io::sink());
        });
        Ok(Server {
            child,
            addr,
            stdout: Some(stdout),
        })
    }

    /// The process id, for `/proc` reads.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `SHUTDOWN` and waits for the drain. A server that does
    /// not exit cleanly within 30 s is an error; dropping it then kills
    /// it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let sent = Conn::connect(&self.addr).and_then(|mut c| c.call("SHUTDOWN", None));
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        match (sent, status) {
            (Ok(Ok(_)), Some(s)) if s.success() => Ok(()),
            (sent, status) => Err(io::Error::other(format!(
                "server shutdown failed: reply {sent:?}, exit {status:?}"
            ))),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}
