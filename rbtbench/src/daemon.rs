//! The `rbt-cli serve` daemon under test, run as its own process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbt_server::{Client, RetryPolicy};

pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

/// A client that reports every failure instead of retrying it away.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(addr, RetryPolicy::no_retries()).map_err(|e| format!("connect: {e}"))
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and waits for its first
    /// Pong. Returns the daemon and the seconds from spawn to that Pong,
    /// which include opening the key store and decoding every key.
    pub fn start(
        exe: &Path,
        keys: &Path,
        capacity: Option<usize>,
    ) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--keys")
            .arg(keys)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(c) = capacity {
            cmd.args(["--capacity", &c.to_string()]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The banner names the bound address. The reader keeps draining
        // stdout afterwards so the daemon never writes into a closed pipe.
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let banner = match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Some(Ok(line))) => line,
            _ => return Err("daemon exited or stalled before printing its banner".to_string()),
        };
        daemon.addr = banner
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("no address in daemon banner {banner:?}"))?;
        connect(daemon.addr)?
            .ping()
            .map_err(|e| format!("first ping: {e}"))?;
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}
