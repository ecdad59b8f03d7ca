//! The `qrel serve` child process: boot with deployment flags only,
//! read its peak RSS, stop it gracefully, and never leave it running.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Client;

extern "C" {
    // libc's kill(2); std links libc on unix.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Launch `qrel serve` on an ephemeral loopback port against `store`
    /// and return once it has printed its address (the store is loaded
    /// by then).
    pub fn launch(qrel: &Path, store: &Path) -> Result<Server, String> {
        let mut child = Command::new(qrel)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", qrel.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drain stdout until the child exits, so its later prints never
        // meet a closed pipe.
        let reader = std::thread::spawn(move || {
            let mut first = true;
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if first {
                    first = false;
                    let _ = tx.send(line);
                }
            }
        });
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            stdout: Some(reader),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "qrel serve printed no address".to_string())?;
        server.addr = line
            .rsplit("http://")
            .next()
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("unexpected first line from qrel serve: {line:?}"))?;
        Ok(server)
    }

    /// Poll `GET /healthz` until it answers 200.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut client = Client::new(self.addr);
        loop {
            if let Ok(r) = client.get("/healthz") {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err("qrel serve never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The process's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Graceful stop: SIGTERM, wait for the drain, require exit code 0.
    pub fn stop(mut self) -> Result<(), String> {
        let pid = self.child.id() as i32;
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; `pid` is our own child, not yet reaped, so it cannot name
        // an unrelated process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("qrel serve did not stop within 60s of SIGTERM".into()),
            }
        };
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("qrel serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}
