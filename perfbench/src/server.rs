//! The system under test as a child process: the real `indulgent_server`
//! binary, spawned, watched through `/proc`, and always killed and
//! reaped when its handle drops.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::sys::kill_with_parent;

/// How long a fresh server may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Starts `bin` with `args` (stderr to `stderr_log`) and waits for
    /// its `listening on ADDR` line.
    pub fn spawn(bin: &Path, args: &[String], stderr_log: &Path) -> Result<Self, String> {
        let log = File::create(stderr_log)
            .map_err(|e| format!("create {}: {e}", stderr_log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(log);
        kill_with_parent(&mut cmd);
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // A helper thread reads the first line so a server that never
        // prints cannot hang the benchmark; it is always joined.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let res = r.read_line(&mut line);
            let _ = tx.send(res.map(|_| line));
            r
        });
        let first = rx.recv_timeout(START_TIMEOUT);
        if first.is_err() {
            let _ = child.kill();
        }
        let stdout = reader.join().expect("stdout reader thread panicked");
        let mut proc =
            ServerProc { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), _stdout: stdout };
        let line = match first {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("reading server stdout: {e}")),
            Err(_) => return Err("server printed no listening address".into()),
        };
        proc.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner: {line:?}"))?;
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `None` while running, else how it ended.
    pub fn exit_status(&mut self) -> Option<String> {
        match self.child.try_wait() {
            Ok(None) => None,
            Ok(Some(status)) => Some(status.to_string()),
            Err(e) => Some(format!("unknown ({e})")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
