//! The TCP front door: framed sockets in, engine intake out.
//!
//! [`KvServer`] binds a listener, hosts the replica group in-process (a
//! [`KvEngine`](crate::KvEngine) running the n-replica consensus
//! session), and bridges each accepted socket to the engine:
//!
//! * a **reader thread** per connection decodes each inbound frame in
//!   one place: a [`Request`] goes to the engine's intake as a submit,
//!   anything else must decode as a [`ControlRequest`] (sync, audit,
//!   lease state, stats) and goes to the intake as one control message.
//!   A clean EOF, a truncated frame, or a malformed message deregisters
//!   the connection (the protocol has no error responses — a peer that
//!   cannot speak it is dropped);
//! * a **writer thread** per connection forwards the engine's
//!   acknowledgements back as response frames, and its control replies
//!   verbatim.
//!
//! The server keeps one handle to each live socket, keyed by its
//! connection, so that shutdown can unblock the readers; a reader drops
//! its own entry when its connection ends, so a closed connection holds
//! no file descriptor.
//!
//! A client that dies mid-request costs the server nothing: the reader
//! sees EOF, deregisters, and the command — if already batched — still
//! commits; its ack goes nowhere. When the client reconnects and replays
//! the same `(ClientId, RequestId)`, the engine's dedup layer answers
//! from the decided log without a second apply. The integration suite
//! kills clients mid-request to pin this down.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{ConnId, EngineConfig, EngineHandle, KvEngine, Outbound};
use crate::proto::{ControlRequest, Request, TAG_REQUEST};
use crate::shard::ShardedAudit;
use crate::wire::{write_frame, FrameReader};

/// One handle per live socket, keyed by its engine connection.
type Sockets = HashMap<ConnId, TcpStream>;

/// A running networked replicated-KV service.
#[derive(Debug)]
pub struct KvServer {
    engine: KvEngine,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// Live sockets, for shutdown to unblock their reader threads.
    socks: Arc<Mutex<Sockets>>,
}

impl KvServer {
    /// Spawns the engine and binds the listener (use port 0 for an
    /// ephemeral port; [`addr`](KvServer::addr) reports the real one).
    pub fn bind(addr: &str, config: EngineConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = KvEngine::spawn(config);
        let handle = engine.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let socks = Arc::new(Mutex::new(Sockets::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let socks = Arc::clone(&socks);
            std::thread::spawn(move || accept_loop(&listener, &handle, &stop, &socks))
        };
        Ok(KvServer { engine, addr, stop, acceptor: Some(acceptor), socks })
    }

    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for opening in-process sessions ([`crate::LocalKv`])
    /// against the same engine the sockets feed.
    #[must_use]
    pub fn engine(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Stops accepting, closes every live socket, drains the engine, and
    /// returns the audit.
    ///
    /// # Panics
    ///
    /// Panics if the acceptor or engine driver thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> ShardedAudit {
        assert!(self.close_front_door(), "acceptor thread panicked");
        self.engine.shutdown()
    }

    /// Hard-crashes the server: sockets are torn down and the engine is
    /// killed without draining or checkpointing — the on-disk state is
    /// whatever the last slot-boundary fsync left. The in-process analog
    /// of `kill -9`, for recovery tests; restart with
    /// [`bind`](KvServer::bind) on the same durability directory.
    pub fn kill(mut self) {
        let _ = self.close_front_door();
        self.engine.kill();
    }

    /// Stops accepting and closes every live socket, which unblocks the
    /// per-connection reader threads; their exits deregister their
    /// connections from the engine. `false` if the acceptor panicked.
    fn close_front_door(&mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        let clean = self.acceptor.take().is_none_or(|h| h.join().is_ok());
        for (_, s) in self.socks.lock().expect("socket registry poisoned").drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        clean
    }
}

/// Accepts connections until told to stop; each connection gets a reader
/// and a writer thread.
fn accept_loop(
    listener: &TcpListener,
    engine: &EngineHandle,
    stop: &AtomicBool,
    socks: &Arc<Mutex<Sockets>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A socket that failed setup is dropped; the peer sees a
                // closed connection and retries elsewhere.
                let _ = spawn_connection(stream, engine, socks);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Wires one accepted socket to the engine.
fn spawn_connection(
    stream: TcpStream,
    engine: &EngineHandle,
    socks: &Arc<Mutex<Sockets>>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(false)?;
    let read_side = stream.try_clone()?;
    let mut write_side = stream.try_clone()?;

    let (submit, acks) = engine.connect();
    let conn = submit.conn();
    socks.lock().expect("socket registry poisoned").insert(conn, stream);

    // Writer: engine outbound -> frames. Acks are encoded responses;
    // control replies are pre-encoded by the engine and written
    // verbatim. Exits when the engine drops the connection's sender
    // (deregistration) or the socket dies.
    std::thread::spawn(move || {
        while let Ok(out) = acks.recv() {
            let bytes = match out {
                Outbound::Ack(resp) => resp.encode(),
                Outbound::Control(bytes) => bytes,
            };
            if write_frame(&mut write_side, &bytes).is_err() {
                break;
            }
        }
    });

    // Reader: inbound frames -> engine intake. Owns the SubmitHandle, so
    // its exit (EOF, truncation, garbage) deregisters the connection,
    // which disconnects the writer's receiver and lets it exit too.
    let socks = Arc::clone(socks);
    std::thread::spawn(move || {
        let mut reader = FrameReader::new(read_side);
        while let Ok(Some(payload)) = reader.read_frame() {
            let keep_going = if payload.first() == Some(&TAG_REQUEST) {
                Request::decode(&payload).is_ok_and(|request| submit.submit(request))
            } else {
                ControlRequest::decode(&payload).is_ok_and(|req| submit.control(req))
            };
            if !keep_going {
                break;
            }
        }
        // Leave the registry, and unblock the writer promptly even if
        // the engine keeps the ack sender alive briefly.
        let entry = socks.lock().expect("socket registry poisoned").remove(&conn);
        if let Some(sock) = entry {
            let _ = sock.shutdown(Shutdown::Write);
        }
        drop(submit);
    });
    Ok(())
}
