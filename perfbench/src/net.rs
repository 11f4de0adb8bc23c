//! The load generator's client: one thread, at most `nproc` nonblocking
//! connections, built only on the service's public codec
//! (`Request::encode`, `wire::encode_frame`, `wire::FrameDecoder`,
//! `Response::decode`).
//!
//! It never blocks in a socket receive timeout. It waits in `ppoll`
//! with a nanosecond deadline instead (see [`crate::sys::wait_ready`]),
//! so an ack is stamped within microseconds of reaching the socket.
//!
//! Failure accounting: a refused connection, EOF, a socket error or a
//! request older than [`REQUEST_TIMEOUT`] fails the request; the run
//! goes on. A wrong answer (duplicate or unknown ack, a per-shard slot
//! going backwards on one connection, a malformed frame, or a value the
//! history does not allow) is returned as `Err` and aborts the run.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use indulgent_model::{ClientId, RequestId};
use indulgent_server::{wire::encode_frame, FrameDecoder, KvOp, Outcome, Request, Response};

use crate::check::History;
use crate::sys::wait_ready;
use crate::trace::Tracer;

/// A request unanswered this long after it was due has failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The connection was refused when opened.
    Refused,
    /// EOF or a socket error (typically: the server died).
    Disconnected,
    /// No ack within [`REQUEST_TIMEOUT`].
    TimedOut,
}

/// A finished request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub conn: usize,
    /// When it was due (open loop) or submitted (closed loop).
    pub due: Instant,
    /// When its bytes were handed to the socket.
    pub sent: Instant,
    /// When its ack was decoded (or the failure noticed).
    pub at: Instant,
    pub outcome: Result<Outcome, Failure>,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    op: KvOp,
    due: Instant,
    sent: Instant,
}

#[derive(Debug)]
struct Conn {
    stream: Option<TcpStream>,
    refused: bool,
    client: ClientId,
    next_request: u64,
    decoder: FrameDecoder,
    out: Vec<u8>,
    unflushed: Vec<u64>,
    pending: HashMap<u64, Pending>,
    /// Requests reported as failed whose ack may still arrive.
    in_doubt: HashMap<u64, KvOp>,
    last_slot: HashMap<u32, u64>,
}

/// The single-threaded generator client.
#[derive(Debug)]
pub struct Client {
    conns: Vec<Conn>,
    /// Failures noticed outside `poll` (submits on dead connections).
    ready: Vec<Done>,
    pub history: History,
    /// Every ack received, late ones included.
    pub acked: u64,
    pub tracer: Tracer,
    buf: Vec<u8>,
    last_scan: Instant,
}

impl Client {
    /// Opens one connection per client id. A refused connection is not an
    /// error: its requests fail.
    pub fn connect(addr: SocketAddr, clients: &[ClientId], tracer: Tracer) -> Self {
        let conns = clients
            .iter()
            .map(|&client| {
                let stream = TcpStream::connect(addr).and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_nonblocking(true)?;
                    Ok(s)
                });
                Conn {
                    refused: stream.is_err(),
                    stream: stream.ok(),
                    client,
                    next_request: 1,
                    decoder: FrameDecoder::new(),
                    out: Vec::with_capacity(64 * 1024),
                    unflushed: Vec::new(),
                    pending: HashMap::new(),
                    in_doubt: HashMap::new(),
                    last_slot: HashMap::new(),
                }
            })
            .collect();
        Client {
            conns,
            ready: Vec::new(),
            history: History::default(),
            acked: 0,
            tracer,
            buf: vec![0; 64 * 1024],
            last_scan: Instant::now(),
        }
    }

    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    /// Requests sent and not yet finished.
    pub fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum::<usize>() + self.ready.len()
    }

    /// Requests reported failed that the server may still have applied.
    pub fn in_doubt(&self) -> usize {
        self.conns.iter().map(|c| c.in_doubt.len()).sum()
    }

    /// Whether any connection is still open.
    pub fn any_alive(&self) -> bool {
        self.conns.iter().any(|c| c.stream.is_some())
    }

    /// Queues `op` on connection `conn`; it is sent by the next
    /// [`flush`](Client::flush).
    pub fn submit(&mut self, conn: usize, op: KvOp, due: Instant) {
        self.history.sent(op);
        let c = &mut self.conns[conn];
        if c.stream.is_none() {
            let now = Instant::now();
            let failure = if c.refused { Failure::Refused } else { Failure::Disconnected };
            self.ready.push(Done { conn, due, sent: now, at: now, outcome: Err(failure) });
            return;
        }
        let request = c.next_request;
        c.next_request += 1;
        encode_frame(
            &Request { client: c.client, request: RequestId(request), op }.encode(),
            &mut c.out,
        );
        c.unflushed.push(request);
        c.pending.insert(request, Pending { op, due, sent: due });
    }

    /// Writes every queued request the sockets accept now.
    pub fn flush(&mut self) {
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            let Some(stream) = c.stream.as_mut() else { continue };
            if c.out.is_empty() {
                continue;
            }
            let start = Instant::now();
            let mut written = 0;
            let mut broken = false;
            while written < c.out.len() {
                match stream.write(&c.out[written..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            let end = Instant::now();
            c.out.drain(..written);
            for id in c.unflushed.drain(..) {
                if let Some(p) = c.pending.get_mut(&id) {
                    p.sent = end;
                }
            }
            self.tracer.span("send", start, end);
            if broken {
                self.disconnect(i, end);
            }
        }
    }

    /// Fails every pending request of connection `i` and closes it.
    fn disconnect(&mut self, i: usize, now: Instant) {
        let c = &mut self.conns[i];
        c.stream = None;
        c.out.clear();
        c.unflushed.clear();
        for (id, p) in c.pending.drain() {
            c.in_doubt.insert(id, p.op);
            self.ready.push(Done {
                conn: i,
                due: p.due,
                sent: p.sent,
                at: now,
                outcome: Err(Failure::Disconnected),
            });
        }
    }

    /// Waits until an ack arrives or `until` passes, then collects every
    /// finished request into `done`. Errs on a wrong answer.
    pub fn poll(&mut self, until: Instant, done: &mut Vec<Done>) -> Result<(), String> {
        self.flush();
        let now = Instant::now();
        if self.ready.is_empty() {
            let fds: Vec<_> = self
                .conns
                .iter()
                .filter_map(|c| c.stream.as_ref().map(|s| (s.as_raw_fd(), !c.out.is_empty())))
                .collect();
            let wait = until.saturating_duration_since(now);
            if fds.is_empty() {
                std::thread::sleep(wait);
            } else if !wait.is_zero() {
                wait_ready(&fds, wait);
            }
        }
        for i in 0..self.conns.len() {
            self.drain(i, done)?;
        }
        done.append(&mut self.ready);
        let now = Instant::now();
        if now.duration_since(self.last_scan) >= Duration::from_millis(100) {
            self.last_scan = now;
            self.expire(now, done);
        }
        Ok(())
    }

    /// Reads and decodes everything connection `i` has buffered.
    fn drain(&mut self, i: usize, done: &mut Vec<Done>) -> Result<(), String> {
        let start = Instant::now();
        let mut eof = false;
        let mut got = 0usize;
        {
            let c = &mut self.conns[i];
            let Some(stream) = c.stream.as_mut() else { return Ok(()) };
            loop {
                match stream.read(&mut self.buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        got += n;
                        c.decoder.feed(&self.buf[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
        }
        let at = Instant::now();
        if got > 0 {
            self.tracer.span("drain", start, at);
        }
        loop {
            let frame = match self.conns[i].decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => return Err(format!("connection {i}: undecodable frame: {e}")),
            };
            let resp = Response::decode(&frame)
                .map_err(|e| format!("connection {i}: malformed response: {e}"))?;
            self.ack(i, &resp, at, done)?;
        }
        if eof {
            self.disconnect(i, at);
        }
        Ok(())
    }

    fn ack(
        &mut self,
        i: usize,
        resp: &Response,
        at: Instant,
        done: &mut Vec<Done>,
    ) -> Result<(), String> {
        let c = &mut self.conns[i];
        let id = resp.request.0;
        let (op, pending) = match c.pending.remove(&id) {
            Some(p) => (p.op, Some(p)),
            None => match c.in_doubt.remove(&id) {
                Some(op) => (op, None), // late ack of a request already counted as failed
                None if id < c.next_request => {
                    return Err(format!("duplicate ack for request {id} on connection {i}"))
                }
                None => return Err(format!("ack for unknown request {id} on connection {i}")),
            },
        };
        let slot = resp.outcome.slot();
        let last = c.last_slot.entry(resp.shard).or_insert(0);
        if slot < *last {
            return Err(format!(
                "connection {i}: shard {} slot went backwards from {} to {slot}",
                resp.shard, *last
            ));
        }
        *last = slot;
        let client = c.client.0;
        self.acked += 1;
        self.history.acked(op, resp)?;
        if let Some(p) = pending {
            self.tracer.request("request", client, id, p.sent, at);
            done.push(Done { conn: i, due: p.due, sent: p.sent, at, outcome: Ok(resp.outcome) });
        }
        Ok(())
    }

    /// Fails every request unanswered for [`REQUEST_TIMEOUT`].
    fn expire(&mut self, now: Instant, done: &mut Vec<Done>) {
        for (i, c) in self.conns.iter_mut().enumerate() {
            let expired: Vec<u64> = c
                .pending
                .iter()
                .filter(|(_, p)| now.duration_since(p.due) > REQUEST_TIMEOUT)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                let p = c.pending.remove(&id).expect("just listed");
                c.in_doubt.insert(id, p.op);
                done.push(Done {
                    conn: i,
                    due: p.due,
                    sent: p.sent,
                    at: now,
                    outcome: Err(Failure::TimedOut),
                });
            }
        }
    }
}

/// The generator's timing floor: the median round trip of a frame
/// through a loopback echo peer, driven by the same `ppoll` wait and
/// frame decoding the client uses. Microseconds.
pub fn floor_rtt_us(samples: usize) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut near = TcpStream::connect(listener.local_addr()?)?;
    let (mut far, _) = listener.accept()?;
    for s in [&near, &far] {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
    }
    let mut frame = Vec::new();
    let probe = Request { client: ClientId(0), request: RequestId(0), op: KvOp::Get { key: 0 } };
    encode_frame(&probe.encode(), &mut frame);
    let (mut near_dec, mut far_dec) = (FrameDecoder::new(), FrameDecoder::new());
    let mut buf = vec![0u8; 4096];
    let mut rtts = Vec::with_capacity(samples);
    let fds = [(near.as_raw_fd(), false), (far.as_raw_fd(), false)];
    for _ in 0..samples {
        let start = Instant::now();
        near.write_all(&frame)?;
        'echo: loop {
            wait_ready(&fds, Duration::from_millis(10));
            while let Some(n) = read_some(&mut far, &mut buf)? {
                far_dec.feed(&buf[..n]);
            }
            while let Some(payload) = far_dec.next_frame().map_err(io::Error::other)? {
                let mut echo = Vec::new();
                encode_frame(&payload, &mut echo);
                far.write_all(&echo)?;
            }
            while let Some(n) = read_some(&mut near, &mut buf)? {
                near_dec.feed(&buf[..n]);
            }
            if near_dec.next_frame().map_err(io::Error::other)?.is_some() {
                break 'echo;
            }
        }
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&mut rtts))
}

/// One nonblocking read: `Some(n)` bytes, `None` when nothing is
/// buffered; EOF is an error here (the echo peer never closes).
fn read_some(s: &mut TcpStream, buf: &mut [u8]) -> io::Result<Option<usize>> {
    match s.read(buf) {
        Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
        Ok(n) => Ok(Some(n)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}
