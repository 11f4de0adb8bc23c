//! In-memory span recorder for traced runs.
//!
//! Spans are recorded around the calls the benchmark itself makes into
//! the system: one `request` span per `(ClientId, RequestId)` from send
//! to ack, `send` and `drain` spans around socket writes and reads,
//! `scrape` and `audit` spans around `remote_stats` / `remote_audit`,
//! `sweep` spans around each checker sweep, and one span per phase as
//! the parent of everything inside it. They are kept in memory and
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Request spans: the `(client, request)` pair; others: zeros.
    client: u64,
    request: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span storage; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    /// Index + 1 of the innermost open phase span (0 = none).
    phase: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, base: Instant::now(), spans: Vec::new(), phase: 0 }
    }

    /// Turns recording on or off (untraced stretches of a traced run
    /// measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under the current phase.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.request(name, 0, 0, start, end);
    }

    /// Records a request span keyed by `(client, request)`.
    pub fn request(
        &mut self,
        name: &'static str,
        client: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, client, request, parent: self.phase, start_ns, end_ns });
        }
    }

    /// Opens a phase span; spans recorded until [`end_phase`] are its
    /// children. Phases are recorded even while request tracing is off.
    ///
    /// [`end_phase`]: Tracer::end_phase
    pub fn begin_phase(&mut self, name: &'static str) {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            client: 0,
            request: 0,
            parent: self.phase,
            start_ns: now,
            end_ns: now,
        });
        self.phase = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
    }

    pub fn end_phase(&mut self) {
        if let Some(i) = self.phase.checked_sub(1) {
            let now = self.ns(Instant::now());
            let span = &mut self.spans[i as usize];
            span.end_ns = now;
            self.phase = span.parent;
        }
    }

    /// Mean duration of the spans named `name` directly under the phases
    /// named `phase`, in µs.
    pub fn mean_us_under(&self, name: &str, phase: &str) -> f64 {
        let under = |s: &Span| {
            s.parent.checked_sub(1).is_some_and(|p| self.spans[p as usize].name == phase)
        };
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name && under(s))
            .fold((0u64, 0u64), |(sum, n), s| (sum + (s.end_ns - s.start_ns), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1000.0
        }
    }

    /// Writes every span as one tab-separated line:
    /// `id name parent client request start_ns end_ns` (ids are 1-based
    /// line numbers; parent 0 = top level).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48 + 64);
        out.push_str("id\tname\tparent\tclient\trequest\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.parent,
                s.client,
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        fs::write(path, out)
    }
}
