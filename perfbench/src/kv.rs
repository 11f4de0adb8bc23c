//! The KV workloads: one `indulgent_server` lifetime per run, driven by
//! the single-threaded generator through warm-up, an open-loop phase at
//! a fixed rate, and a closed-loop phase of a fixed command count.

use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use indulgent_model::ClientId;
use indulgent_server::wal::MAX_RECORD;
use indulgent_server::{remote_audit, remote_stats, KvOp, Outcome, StatsReport};

use crate::layers::{us, Window};
use crate::net::{floor_rtt_us, Client, Done};
use crate::ops::OpStream;
use crate::server::ServerProc;
use crate::stats::{mean, median, quantile};
use crate::sys::{cpu_ms_between, nproc, thread_cpu_ns, ProcSample};
use crate::trace::Tracer;
use crate::{Args, Metric, RunResult};

/// One KV workload. The rates and counts are fixed here, not derived
/// from the code under test, so they stay put across changes.
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    pub name: &'static str,
    /// `--dir` on a fresh directory: WAL + fsync before ack, checkpoint
    /// every [`SNAPSHOT_EVERY`] slots.
    pub durable: bool,
    pub shards: u32,
    /// Share of puts, percent; the rest are gets.
    pub put_pct: u64,
    /// Open-loop offered rate, commands/s.
    pub open_rate: f64,
    /// Open-loop commands per latency segment (see [`SEGMENT_QUANTILE`]).
    pub segment: u64,
    /// Server lifetimes per run, each loaded alike.
    pub lifetimes: u64,
    /// Rounds per lifetime, each an open-loop phase and then a
    /// closed-loop phase; the open loops' share of `--seconds` is split
    /// evenly over every round of the run. More rounds spread the
    /// closed-loop phases, which set goodput, over the run.
    pub rounds: u64,
    /// Closed-loop commands per round.
    pub closed_count: u64,
    /// Closed-loop commands per chunk. Goodput and server CPU per command
    /// are means over the chunks in which no command failed.
    pub chunk: u64,
}

pub const DURABLE_WRITE: KvSpec = KvSpec {
    name: "kv-durable-write",
    durable: true,
    shards: 1,
    put_pct: 90,
    open_rate: 1000.0,
    segment: 750,
    lifetimes: 20,
    rounds: 1,
    closed_count: 12_000,
    chunk: 2_000,
};

pub const LEASE_READ: KvSpec = KvSpec {
    name: "kv-lease-read",
    durable: false,
    shards: 2,
    put_pct: 10,
    open_rate: 8000.0,
    segment: 2_000,
    lifetimes: 1,
    rounds: 10,
    closed_count: 60_000,
    chunk: 20_000,
};

/// Server set-ups per run at least; `setup_s` is their median. Every
/// lifetime is one, and set-ups that only probe make up the rest.
pub const SETUPS: usize = 5;
pub const BATCH: usize = 8;
pub const DEPTH: u64 = 4;
pub const SNAPSHOT_EVERY: u64 = 256;
/// Closed-loop outstanding commands per connection.
pub const WINDOW: usize = 32;
/// Closed-loop warm-up commands per lifetime before anything is timed.
pub const WARMUP: u64 = 2_000;
/// Share of `--seconds` spent in the open-loop phases.
pub const OPEN_SHARE: f64 = 0.5;
/// Most commands one durable lifetime may carry. The service's session
/// table is never pruned and goes into every checkpoint, so a durable
/// server stops acknowledging once a snapshot passes `MAX_RECORD`, at
/// 23k to 26k commands; a lifetime ends well before that, so no command
/// fails. `snapshot.record_share` shows how close it came.
pub const DURABLE_LIFETIME_MAX: u64 = 18_000;
/// The open-loop phases are cut into segments of `segment` consecutive
/// commands, each with its own p50 and p99, and the run reports this
/// quantile of each over the segments: CPU steal and disk stalls on a
/// shared host only ever add delay, and they come in bursts.
pub const SEGMENT_QUANTILE: f64 = 0.25;
/// A warm-up or closed-loop phase stops offering work after this long;
/// commands it never sent count as failed.
pub const CLOSED_CAP: Duration = Duration::from_secs(60);
/// The timing floor a loopback echo must stay under.
pub const FLOOR_LIMIT_US: f64 = 100.0;

/// Samples the server's `/proc` entry at most every 100 ms, keeping the
/// last sample taken while it lived.
struct Monitor {
    pid: u32,
    last: Option<ProcSample>,
    next: Instant,
}

impl Monitor {
    fn new(pid: u32) -> Self {
        let mut m = Monitor { pid, last: None, next: Instant::now() };
        m.sample();
        m
    }

    fn sample(&mut self) -> Option<ProcSample> {
        if let Some(s) = crate::sys::proc_sample(&self.pid.to_string()) {
            self.last = Some(s);
        }
        self.next = Instant::now() + Duration::from_millis(100);
        self.last
    }

    fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.sample();
        }
    }
}

#[derive(Debug, Default)]
struct OpenStats {
    attempted: u64,
    failed: u64,
    /// Due → ack per segment, ms; failed requests are +∞.
    latency_ms: Vec<Vec<f64>>,
    /// Due → send, ms.
    late_ms: Vec<f64>,
    /// Send → ack of acknowledged puts, µs.
    write_us: Vec<f64>,
    /// Send → ack of fast (lease/quorum) reads, µs.
    fast_read_us: Vec<f64>,
}

impl OpenStats {
    /// Pools another round's open loop into this one.
    fn append(&mut self, mut o: OpenStats) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latency_ms.append(&mut o.latency_ms);
        self.late_ms.append(&mut o.late_ms);
        self.write_us.append(&mut o.write_us);
        self.fast_read_us.append(&mut o.fast_read_us);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ClosedStats {
    attempted: u64,
    acked: u64,
    failed: u64,
    elapsed: Duration,
    /// Server CPU time over the chunk, ms (`None` if unreadable).
    cpu_ms: Option<f64>,
}

impl ClosedStats {
    fn goodput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.acked as f64 / self.elapsed.as_secs_f64()
        }
    }

    fn add(&mut self, o: &ClosedStats) {
        self.attempted += o.attempted;
        self.acked += o.acked;
        self.failed += o.failed;
        self.elapsed += o.elapsed;
    }
}

/// Offers `n` commands at `rate` per second regardless of acks, then
/// waits for the stragglers.
fn open_loop(
    client: &mut Client,
    stream: &mut OpStream,
    rate: f64,
    n: u64,
    segment_len: u64,
    monitor: &mut Monitor,
) -> Result<OpenStats, String> {
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let segments = n.div_ceil(segment_len).max(1);
    let mut st = OpenStats {
        attempted: n,
        latency_ms: vec![Vec::new(); segments as usize],
        ..OpenStats::default()
    };
    // The index of a command, hence its segment, follows from its due time.
    let segment = |d: &Done| {
        let index = (d.due.saturating_duration_since(start).as_secs_f64() * rate).round() as u64;
        (index / segment_len).min(segments - 1) as usize
    };
    let mut i = 0u64;
    let mut done: Vec<Done> = Vec::new();
    loop {
        let now = Instant::now();
        while i < n && due(i) <= now {
            client.submit((i % client.conns() as u64) as usize, stream.next_op(), due(i));
            i += 1;
        }
        if i == n && client.outstanding() == 0 {
            break;
        }
        let until = if i < n { due(i) } else { now + Duration::from_millis(20) };
        client.poll(until, &mut done)?;
        for d in done.drain(..) {
            st.late_ms.push(ms(d.sent.saturating_duration_since(d.due)));
            let latency = &mut st.latency_ms[segment(&d)];
            match d.outcome {
                Ok(outcome) => {
                    latency.push(ms(d.at - d.due));
                    let send_ack = (d.at - d.sent).as_secs_f64() * 1e6;
                    match outcome {
                        Outcome::Put { .. } => st.write_us.push(send_ack),
                        Outcome::Read { .. } => st.fast_read_us.push(send_ack),
                        Outcome::Get { .. } => {}
                    }
                }
                Err(_) => {
                    st.failed += 1;
                    latency.push(f64::INFINITY);
                }
            }
        }
        monitor.tick(Instant::now());
    }
    Ok(st)
}

/// Keeps `window` commands outstanding per connection until `count`
/// have been offered (or `deadline` passed) and every one has finished.
fn closed_loop(
    client: &mut Client,
    stream: &mut OpStream,
    count: u64,
    window: usize,
    deadline: Instant,
    monitor: &mut Monitor,
) -> Result<ClosedStats, String> {
    let start = Instant::now();
    let cpu_start = thread_cpu_ns(monitor.pid);
    let mut st = ClosedStats { attempted: count, ..ClosedStats::default() };
    let mut offered = 0u64;
    for conn in 0..client.conns() {
        for _ in 0..window {
            if offered < count {
                client.submit(conn, stream.next_op(), start);
                offered += 1;
            }
        }
    }
    let mut last = start;
    let mut done: Vec<Done> = Vec::new();
    while client.outstanding() > 0 {
        client.poll(Instant::now() + Duration::from_millis(20), &mut done)?;
        let now = Instant::now();
        for d in done.drain(..) {
            if d.outcome.is_ok() {
                st.acked += 1;
            } else {
                st.failed += 1;
            }
            last = last.max(d.at);
            if offered < count && now < deadline {
                client.submit(d.conn, stream.next_op(), now);
                offered += 1;
            }
        }
        monitor.tick(now);
    }
    st.failed += count - offered;
    st.elapsed = last - start;
    st.cpu_ms = cpu_start.zip(thread_cpu_ns(monitor.pid)).map(|(a, b)| cpu_ms_between(&a, &b));
    Ok(st)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn scrape(addr: SocketAddr, shards: u32, tracer: &mut Tracer) -> Option<Vec<StatsReport>> {
    let start = Instant::now();
    let reports: Option<Vec<StatsReport>> =
        (0..shards).map(|s| remote_stats(addr, s, Duration::from_secs(2)).ok()).collect();
    tracer.span("scrape", start, Instant::now());
    reports
}

fn server_args(spec: &KvSpec, dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "127.0.0.1:0".into(),
        BATCH.to_string(),
        DEPTH.to_string(),
        "--reads".into(),
        "lease".into(),
        "--shards".into(),
        spec.shards.to_string(),
    ];
    if let Some(dir) = dir {
        args.extend(["--dir".into(), dir.display().to_string()]);
        args.extend(["--snapshot-every".into(), SNAPSHOT_EVERY.to_string()]);
    }
    args
}

/// Spawns a server and times it until its first acknowledged probe.
fn set_up(args: &Args, spec: &KvSpec, work: &Path, k: usize) -> Result<(ServerProc, f64), String> {
    let dir = spec.durable.then(|| work.join(format!("data-{k}")));
    let start = Instant::now();
    let server = ServerProc::spawn(
        &args.server_bin,
        &server_args(spec, dir.as_deref()),
        &work.join(format!("server-{k}.log")),
    )?;
    let mut probe = Client::connect(server.addr, &[ClientId(1000 + k as u64)], Tracer::new(false));
    probe.submit(0, KvOp::Get { key: 0 }, start);
    let mut done = Vec::new();
    while done.is_empty() {
        probe.poll(Instant::now() + Duration::from_millis(50), &mut done)?;
    }
    let setup = start.elapsed().as_secs_f64();
    probe.history.verify()?;
    match done[0].outcome {
        Ok(_) => Ok((server, setup)),
        Err(f) => Err(format!("set-up probe failed: {f:?}")),
    }
}

pub fn run(args: &Args, spec: &KvSpec) -> Result<RunResult, String> {
    let floor = floor_rtt_us(200).map_err(|e| format!("loopback echo self-check: {e}"))?;
    if floor >= FLOOR_LIMIT_US {
        return Err(format!(
            "timing floor {floor:.1} µs >= {FLOOR_LIMIT_US} µs: the generator cannot time sub-ms acks here"
        ));
    }
    let per_lifetime = 1 + WARMUP + spec.rounds * (open_count(args, spec) + spec.closed_count);
    if spec.durable && per_lifetime > DURABLE_LIFETIME_MAX {
        return Err(format!(
            "{per_lifetime} commands per durable lifetime at --seconds {} passes {DURABLE_LIFETIME_MAX}",
            args.seconds
        ));
    }
    let work = args.out_dir.join(format!("{}-{}", spec.name, std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = measure(args, spec, &work, floor);
    let _ = fs::remove_dir_all(&work);
    result
}

/// Open-loop commands per round.
fn open_count(args: &Args, spec: &KvSpec) -> u64 {
    let rounds = (spec.lifetimes * spec.rounds) as f64;
    (spec.open_rate * args.seconds as f64 * OPEN_SHARE / rounds).round() as u64
}

/// What every lifetime of a run measured, pooled.
#[derive(Debug, Default)]
struct Pooled {
    open: OpenStats,
    closed: ClosedStats,
    chunks: Vec<ClosedStats>,
    /// The closed-loop chunks of a traced run, untraced and traced.
    plain: ClosedStats,
    traced: ClosedStats,
    /// Scrape windows merged over rounds; `None` once a scrape failed.
    open_w: Option<Window>,
    closed_w: Option<Window>,
    scrape_failed: bool,
    /// Per lifetime: peak RSS, MB; RSS growth per 1000 acks, KiB; server
    /// CPU ms and acks after warm-up; largest snapshot over `MAX_RECORD`.
    hwm_mb: Vec<f64>,
    rss_kb_per_kcmd: Vec<f64>,
    cpu_ms: f64,
    measured_acks: u64,
    snapshot_share: Vec<f64>,
}

impl Pooled {
    fn add_window(slot: &mut Option<Window>, failed: &mut bool, w: Option<Window>) {
        match (slot.as_mut(), w) {
            (_, None) => *failed = true,
            (Some(acc), Some(w)) => acc.merge(&w),
            (None, Some(w)) => *slot = Some(w),
        }
    }
}

fn measure(args: &Args, spec: &KvSpec, work: &Path, floor_us: f64) -> Result<RunResult, String> {
    // Set-ups that only probe come first, so `setup_s` is a median of at
    // least SETUPS even when a run measures fewer lifetimes.
    let probes = SETUPS.saturating_sub(spec.lifetimes as usize);
    let mut setups = Vec::with_capacity(probes + spec.lifetimes as usize);
    for k in 0..probes {
        let (server, secs) = set_up(args, spec, work, k)?;
        setups.push(secs);
        drop(server);
        let _ = fs::remove_dir_all(work.join(format!("data-{k}")));
    }
    let mut stream = OpStream::new(args.seed, spec.put_pct);
    let mut tracer = Tracer::new(args.trace);
    let mut pool = Pooled::default();
    for k in probes..probes + spec.lifetimes as usize {
        let (server, secs) = set_up(args, spec, work, k)?;
        setups.push(secs);
        tracer = lifetime(args, spec, work, k, server, &mut stream, tracer, &mut pool)?;
        let _ = fs::remove_dir_all(work.join(format!("data-{k}")));
    }
    if pool.scrape_failed {
        eprintln!(
            "perfbench: a stats scrape failed; the server-side layer metrics of its window read 0"
        );
        pool.open_w = None;
        pool.closed_w = None;
    }

    let Pooled { mut open, closed, chunks, plain, traced, open_w, closed_w, .. } = pool;
    let attempted = open.attempted + closed.attempted;
    let failed = open.failed + closed.failed;
    let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) =
        open.latency_ms.iter_mut().map(|seg| (median(seg), quantile(seg, 0.99))).unzip();
    let clean: Vec<&ClosedStats> = chunks.iter().filter(|c| c.failed == 0).collect();
    eprintln!(
        "perfbench: open-loop segment p50s {:.3?} ms, p99s {:.3?} ms; closed-loop chunks {:.0?} cmd/s, {:.2?} server CPU ms per 1000 cmds ({} of {} without failures)",
        p50s,
        p99s,
        chunks.iter().map(ClosedStats::goodput).collect::<Vec<_>>(),
        chunks.iter().map(|c| c.cpu_ms.map_or(0.0, |ms| per_k(ms, c.acked))).collect::<Vec<_>>(),
        clean.len(),
        chunks.len(),
    );
    // With no clean chunk (the server died early) the whole phase counts.
    let g: Vec<f64> = clean.iter().map(|c| c.goodput()).collect();
    let goodput = if g.is_empty() { closed.goodput() } else { mean(&g) };
    let cpu: Vec<f64> =
        clean.iter().filter_map(|c| c.cpu_ms.map(|ms| per_k(ms, c.acked))).collect();
    let cpu_per_kcmd =
        if cpu.is_empty() { per_k(pool.cpu_ms, pool.measured_acks) } else { mean(&cpu) };
    let e2e = vec![
        Metric::new("goodput_cmd_s", goodput, "1/s"),
        Metric::new("ack_p50_ms", finite(quantile(&mut p50s, SEGMENT_QUANTILE)), "ms"),
        Metric::new("ack_p99_ms", finite(quantile(&mut p99s, SEGMENT_QUANTILE)), "ms"),
        Metric::new("acked_ratio", (attempted - failed) as f64 / attempted as f64, "ratio"),
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new("peak_rss_mb", median(&mut pool.hwm_mb), "MB"),
        Metric::new("server_cpu_ms_per_kcmd", cpu_per_kcmd, "ms"),
    ];

    let o = |f: &dyn Fn(&Window) -> f64| open_w.as_ref().map_or(0.0, f);
    let c = |f: &dyn Fn(&Window) -> f64| closed_w.as_ref().map_or(0.0, f);
    let write_mean = mean(&open.write_us);
    let late_p99 = quantile(&mut open.late_ms, 0.99);
    let overhead = if args.trace && plain.goodput() > 0.0 {
        (1.0 - traced.goodput() / plain.goodput()) * 100.0
    } else {
        0.0
    };
    let snapshot_share =
        if pool.snapshot_share.is_empty() { 0.0 } else { median(&mut pool.snapshot_share) };
    let layers = vec![
        Metric::new("gen.late_p99_ms", late_p99, "ms"),
        Metric::new("gen.send_mean_us", tracer.mean_us_under("send", "open-loop"), "us"),
        Metric::new("gen.floor_rtt_us", floor_us, "us"),
        Metric::new(
            "frontdoor.write_residue_mean_us",
            o(&|w| w.write_residue_us(write_mean)),
            "us",
        ),
        Metric::new("frontdoor.read_mean_us", mean(&open.fast_read_us), "us"),
        Metric::new("engine.submit_seal_mean_us", o(&|w| us(w.all.submit_seal.mean())), "us"),
        Metric::new(
            "engine.submit_seal_p99_us",
            o(&|w| us(w.all.submit_seal.percentile(0.99) as f64)),
            "us",
        ),
        Metric::new("engine.seal_depth_mean", c(&|w| w.all.seal_depth.mean()), "batches"),
        Metric::new("log.cmds_per_slot", c(&Window::cmds_per_slot), "count"),
        Metric::new("engine.decide_apply_mean_us", o(&|w| us(w.all.decide_apply.mean())), "us"),
        Metric::new("engine.apply_ack_mean_us", o(&|w| us(w.all.apply_ack.mean())), "us"),
        Metric::new("runtime.seal_decide_mean_us", o(&|w| us(w.all.seal_decide.mean())), "us"),
        Metric::new(
            "runtime.seal_decide_p99_us",
            o(&|w| us(w.all.seal_decide.percentile(0.99) as f64)),
            "us",
        ),
        Metric::new("wal.fsync_mean_us", o(&|w| us(w.all.wal_fsync.mean())), "us"),
        Metric::new("wal.fsync_p99_us", o(&|w| us(w.all.wal_fsync.percentile(0.99) as f64)), "us"),
        Metric::new("wal.fsyncs_per_kcmd", c(&Window::fsyncs_per_kcmd), "count"),
        Metric::new("snapshot.record_share", snapshot_share, "ratio"),
        Metric::new("lease.fast_read_share", c(&Window::fast_read_share), "ratio"),
        Metric::new("lease.quorum_reads", c(&|w| w.all.reads_quorum as f64), "count"),
        Metric::new("lease.sequenced_reads", c(&|w| w.all.reads_sequenced as f64), "count"),
        Metric::new("shard.commit_skew", c(&Window::commit_skew), "ratio"),
        Metric::new("engine.rss_kb_per_kcmd", median(&mut pool.rss_kb_per_kcmd), "KiB"),
        Metric::new("trace.overhead_pct", overhead, "%"),
    ];
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}-seed{}.tsv", spec.name, args.seed));
        tracer.write_tsv(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(RunResult { attempted, failed, e2e, layers })
}

/// Loads one server lifetime: warm-up, the open loop, the closed loop in
/// chunks; then checks its answers, audits it, and stops it. Hands the
/// tracer back for the next lifetime.
#[allow(clippy::too_many_arguments)]
fn lifetime(
    args: &Args,
    spec: &KvSpec,
    work: &Path,
    k: usize,
    mut server: ServerProc,
    stream: &mut OpStream,
    tracer: Tracer,
    pool: &mut Pooled,
) -> Result<Tracer, String> {
    let addr = server.addr;
    let mut monitor = Monitor::new(server.pid());
    let conns = nproc().clamp(1, 2);
    let clients: Vec<ClientId> = (1..=conns as u64).map(ClientId).collect();
    let mut client = Client::connect(addr, &clients, tracer);

    client.tracer.begin_phase("warmup");
    let deadline = Instant::now() + CLOSED_CAP;
    closed_loop(&mut client, stream, WARMUP, WINDOW, deadline, &mut monitor)?;
    client.tracer.end_phase();
    let base = monitor.sample().unwrap_or_default();
    let acked_base = client.acked;

    for r in 0..spec.rounds {
        let before_open = scrape(addr, spec.shards, &mut client.tracer);
        client.tracer.begin_phase("open-loop");
        let open = open_loop(
            &mut client,
            stream,
            spec.open_rate,
            open_count(args, spec),
            spec.segment,
            &mut monitor,
        )?;
        client.tracer.end_phase();
        let after_open = scrape(addr, spec.shards, &mut client.tracer);

        // The closed loop runs in chunks; a traced run traces every other
        // chunk, and the goodputs of the two halves give the tracing
        // overhead.
        client.tracer.begin_phase("closed-loop");
        let deadline = Instant::now() + CLOSED_CAP;
        let (mut closed, mut closed_cpu_ms) = (ClosedStats::default(), 0.0);
        for c in 0..spec.closed_count.div_ceil(spec.chunk) {
            let n = spec.chunk.min(spec.closed_count - c * spec.chunk);
            let on = args.trace && c % 2 == 1;
            client.tracer.set_enabled(on);
            let st = closed_loop(&mut client, stream, n, WINDOW, deadline, &mut monitor)?;
            let half = if on { &mut pool.traced } else { &mut pool.plain };
            half.add(&st);
            closed.add(&st);
            closed_cpu_ms += st.cpu_ms.unwrap_or(0.0);
            pool.chunks.push(st);
        }
        client.tracer.set_enabled(args.trace);
        client.tracer.end_phase();
        let after_closed = scrape(addr, spec.shards, &mut client.tracer);

        let open_w = before_open.as_deref().zip(after_open.as_deref()).map(window);
        let closed_w = after_open.as_deref().zip(after_closed.as_deref()).map(window);
        eprintln!(
            "perfbench: lifetime {k} round {r}: closed loop {:.0} cmd/s, {:.2} server CPU ms per 1000 cmds, fsync mean {:.0} µs",
            closed.goodput(),
            per_k(closed_cpu_ms, closed.acked),
            closed_w.as_ref().map_or(0.0, |w| us(w.all.wal_fsync.mean())),
        );
        pool.open.append(open);
        pool.closed.add(&closed);
        Pooled::add_window(&mut pool.open_w, &mut pool.scrape_failed, open_w);
        Pooled::add_window(&mut pool.closed_w, &mut pool.scrape_failed, closed_w);
    }
    let end = monitor.sample().unwrap_or_default();
    let exit = server.exit_status();

    // Correctness: the history of every ack, then the server's own audit
    // of the lifetime (only a live server can be audited).
    client.history.verify()?;
    let lifetime_acked = client.acked + 1; // + the set-up probe
    if exit.is_none() && client.any_alive() {
        let start = Instant::now();
        let audit = remote_audit(addr, Duration::from_secs(30));
        client.tracer.span("audit", start, Instant::now());
        match audit {
            Ok(a) => {
                if !a.ok {
                    return Err(format!("remote_audit reports a violation: {a:?}"));
                }
                let served = a.committed + a.fast_reads;
                let in_doubt = client.in_doubt() as u64;
                if served < lifetime_acked || served > lifetime_acked + in_doubt {
                    return Err(format!(
                        "server committed {} + fast-read {} = {served} commands, client saw {lifetime_acked} acks ({in_doubt} in doubt)",
                        a.committed, a.fast_reads
                    ));
                }
            }
            Err(e) => {
                eprintln!(
                    "perfbench: could not audit the server ({e}); its answers were still checked"
                )
            }
        }
    } else {
        eprintln!(
            "perfbench: server died during lifetime {k} ({}); its unacked requests are failed",
            exit.as_deref().unwrap_or("connections lost")
        );
        if let Ok(log) = fs::read_to_string(work.join(format!("server-{k}.log"))) {
            for line in log.lines().take(5) {
                eprintln!("perfbench:   server: {line}");
            }
        }
    }

    let measured_acks = client.acked - acked_base;
    pool.hwm_mb.push(end.hwm_kb as f64 / 1024.0);
    pool.rss_kb_per_kcmd.push(per_k(end.rss_kb as f64 - base.rss_kb as f64, measured_acks));
    pool.cpu_ms += end.cpu_ms - base.cpu_ms;
    pool.measured_acks += measured_acks;
    if spec.durable {
        let snap = largest_snapshot(&work.join(format!("data-{k}")));
        pool.snapshot_share.push(snap as f64 / MAX_RECORD as f64);
    }
    drop(server);
    Ok(client.tracer)
}

fn window((before, after): (&[StatsReport], &[StatsReport])) -> Window {
    Window::between(before, after)
}

/// Size in bytes of the largest `state.snap` under `dir` (one per shard),
/// 0 if none was written yet.
fn largest_snapshot(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                largest_snapshot(&path)
            } else if e.file_name() == "state.snap" {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .max()
        .unwrap_or(0)
}

/// Per 1000 commands.
fn per_k(x: f64, cmds: u64) -> f64 {
    if cmds == 0 {
        0.0
    } else {
        x * 1e3 / cmds as f64
    }
}

/// JSON has no infinity: a percentile that lands on a failed request
/// reads as the largest finite number, worse than any measured time.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indulgent_server::{EngineConfig, KvServer};

    #[test]
    fn a_server_killed_mid_run_fails_requests_without_aborting() {
        let server = KvServer::bind("127.0.0.1:0", EngineConfig::default_5()).expect("bind");
        let mut client =
            Client::connect(server.addr(), &[ClientId(1), ClientId(2)], Tracer::new(false));
        let mut stream = OpStream::new(9, 90);
        let mut monitor = Monitor::new(std::process::id());
        let far = Instant::now() + Duration::from_secs(60);
        let healthy = closed_loop(&mut client, &mut stream, 400, 8, far, &mut monitor)
            .expect("no wrong answer");
        assert_eq!((healthy.acked, healthy.failed), (400, 0));

        // Kill it with a window of requests in flight, then keep offering.
        for _ in 0..16 {
            client.submit(0, stream.next_op(), Instant::now());
        }
        client.flush();
        server.kill();
        let dead = closed_loop(&mut client, &mut stream, 400, 8, far, &mut monitor)
            .expect("failures are not wrong answers");
        let attempted = healthy.attempted + dead.attempted;
        let failed_ratio = (healthy.failed + dead.failed) as f64 / attempted as f64;
        assert!(failed_ratio > 0.0, "{dead:?}");
        assert!(!client.any_alive());
        client.history.verify().expect("every ack before the kill is consistent");
    }
}
