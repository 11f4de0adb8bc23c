//! The `checker-sweep` workload: the paper's exhaustive worst-case sweep
//! of `A_{t+2}` (n = 7, t = 2, crashes anywhere in rounds 1..=t+2, runs
//! up to round 12(t+2)), repeated in-process on one worker per core.
//!
//! It touches only `sim`, `checker`, `core` and `model` — no I/O and no
//! server layer — so a service change must read as no change here.
//! Every sweep must report `worst_round = t + 2` over all 517,889
//! schedules, and the round engine's counters must repeat exactly from
//! one sweep to the next.

use std::time::{Duration, Instant};

use indulgent_checker::{worst_case_decision_round_with, SweepBackend};
use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_sim::{engine_counters, EngineSnapshot, ModelKind};

use crate::ops::SplitMix64;
use crate::stats::{median, quantile};
use crate::sys::{nproc, proc_sample};
use crate::trace::Tracer;
use crate::{Args, Metric, RunResult};

/// The measured sweep: `(n, t, schedules)`.
pub const SWEEP: (usize, usize, u64) = (7, 2, 517_889);
/// The set-up sweep, timed cold: `(n, t, schedules)`.
pub const SETUP_SWEEP: (usize, usize, u64) = (5, 2, 15_681);
pub const SETUPS: usize = 11;
/// Consecutive sweeps per latency segment: as for the KV workloads, each
/// segment gets its own p50 and p99 (with four sweeps, the second
/// fastest and the slowest), and the run reports the lower quartile of
/// each over the segments.
pub const SEGMENT: usize = 4;
/// The run reports the lower quartile of the segment p50s and p99s and
/// of CPU per sweep, and the upper quartile of sweep rates: steal from
/// neighbours on a shared host only ever slows a sweep down.
pub const SEGMENT_QUANTILE: f64 = 0.25;
pub const RATE_QUANTILE: f64 = 0.75;
/// Sweeps per run at the least, however long they take.
pub const MIN_SWEEPS: usize = 2 * SEGMENT;

/// Distinct proposals in a seeded order.
fn proposals(n: usize, seed: u64) -> Vec<Value> {
    let mut vals: Vec<u64> = (0..n as u64).map(|i| 2 * i + 1).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..n).rev() {
        vals.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    vals.into_iter().map(Value::new).collect()
}

/// One verified sweep: its wall time and the engine counters it moved.
fn sweep(
    n: usize,
    t: usize,
    schedules: u64,
    seed: u64,
) -> Result<(Duration, EngineSnapshot), String> {
    let config = SystemConfig::majority(n, t).map_err(|e| format!("config n={n} t={t}: {e:?}"))?;
    let factory = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    let horizon = t as u32 + 2;
    let props = proposals(n, seed);
    let before = engine_counters().snapshot();
    let start = Instant::now();
    let report = worst_case_decision_round_with(
        &factory,
        config,
        ModelKind::Es,
        &props,
        horizon,
        12 * horizon,
        SweepBackend::parallel(nproc()),
    )
    .map_err(|e| format!("sweep n={n} t={t}: {e:?}"))?;
    let took = start.elapsed();
    let after = engine_counters().snapshot();
    if report.worst_round != Round::new(horizon) {
        return Err(format!(
            "n={n} t={t}: worst decision round {:?}, expected t+2 = {horizon}",
            report.worst_round
        ));
    }
    if report.runs != schedules {
        return Err(format!("n={n} t={t}: swept {} schedules, expected {schedules}", report.runs));
    }
    let moved = EngineSnapshot {
        rounds_stepped: after.rounds_stepped - before.rounds_stepped,
        fast_path_rounds: after.fast_path_rounds - before.fast_path_rounds,
        deliveries_built: after.deliveries_built - before.deliveries_built,
        messages_cloned: after.messages_cloned - before.messages_cloned,
        forks: after.forks - before.forks,
    };
    Ok((took, moved))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (n, t, schedules) = SETUP_SWEEP;
        let start = Instant::now();
        sweep(n, t, schedules, args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }

    let (n, t, schedules) = SWEEP;
    let mut tracer = Tracer::new(args.trace);
    let cpu = || proc_sample("self").map_or(0.0, |s| s.cpu_ms);
    let begin = Instant::now();
    let mut times_ms: Vec<f64> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut cpu_per_k: Vec<f64> = Vec::new();
    let mut counts: Option<EngineSnapshot> = None;
    // A traced run alternates untraced and traced sweeps for the overhead.
    let (mut plain, mut traced) = ((0u64, 0.0f64), (0u64, 0.0f64));
    tracer.begin_phase("sweeps");
    while times_ms.len() < MIN_SWEEPS || begin.elapsed().as_secs_f64() < args.seconds as f64 {
        let on = args.trace && times_ms.len() % 2 == 1;
        tracer.set_enabled(on);
        let (start, cpu0) = (Instant::now(), cpu());
        let (took, moved) = sweep(n, t, schedules, args.seed)?;
        tracer.span("sweep", start, Instant::now());
        cpu_per_k.push((cpu() - cpu0) * 1e3 / schedules as f64);
        rates.push(schedules as f64 / took.as_secs_f64());
        match counts {
            None => counts = Some(moved),
            Some(first) if first != moved => {
                return Err(format!(
                    "engine counters differ between identical sweeps: {first:?} vs {moved:?}"
                ))
            }
            Some(_) => {}
        }
        let side = if on { &mut traced } else { &mut plain };
        side.0 += schedules;
        side.1 += took.as_secs_f64();
        times_ms.push(took.as_secs_f64() * 1e3);
    }
    tracer.set_enabled(args.trace);
    tracer.end_phase();
    let hwm_kb = proc_sample("self").map_or(0, |s| s.hwm_kb);
    let c = counts.expect("at least one sweep");
    let sweeps = times_ms.len() as u64;
    let runs = sweeps * schedules;
    let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) = times_ms
        .chunks(SEGMENT)
        .map(|seg| (median(&mut seg.to_vec()), quantile(&mut seg.to_vec(), 0.99)))
        .unzip();
    let e2e = vec![
        Metric::new("goodput_cmd_s", quantile(&mut rates, RATE_QUANTILE), "1/s"),
        Metric::new("ack_p50_ms", quantile(&mut p50s, SEGMENT_QUANTILE), "ms"),
        Metric::new("ack_p99_ms", quantile(&mut p99s, SEGMENT_QUANTILE), "ms"),
        Metric::new("acked_ratio", 1.0, "ratio"),
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new("peak_rss_mb", hwm_kb as f64 / 1024.0, "MB"),
        Metric::new("server_cpu_ms_per_kcmd", quantile(&mut cpu_per_k, SEGMENT_QUANTILE), "ms"),
    ];
    let rate = |(r, s): (u64, f64)| if s > 0.0 { r as f64 / s } else { 0.0 };
    let overhead = if args.trace { (1.0 - rate(traced) / rate(plain)) * 100.0 } else { 0.0 };
    let per_run = |x: u64| x as f64 / schedules as f64;
    let per_round = |x: u64| x as f64 / c.rounds_stepped as f64;
    let layers = vec![
        Metric::new("sim.rounds_per_schedule", per_run(c.rounds_stepped), "count"),
        Metric::new("sim.fast_path_share", per_round(c.fast_path_rounds), "ratio"),
        Metric::new("sim.clones_per_round", per_round(c.messages_cloned), "count"),
        Metric::new("sim.forks_per_schedule", per_run(c.forks), "count"),
        Metric::new("checker.worst_round", (t + 2) as f64, "round"),
        Metric::new("trace.overhead_pct", overhead, "%"),
    ];
    if args.trace {
        let path = args.out_dir.join(format!("trace-checker-sweep-seed{}.tsv", args.seed));
        tracer.write_tsv(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(RunResult { attempted: runs, failed: 0, e2e, layers })
}
