//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//! ```
//!
//! Workloads: `kv-durable-write` and `kv-lease-read` start the real
//! `indulgent_server` binary and load it from one thread over at most
//! `nproc` (max 2) nonblocking connections; `checker-sweep` runs the
//! paper's exhaustive `t+2` sweep in-process. With `--trace 0` the last
//! stdout line is a JSON object carrying every end-to-end metric; with
//! `--trace 1` it carries every per-layer metric instead, and the spans
//! land in `DIR/trace-<workload>-seed<N>.tsv`. The line before it
//! records the host. A wrong answer, or a run that could not measure
//! anything, exits 1 without a result; bad arguments exit 2. See
//! `README.md`.

mod check;
mod kv;
mod layers;
mod net;
mod ops;
mod server;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use sys::{json_str, Host};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload reports each of them (see the README for what each means on
/// the checker sweep).
pub const END_TO_END: [(&str, &str); 7] = [
    ("goodput_cmd_s", "1/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("acked_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("server_cpu_ms_per_kcmd", "ms"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. A
/// workload that does not pass through a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("gen.late_p99_ms", "ms"),
    ("gen.send_mean_us", "us"),
    ("gen.floor_rtt_us", "us"),
    ("frontdoor.write_residue_mean_us", "us"),
    ("frontdoor.read_mean_us", "us"),
    ("engine.submit_seal_mean_us", "us"),
    ("engine.submit_seal_p99_us", "us"),
    ("engine.seal_depth_mean", "batches"),
    ("log.cmds_per_slot", "count"),
    ("engine.decide_apply_mean_us", "us"),
    ("engine.apply_ack_mean_us", "us"),
    ("runtime.seal_decide_mean_us", "us"),
    ("runtime.seal_decide_p99_us", "us"),
    ("wal.fsync_mean_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("wal.fsyncs_per_kcmd", "count"),
    ("snapshot.record_share", "ratio"),
    ("lease.fast_read_share", "ratio"),
    ("lease.quorum_reads", "count"),
    ("lease.sequenced_reads", "count"),
    ("shard.commit_skew", "ratio"),
    ("engine.rss_kb_per_kcmd", "KiB"),
    ("sim.rounds_per_schedule", "count"),
    ("sim.fast_path_share", "ratio"),
    ("sim.clones_per_round", "count"),
    ("sim.forks_per_schedule", "count"),
    ("checker.worst_round", "round"),
    ("trace.overhead_pct", "%"),
    ("host.steal_ticks", "count"),
];

pub const WORKLOADS: [&str; 3] = ["kv-durable-write", "kv-lease-read", "checker-sweep"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let get = |flag: &str| -> Result<String, String> {
            let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
        }
        let num = |s: String, flag: &str| {
            s.parse::<u64>().map_err(|_| format!("{flag} must be a whole number"))
        };
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        let seconds = num(get("--seconds")?, "--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            seed: num(get("--seed")?, "--seed")?,
            seconds,
            trace,
            server_bin: get("--server-bin")?.into(),
            out_dir: get("--out-dir")?.into(),
            workload,
        })
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl RunResult {
    /// The metrics of one `BENCHMARK.json` list, in its order; a layer
    /// the workload never touches reads 0.
    fn select(&self, list: &[(&'static str, &'static str)], from: &[Metric]) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| {
                let m = from.iter().find(|m| m.name == name);
                if let Some(m) = m {
                    assert_eq!(m.unit, unit, "unit of {name}");
                }
                Metric::new(name, m.map_or(0.0, |m| m.value), unit)
            })
            .collect()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Every digit Rust's shortest round-trip formatting gives; non-finite
/// values (never expected) become the largest finite number.
fn json_num(x: f64) -> String {
    format!("{:?}", if x.is_finite() { x } else { f64::MAX })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let host = Host::probe();
    let result = match args.workload.as_str() {
        "kv-durable-write" => kv::run(&args, &kv::DURABLE_WRITE),
        "kv-lease-read" => kv::run(&args, &kv::LEASE_READ),
        _ => sweep::run(&args),
    };
    let mut r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: WRONG ANSWER OR BROKEN RUN: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let host_json = host.json();
    r.layers.push(Metric::new("host.steal_ticks", host.steal_since_probe() as f64, "count"));
    let e2e = r.select(&END_TO_END, &r.e2e);
    let layers = r.select(&PER_LAYER, &r.layers);
    eprintln!(
        "perfbench: {} seed {} ({} s): attempted {}, failed {} (failed_ratio {:.6})",
        args.workload,
        args.seed,
        args.seconds,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for (title, list) in [("end-to-end", &e2e), ("per-layer", &layers)] {
        eprintln!("perfbench: {title}:");
        for m in list.iter() {
            eprintln!("perfbench:   {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    let shown = if args.trace { &layers } else { &e2e };
    let line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.attempted,
        r.failed,
        metrics_json(shown)
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host_json}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.attempted,
        r.failed,
        metrics_json(&e2e),
        metrics_json(&layers)
    );
    if let Ok(mut f) =
        OpenOptions::new().create(true).append(true).open(args.out_dir.join("results.jsonl"))
    {
        let _ = f.write_all(record.as_bytes());
    }
    println!("host {host_json}");
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let spec = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let named: Vec<(String, String)> = spec
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = chunk.split('"').next()?.to_string();
                let unit =
                    chunk.split("\"unit\": \"").nth(1).filter(|_| chunk.contains("\"unit\""))?;
                let unit = unit.split('"').next()?.to_string();
                let same_entry = !chunk.split("\"unit\"").next()?.contains('}');
                same_entry.then_some((name, unit))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(named, ours);
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "workload {w} is listed");
        }
    }
}
