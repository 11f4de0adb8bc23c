//! Per-layer numbers from the server's own stage histograms, scraped
//! from outside through `remote_stats` at the edges of a phase and
//! differenced with `HistogramSnapshot::since`.
//!
//! Times are exact means (sum / count) in µs; p99s are log2-bucket upper
//! bounds, so they are coarse (up to 2x) and only move when a tail
//! crosses a power of two.

use indulgent_server::StatsReport;

/// What happened in every shard between two scrapes.
#[derive(Debug, Clone)]
pub struct Window {
    pub shards: Vec<StatsReport>,
    pub all: StatsReport,
}

impl Window {
    /// The per-shard differences `after - before` and their merge.
    pub fn between(before: &[StatsReport], after: &[StatsReport]) -> Self {
        assert_eq!(before.len(), after.len(), "scrapes cover the same shards");
        let shards: Vec<StatsReport> = before
            .iter()
            .zip(after)
            .map(|(b, a)| {
                let mut d = StatsReport::zero(a.shard, a.shards);
                d.slots = a.slots - b.slots;
                d.committed = a.committed - b.committed;
                d.dedup_hits = a.dedup_hits - b.dedup_hits;
                d.reads_lease = a.reads_lease - b.reads_lease;
                d.reads_quorum = a.reads_quorum - b.reads_quorum;
                d.reads_sequenced = a.reads_sequenced - b.reads_sequenced;
                d.submit_seal = a.submit_seal.since(&b.submit_seal);
                d.seal_decide = a.seal_decide.since(&b.seal_decide);
                d.decide_apply = a.decide_apply.since(&b.decide_apply);
                d.apply_ack = a.apply_ack.since(&b.apply_ack);
                d.wal_fsync = a.wal_fsync.since(&b.wal_fsync);
                d.seal_depth = a.seal_depth.since(&b.seal_depth);
                d
            })
            .collect();
        let mut all = StatsReport::zero(0, after.first().map_or(0, |r| r.shards));
        for d in &shards {
            all.merge(d);
        }
        Window { shards, all }
    }

    /// Adds another window over the same shards (a later lifetime).
    pub fn merge(&mut self, other: &Window) {
        assert_eq!(self.shards.len(), other.shards.len(), "windows cover the same shards");
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.merge(theirs);
        }
        self.all.merge(&other.all);
    }

    /// Σ of the mean times of the stages a sequenced command passes
    /// (submit→seal, seal→decide, decide→apply, apply→ack; fsync sits
    /// inside apply→ack), µs.
    pub fn stage_sum_us(&self) -> f64 {
        let a = &self.all;
        (a.submit_seal.mean() + a.seal_decide.mean() + a.decide_apply.mean() + a.apply_ack.mean())
            / 1e3
    }

    /// The part of the client-observed mean write latency no server stage
    /// accounts for: socket read, intake, socket write, and the
    /// client's own stamping. µs.
    pub fn write_residue_us(&self, client_write_mean_us: f64) -> f64 {
        client_write_mean_us - self.stage_sum_us()
    }

    pub fn cmds_per_slot(&self) -> f64 {
        ratio(self.all.committed as f64, self.all.slots as f64)
    }

    pub fn fsyncs_per_kcmd(&self) -> f64 {
        ratio(self.all.wal_fsync.count as f64 * 1e3, self.all.committed as f64)
    }

    pub fn fast_read_share(&self) -> f64 {
        let a = &self.all;
        ratio(a.reads_lease as f64, (a.reads_lease + a.reads_quorum + a.reads_sequenced) as f64)
    }

    /// Most-committed shard over the mean shard (1 = perfectly even).
    pub fn commit_skew(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.committed).max().unwrap_or(0) as f64;
        ratio(max * self.shards.len() as f64, self.all.committed as f64)
    }
}

pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indulgent_obs::HistogramSnapshot;

    fn hist(count: u64, sum: u64) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty();
        h.buckets[10] = count;
        h.count = count;
        h.sum = sum;
        h.max = sum;
        h
    }

    fn report(shard: u32, committed: u64, scale: u64) -> StatsReport {
        let mut r = StatsReport::zero(shard, 2);
        r.slots = committed / 4;
        r.committed = committed;
        r.submit_seal = hist(10 * scale, 100_000 * scale);
        r.seal_decide = hist(10 * scale, 200_000 * scale);
        r.decide_apply = hist(10 * scale, 30_000 * scale);
        r.apply_ack = hist(10 * scale, 70_000 * scale);
        r.wal_fsync = hist(10 * scale, 50_000 * scale);
        r
    }

    #[test]
    fn residue_is_client_mean_minus_stage_means_of_the_window() {
        // Before: 10 events per stage; after: 30. The window holds the
        // 20 new ones, whose per-stage means are 10/20/3/7 µs, no matter
        // how different the lifetime totals are.
        let before = [report(0, 400, 1), report(1, 400, 1)];
        let mut after = [report(0, 800, 3), report(1, 1600, 3)];
        // Make the window means differ from the lifetime means.
        after[0].seal_decide = hist(30, 200_000 + 20 * 50_000);
        after[1].seal_decide = hist(30, 200_000 + 20 * 50_000);
        let w = Window::between(&before, &after);
        assert_eq!(w.all.submit_seal.count, 40);
        assert!(
            (w.stage_sum_us() - (10.0 + 50.0 + 3.0 + 7.0)).abs() < 1e-9,
            "{}",
            w.stage_sum_us()
        );
        assert!((w.write_residue_us(100.0) - 30.0).abs() < 1e-9);
        assert!((w.cmds_per_slot() - 4.0).abs() < 1e-9);
        assert!((w.commit_skew() - 1200.0 * 2.0 / 1600.0).abs() < 1e-9);
        assert!((w.fsyncs_per_kcmd() - 40.0 * 1e3 / 1600.0).abs() < 1e-9);
    }
}
