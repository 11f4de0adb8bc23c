//! The seeded operation stream: the only input the KV server receives.
//!
//! Keys are uniform over [`KEYS`]; each operation is a put with the
//! workload's probability, else a get. Every put writes a value unique
//! within the stream (1, 2, 3, ...), so a read's answer names exactly
//! which put it observed — the history checker relies on that.

use indulgent_server::KvOp;

/// Size of the uniform keyspace.
pub const KEYS: u64 = 4096;

/// SplitMix64: a tiny, well-mixed, seedable generator (no registry
/// dependency needed for a benchmark input stream).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// An endless, deterministic stream of KV operations.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    put_pct: u64,
    next_value: u32,
}

impl OpStream {
    /// A stream whose operations are puts with probability `put_pct`%.
    pub fn new(seed: u64, put_pct: u64) -> Self {
        assert!(put_pct <= 100, "put share is a percentage");
        OpStream { rng: SplitMix64::new(seed), put_pct, next_value: 1 }
    }

    pub fn next_op(&mut self) -> KvOp {
        let r = self.rng.next_u64();
        let key = (r % KEYS) as u16;
        if (r >> 32) % 100 < self.put_pct {
            let value = self.next_value;
            self.next_value = self.next_value.checked_add(1).expect("fewer than 2^32 puts");
            KvOp::Put { key, value }
        } else {
            KvOp::Get { key }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, n: usize) -> Vec<KvOp> {
        let mut s = OpStream::new(seed, 90);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_op_stream() {
        assert_eq!(take(7, 10_000), take(7, 10_000));
        assert_ne!(take(7, 10_000), take(8, 10_000));
    }

    #[test]
    fn mix_and_keys_follow_the_parameters() {
        let ops = take(3, 100_000);
        let puts = ops.iter().filter(|op| matches!(op, KvOp::Put { .. })).count();
        assert!((89_000..91_000).contains(&puts), "{puts} puts of 100k at 90%");
        assert!(ops.iter().all(|op| u64::from(op.key()) < KEYS));
        let values: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op {
                KvOp::Put { value, .. } => Some(*value),
                KvOp::Get { .. } => None,
            })
            .collect();
        assert!(values.windows(2).all(|w| w[1] == w[0] + 1), "put values are unique and dense");
    }
}
