//! Answer checking: every acknowledgement the generator receives is
//! checked against the history of acknowledged writes.
//!
//! A wrong answer aborts the run; a missing one (dead server, EOF,
//! refused connection, timeout) is only a failed request. Checked here:
//! acks match their operation's kind, a key is served by one shard for
//! the whole lifetime, and every read returns what the linearization
//! point in its ack allows. A sequenced get at `(shard, slot)` sees the
//! writes of every earlier slot plus possibly writes batched into the
//! same slot; a fast read at read index `i` sees every slot `<= i`.
//! Puts whose ack never arrived are *in doubt*: they may have been
//! applied anywhere, so a read that returns one of them is accepted.

use std::collections::HashMap;

use indulgent_server::{KvOp, Outcome, Response};

#[derive(Debug, Clone, Copy)]
struct Read {
    key: u16,
    /// Sequenced get (`true`, point = its slot) or fast read (point =
    /// read index).
    sequenced: bool,
    point: u64,
    value: Option<u32>,
}

/// The acknowledged history of one server lifetime.
#[derive(Debug, Default)]
pub struct History {
    /// Put value -> (key, acked slot).
    puts: HashMap<u32, (u16, Option<u64>)>,
    reads: Vec<Read>,
    key_shard: HashMap<u16, u32>,
}

impl History {
    /// Records that `op` was sent (puts must be known before their value
    /// can be read back).
    pub fn sent(&mut self, op: KvOp) {
        if let KvOp::Put { key, value } = op {
            self.puts.insert(value, (key, None));
        }
    }

    /// Records the acknowledgement of `op`; errs on a wrong answer.
    pub fn acked(&mut self, op: KvOp, resp: &Response) -> Result<(), String> {
        let key = op.key();
        let shard = *self.key_shard.entry(key).or_insert(resp.shard);
        if shard != resp.shard {
            return Err(format!("key {key} served by shard {} after shard {shard}", resp.shard));
        }
        match (op, resp.outcome) {
            (KvOp::Put { value, .. }, Outcome::Put { slot }) => {
                self.puts.insert(value, (key, Some(slot)));
            }
            (KvOp::Get { .. }, Outcome::Get { slot, value }) => {
                self.reads.push(Read { key, sequenced: true, point: slot, value });
            }
            (KvOp::Get { .. }, Outcome::Read { index, value }) => {
                self.reads.push(Read { key, sequenced: false, point: index, value });
            }
            (op, outcome) => return Err(format!("{op} acknowledged as {outcome:?}")),
        }
        Ok(())
    }

    /// Checks every recorded read against the acknowledged writes.
    pub fn verify(&self) -> Result<(), String> {
        let mut by_key: HashMap<u16, Vec<(u64, u32)>> = HashMap::new();
        for (&value, &(key, slot)) in &self.puts {
            if let Some(slot) = slot {
                by_key.entry(key).or_default().push((slot, value));
            }
        }
        for writes in by_key.values_mut() {
            writes.sort_unstable();
        }
        let none: Vec<(u64, u32)> = Vec::new();
        for r in &self.reads {
            let writes = by_key.get(&r.key).unwrap_or(&none);
            // Writes strictly visible: slot < point (sequenced) or
            // slot <= point (fast read).
            let visible =
                writes.partition_point(|&(s, _)| s < r.point || (!r.sequenced && s == r.point));
            let latest = visible.checked_sub(1).map(|i| writes[i].0);
            let allowed = |v: Option<u32>| -> bool {
                let at_latest = match (latest, v) {
                    (None, None) => true,
                    (Some(slot), Some(v)) => {
                        writes[..visible].iter().any(|&(s, w)| s == slot && w == v)
                    }
                    _ => false,
                };
                let same_slot = r.sequenced
                    && v.is_some_and(|v| writes.iter().any(|&(s, w)| s == r.point && w == v));
                at_latest || same_slot
            };
            if allowed(r.value) {
                continue;
            }
            match r.value.and_then(|v| self.puts.get(&v).map(|p| (v, *p))) {
                Some((_, (key, None))) if key == r.key => {} // read an in-doubt put
                _ => {
                    return Err(format!(
                        "{} of key {} at {} returned {:?}; latest acknowledged write there is {:?}",
                        if r.sequenced { "sequenced get" } else { "fast read" },
                        r.key,
                        r.point,
                        r.value,
                        latest.map(|slot| writes[..visible]
                            .iter()
                            .filter(|w| w.0 == slot)
                            .collect::<Vec<_>>()),
                    ))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(h: &mut History, key: u16, value: u32, slot: u64) {
        let op = KvOp::Put { key, value };
        h.sent(op);
        h.acked(
            op,
            &Response {
                request: indulgent_model::RequestId(0),
                shard: 0,
                outcome: Outcome::Put { slot },
            },
        )
        .unwrap();
    }

    fn read(h: &mut History, key: u16, outcome: Outcome) -> Result<(), String> {
        h.acked(
            KvOp::Get { key },
            &Response { request: indulgent_model::RequestId(0), shard: 0, outcome },
        )
    }

    #[test]
    fn accepts_linearizable_reads_and_rejects_stale_ones() {
        let mut h = History::default();
        read(&mut h, 1, Outcome::Read { index: 0, value: None }).unwrap();
        put(&mut h, 1, 10, 3);
        put(&mut h, 1, 11, 5);
        read(&mut h, 1, Outcome::Read { index: 4, value: Some(10) }).unwrap();
        read(&mut h, 1, Outcome::Get { slot: 5, value: Some(10) }).unwrap(); // before 11 in slot 5
        read(&mut h, 1, Outcome::Get { slot: 5, value: Some(11) }).unwrap(); // after 11 in slot 5
        read(&mut h, 1, Outcome::Read { index: 5, value: Some(11) }).unwrap();
        assert!(h.verify().is_ok());
        read(&mut h, 1, Outcome::Read { index: 9, value: Some(10) }).unwrap();
        assert!(h.verify().is_err(), "a fast read past slot 5 must see 11");
    }

    #[test]
    fn in_doubt_puts_may_be_read_and_kinds_must_match() {
        let mut h = History::default();
        h.sent(KvOp::Put { key: 2, value: 7 });
        read(&mut h, 2, Outcome::Read { index: 1, value: Some(7) }).unwrap();
        assert!(h.verify().is_ok());
        read(&mut h, 3, Outcome::Read { index: 1, value: Some(7) }).unwrap();
        assert!(h.verify().is_err(), "value 7 was written to key 2, not 3");
        assert!(read(&mut h, 2, Outcome::Put { slot: 1 }).is_err());
    }
}
