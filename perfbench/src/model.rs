//! The client-side answer oracle.
//!
//! The model holds, per shard and in key order, every state a key may be
//! in. An acknowledged write pins one state; a write answered `ERR` or
//! `BUSY` may or may not have landed, so it adds a candidate instead. A
//! read that returns one of the candidates is correct and collapses the
//! key to it; anything else is a wrong answer.

use std::collections::BTreeMap;

use crate::gen::shard_of;

/// Possible states of one key; `None` means absent.
type Candidates = Vec<Option<Vec<u8>>>;

/// Expected server state.
#[derive(Debug, Clone)]
pub struct Model {
    shards: Vec<BTreeMap<String, Candidates>>,
}

impl Model {
    /// An empty model of an `n`-shard server.
    pub fn new(n: usize) -> Model {
        Model {
            shards: vec![BTreeMap::new(); n],
        }
    }

    /// The shard `key` routes to.
    pub fn shard(&self, key: &str) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Records the outcome of `SET key value`: `acked` pins the value,
    /// otherwise it becomes one more possible state.
    pub fn set(&mut self, key: &str, value: &[u8], acked: bool) {
        let s = self.shard(key);
        let cands = self.shards[s]
            .entry(key.to_string())
            .or_insert_with(|| vec![None]);
        if acked {
            *cands = vec![Some(value.to_vec())];
        } else if !cands.iter().any(|c| c.as_deref() == Some(value)) {
            cands.push(Some(value.to_vec()));
        }
    }

    /// Checks a `GET` answer; collapses the key on success.
    pub fn check_get(&mut self, key: &str, answer: Option<&[u8]>) -> bool {
        let s = self.shard(key);
        match self.shards[s].get_mut(key) {
            None => answer.is_none(),
            Some(cands) => collapse(cands, answer),
        }
    }

    /// Checks an `FGET` answer. No workload writes fields, so an existing
    /// entry reads 0 and a missing one reads nothing.
    pub fn check_fget(&self, key: &str, answer: Option<u64>) -> bool {
        let s = self.shard(key);
        let cands = self.shards[s].get(key);
        match answer {
            None => cands.is_none_or(|c| c.contains(&None)),
            Some(v) => v == 0 && cands.is_some_and(|c| c.iter().any(Option::is_some)),
        }
    }

    /// Checks one SCAN page of `shard` starting at `start` (inclusive)
    /// with `limit` entries; collapses every key the page decides.
    pub fn check_scan(
        &mut self,
        shard: usize,
        start: &str,
        limit: usize,
        items: &[(String, Vec<u8>)],
        truncated: bool,
    ) -> bool {
        if items.len() > limit || (truncated && items.len() < limit) {
            return false;
        }
        let map = &mut self.shards[shard];
        let mut expected = map.range_mut(start.to_string()..);
        for (key, value) in items {
            // Keys the page skipped must be possibly absent.
            loop {
                let Some((k, cands)) = expected.next() else {
                    return false;
                };
                if k == key {
                    if !collapse(cands, Some(value)) {
                        return false;
                    }
                    break;
                }
                if k > key || !collapse(cands, None) {
                    return false;
                }
            }
        }
        if !truncated {
            // The range ended: every later key must be possibly absent.
            for (_, cands) in expected {
                if !collapse(cands, None) {
                    return false;
                }
            }
        }
        true
    }

    /// A key whose value is settled, with that value (the restart probe).
    pub fn settled_key(&self) -> Option<(String, Vec<u8>)> {
        self.shards
            .iter()
            .flat_map(|m| m.iter())
            .find_map(|(k, c)| match c.as_slice() {
                [Some(v)] => Some((k.clone(), v.clone())),
                _ => None,
            })
    }

    /// Key plus value bytes of every key that is certainly present.
    pub fn live_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|m| m.iter())
            .filter_map(|(k, c)| match c.as_slice() {
                [Some(v)] => Some((k.len() + v.len()) as u64),
                _ => None,
            })
            .sum()
    }
}

fn collapse(cands: &mut Candidates, answer: Option<&[u8]>) -> bool {
    if cands.iter().any(|c| c.as_deref() == answer) {
        *cands = vec![answer.map(<[u8]>::to_vec)];
        true
    } else {
        false
    }
}

/// FNV-1a digest over every shard's entries in key order: the state
/// fingerprint the server run and the mirror must agree on.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one entry (shard order, then key order).
    pub fn entry(&mut self, shard: usize, key: &str, value: &[u8]) {
        self.eat(&(shard as u64).to_be_bytes());
        self.eat(&(key.len() as u64).to_be_bytes());
        self.eat(key.as_bytes());
        self.eat(&(value.len() as u64).to_be_bytes());
        self.eat(value);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
