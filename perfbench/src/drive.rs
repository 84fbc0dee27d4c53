//! The closed-loop driver shared by the server run and the mirror
//! replay: one caller sends each request and waits for its reply, checks
//! the answer against the [`Model`], and records latency per op class.

use std::time::{Duration, Instant};

use espresso_core::HeapStats;
use espresso_nvm::NvmStats;

use crate::gen::{Op, Stream, SCAN_LIMIT};
use crate::model::{Digest, Model};

/// A scan page: `(key, value)` items and whether the range continues.
pub type Page = (Vec<(String, Vec<u8>)>, bool);

/// Something that answers the protocol's operations. `Err` is a refusal
/// or failure the server would answer `BUSY`/`ERR` (the reason text).
pub trait Target {
    /// `GET`.
    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, String>;
    /// `FGET`.
    fn fget(&mut self, key: &str, index: u8) -> Result<Option<u64>, String>;
    /// `SET`, acknowledged durable.
    fn set(&mut self, key: &str, value: &[u8]) -> Result<(), String>;
    /// `TXN` of same-shard SETs, acknowledged durable.
    fn txn(&mut self, batch: &[(&str, &[u8])]) -> Result<(), String>;
    /// `SCAN` of `shard` from `start` (inclusive; empty = first key).
    fn scan(&mut self, shard: usize, start: &str, limit: u32) -> Result<Page, String>;
    /// Device counters summed over shards.
    fn device_stats(&self) -> NvmStats;
    /// Allocator/collector stats merged over shards.
    fn heap_stats(&self) -> HeapStats;
    /// Called before measured op number `op` is sent.
    fn op_started(&mut self, _op: usize) {}
}

/// Device counters over a phase, with the requests and acknowledged
/// user bytes they served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// Device events during the phase.
    pub dev: NvmStats,
    /// Requests sent.
    pub requests: u64,
    /// Key plus value bytes of acknowledged writes.
    pub user_bytes: u64,
}

/// What the preload did.
#[derive(Debug, Clone, Default)]
pub struct Preload {
    /// Counters over the preload.
    pub window: Window,
    /// Latency of each preload TXN, µs.
    pub txn_us: Vec<f64>,
}

/// Writes the preload batches; a failed batch is a setup error.
///
/// # Errors
///
/// The failing batch's reason.
pub fn preload(t: &mut dyn Target, stream: &Stream, model: &mut Model) -> Result<Preload, String> {
    let dev0 = t.device_stats();
    let mut out = Preload::default();
    for batch in &stream.preload {
        let ops: Vec<(&str, &[u8])> = batch
            .iter()
            .map(|(id, v)| (stream.keys[*id as usize].as_str(), v.as_slice()))
            .collect();
        let start = Instant::now();
        t.txn(&ops)
            .map_err(|e| format!("preload TXN failed: {e}"))?;
        out.txn_us.push(start.elapsed().as_secs_f64() * 1e6);
        for (key, value) in ops {
            model.set(key, value, true);
            out.window.user_bytes += (key.len() + value.len()) as u64;
        }
        out.window.requests += 1;
    }
    out.window.dev = t.device_stats().since(&dev0);
    Ok(out)
}

/// What the measured stream did.
#[derive(Debug, Clone, Default)]
pub struct StreamRun {
    /// Counters over the stream, probe pages left out.
    pub window: Window,
    /// Wall time of the stream, probe pages left out, seconds.
    pub seconds: f64,
    /// GET/FGET latencies, µs.
    pub read_us: Vec<f64>,
    /// Acknowledged SET latencies, µs.
    pub write_us: Vec<f64>,
    /// SCAN latencies, µs.
    pub scan_us: Vec<f64>,
    /// Latencies of the probe pages sent between ops, µs (see
    /// [`PROBE_EVERY`]).
    pub probe_us: Vec<f64>,
    /// Ops answered `BUSY`/`ERR`.
    pub refused: u64,
    /// Ops answered wrongly.
    pub wrong: u64,
    /// First op answered `BUSY`/`ERR`, if any.
    pub first_refusal: Option<(usize, String)>,
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Measured ops between two probe pages.
///
/// A stream without SCANs takes its SCAN latencies from probe pages:
/// verification-sized pages of a walk that goes round every shard, one
/// page after every `PROBE_EVERY` ops, checked against the model like any
/// answer. Spread over the whole stream, they meet the host in the same
/// states as the measured ops do; pages taken in one burst after the
/// stream sample a second or so of it, and their median moved with
/// whatever else the host ran in that second. A probe page reads only:
/// its time and device events are left out of the stream's.
pub const PROBE_EVERY: usize = 4;

/// Runs `ops` (over `keys`) closed-loop. With `probe_shards`, sends a
/// probe page over that many shards after every [`PROBE_EVERY`] ops.
pub fn run_stream(
    t: &mut dyn Target,
    keys: &[String],
    ops: &[Op],
    model: &mut Model,
    probe_shards: Option<usize>,
) -> StreamRun {
    let mut run = StreamRun::default();
    let mut walk = probe_shards.map(Walk::new);
    let mut paused = Duration::ZERO;
    let mut probe_dev = NvmStats::default();
    let dev0 = t.device_stats();
    let begin = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        t.op_started(i);
        let (ok, answered_right) = match op {
            Op::Get(id) => {
                let key = &keys[*id as usize];
                let start = Instant::now();
                let answer = t.get(key);
                let us = us_since(start);
                match answer {
                    Ok(v) => {
                        run.read_us.push(us);
                        (Ok(()), model.check_get(key, v.as_deref()))
                    }
                    Err(e) => (Err(e), true),
                }
            }
            Op::FGet(id, index) => {
                let key = &keys[*id as usize];
                let start = Instant::now();
                let answer = t.fget(key, *index);
                let us = us_since(start);
                match answer {
                    Ok(v) => {
                        run.read_us.push(us);
                        (Ok(()), model.check_fget(key, v))
                    }
                    Err(e) => (Err(e), true),
                }
            }
            Op::Set(id, value) => {
                let key = &keys[*id as usize];
                let start = Instant::now();
                let answer = t.set(key, value);
                let us = us_since(start);
                model.set(key, value, answer.is_ok());
                if answer.is_ok() {
                    run.write_us.push(us);
                    run.window.user_bytes += (key.len() + value.len()) as u64;
                }
                (answer, true)
            }
            Op::Scan(id) => {
                let key = &keys[*id as usize];
                let shard = model.shard(key);
                let start = Instant::now();
                let answer = t.scan(shard, key, SCAN_LIMIT);
                let us = us_since(start);
                match answer {
                    Ok((items, truncated)) => {
                        run.scan_us.push(us);
                        let right =
                            model.check_scan(shard, key, SCAN_LIMIT as usize, &items, truncated);
                        (Ok(()), right)
                    }
                    Err(e) => (Err(e), true),
                }
            }
        };
        if let Err(reason) = ok {
            run.refused += 1;
            run.first_refusal.get_or_insert((i, reason));
        }
        if !answered_right {
            run.wrong += 1;
        }
        run.window.requests += 1;
        if let Some(walk) = walk.as_mut().filter(|_| (i + 1) % PROBE_EVERY == 0) {
            let pause = Instant::now();
            let dev = t.device_stats();
            match walk.next_page(t, model) {
                Ok(page) => {
                    run.probe_us.push(page.us);
                    run.wrong += u64::from(!page.right);
                }
                // A read is never refused.
                Err(_) => run.wrong += 1,
            }
            probe_dev = crate::sum_stats(probe_dev, t.device_stats().since(&dev));
            paused += pause.elapsed();
        }
    }
    run.seconds = (begin.elapsed() - paused).as_secs_f64();
    run.window.dev = t.device_stats().since(&dev0).since(&probe_dev);
    run
}

/// The final state check: pages through every shard with SCANs, checks
/// each page against the model and digests the entries.
#[derive(Debug, Clone, Default)]
pub struct Verify {
    /// Digest of every entry, shard by shard in key order.
    pub digest: u64,
    /// Entries seen.
    pub entries: u64,
    /// SCAN page latencies, µs.
    pub scan_us: Vec<f64>,
    /// Pages that disagreed with the model.
    pub wrong: u64,
}

/// Entries per page of the final walk. Small pages keep each response
/// far below a loopback socket buffer: with 50 large values a page is
/// ~57 KB, and its latency then swings with the connection's receive
/// window rather than with the program.
pub const VERIFY_LIMIT: u32 = 20;

/// A cursor over every shard's entries in [`VERIFY_LIMIT`]-entry SCAN
/// pages, shard by shard in key order, going round again after the last.
pub struct Walk {
    shards: usize,
    shard: usize,
    start: String,
}

/// One page of a [`Walk`].
pub struct WalkPage {
    /// The shard paged.
    pub shard: usize,
    /// The page's entries.
    pub items: Vec<(String, Vec<u8>)>,
    /// Latency, µs.
    pub us: f64,
    /// Whether the page matched the model.
    pub right: bool,
    /// Whether this was the shard's last page.
    pub last: bool,
}

impl Walk {
    /// A walk over `shards` shards, from the first key of shard 0.
    pub fn new(shards: usize) -> Walk {
        Walk {
            shards,
            shard: 0,
            start: String::new(),
        }
    }

    /// Fetches the next page, checks it and moves on.
    ///
    /// # Errors
    ///
    /// A refused SCAN.
    pub fn next_page(&mut self, t: &mut dyn Target, model: &mut Model) -> Result<WalkPage, String> {
        let begin = Instant::now();
        let (items, truncated) = t.scan(self.shard, &self.start, VERIFY_LIMIT)?;
        let us = us_since(begin);
        let right = model.check_scan(
            self.shard,
            &self.start,
            VERIFY_LIMIT as usize,
            &items,
            truncated,
        );
        let shard = self.shard;
        let last = match items.last() {
            // The smallest key above the last one returned.
            Some((key, _)) if truncated => {
                self.start = format!("{key}\0");
                false
            }
            _ => {
                self.shard = (self.shard + 1) % self.shards;
                self.start.clear();
                true
            }
        };
        Ok(WalkPage {
            shard,
            items,
            us,
            right,
            last,
        })
    }
}

/// Walks every shard once and checks it against the model.
///
/// # Errors
///
/// A refused SCAN page.
pub fn verify(t: &mut dyn Target, model: &mut Model, shards: usize) -> Result<Verify, String> {
    let mut out = Verify::default();
    let mut digest = Digest::default();
    let mut walk = Walk::new(shards);
    loop {
        let page = walk.next_page(t, model)?;
        out.scan_us.push(page.us);
        out.wrong += u64::from(!page.right);
        for (key, value) in &page.items {
            digest.entry(page.shard, key, value);
            out.entries += 1;
        }
        if page.last && page.shard + 1 == shards {
            break;
        }
    }
    out.digest = digest.value();
    Ok(out)
}
