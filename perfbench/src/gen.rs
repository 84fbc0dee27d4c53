//! Seeded workload definitions and op-stream generation.
//!
//! Everything a run sends is generated here from `(workload, seed,
//! seconds)` before the first request: the preload batches and the
//! measured op stream. The same triple always yields byte-identical
//! streams ([`Stream::encode`]); the server and the embedded mirror only
//! ever see the generated inputs.

use espresso_core::hash_key;
use espresso_server::protocol::NUM_FIELDS;

use crate::Plan;

/// The benchmark's workloads; see `perfbench/README.md` for why each
/// exists and which layers it stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh-key SETs (every one crosses the whole write stack) with a
    /// few GETs of inserted keys.
    Ingest,
    /// Zipfian GET/FGET plus per-shard SCANs over a preloaded key set;
    /// no writes in the measured stream.
    ReadScan,
    /// Overwrites of a small preloaded key set with large fresh values:
    /// garbage, GC at exhaustion and free-list reuse.
    UpdateChurn,
}

/// Sizing and op mix of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Heap shards the server is started with.
    pub shards: usize,
    /// Bytes per shard.
    pub shard_bytes: usize,
    /// Keys written by the preload (TXN batches) before measuring.
    pub preload_keys: usize,
    /// Inclusive value-length range of every SET (preload and stream).
    pub value_len: (usize, usize),
    /// Measured ops per requested second: the stream has
    /// `ops_per_second * seconds` ops, so a run's inputs are fixed by seed
    /// and seconds alone.
    pub ops_per_second: usize,
}

/// Same-shard SETs per preload TXN.
pub const PRELOAD_BATCH: usize = 64;
/// Entries per SCAN page, in the stream and in the final verification.
pub const SCAN_LIMIT: u32 = 50;
/// Zipfian skew of `read_scan`'s key choice.
pub const ZIPF_THETA: f64 = 0.99;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::ReadScan, Workload::UpdateChurn];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ReadScan => "read_scan",
            Workload::UpdateChurn => "update_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizing.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Ingest => Spec {
                shards: 4,
                shard_bytes: 16 << 20,
                preload_keys: 0,
                value_len: (64, 256),
                ops_per_second: 2_000,
            },
            Workload::ReadScan => Spec {
                shards: 4,
                shard_bytes: 16 << 20,
                preload_keys: 20_000,
                // One size: with zipfian reads a handful of hot keys take
                // most GETs, and their value sizes would otherwise move
                // the read latency from seed to seed.
                value_len: (128, 128),
                // A stream of 10 s or more at the usual ~30,000 ops/s: its
                // latencies then cover more than one phase of a shared
                // host's speed.
                ops_per_second: 50_000,
            },
            Workload::UpdateChurn => Spec {
                shards: 4,
                shard_bytes: 4 << 20,
                preload_keys: 3_000,
                value_len: (256, 2_048),
                ops_per_second: 600,
            },
        }
    }
}

/// One measured request. Keys are indices into [`Stream::keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `GET key`.
    Get(u32),
    /// `FGET key index`.
    FGet(u32, u8),
    /// `SET key value`.
    Set(u32, Vec<u8>),
    /// `SCAN` of the key's shard starting at the key, [`SCAN_LIMIT`]
    /// entries.
    Scan(u32),
}

/// A run's complete input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Key strings by id.
    pub keys: Vec<String>,
    /// Preload TXNs: each a batch of same-shard `(key, value)` SETs.
    pub preload: Vec<Vec<(u32, Vec<u8>)>>,
    /// The measured op stream.
    pub ops: Vec<Op>,
}

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// The splitmix64 finalizer — a bijection on u64.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Zipfian sampler over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The key string of id `id` under `seed`: distinct ids give distinct
/// keys (the mix is a bijection), and keys hash across shards.
pub fn key_name(seed: u64, id: u64) -> String {
    format!(
        "k{:016x}",
        mix(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ id)
    )
}

/// The shard a key routes to on an `n`-shard server (the server's own
/// FNV-1a routing).
pub fn shard_of(key: &str, n: usize) -> usize {
    (hash_key(key) % n as u64) as usize
}

impl Stream {
    /// Generates the input of `workload` for `seed` at the sizes of
    /// `plan`: the preload, then the measured ops.
    pub fn generate(workload: Workload, seed: u64, plan: &Plan) -> Stream {
        let spec = workload.spec();
        let ops = plan.ops;
        let mut rng = Rng::new(seed ^ workload_salt(workload));
        let mut keys: Vec<String> = (0..plan.preload_keys as u64)
            .map(|id| key_name(seed, id))
            .collect();
        let preload = preload_batches(&keys, spec, &mut rng);
        let (lo, hi) = spec.value_len;
        let mut out = Vec::with_capacity(ops);
        match workload {
            Workload::Ingest => {
                for _ in 0..ops {
                    if keys.is_empty() || rng.below(100) < 90 {
                        let id = keys.len() as u32;
                        keys.push(key_name(seed, u64::from(id)));
                        let len = rng.between(lo, hi);
                        out.push(Op::Set(id, rng.bytes(len)));
                    } else {
                        out.push(Op::Get(rng.below(keys.len() as u64) as u32));
                    }
                }
            }
            Workload::ReadScan => {
                let n = keys.len();
                let zipf = Zipf::new(n, ZIPF_THETA);
                // Scramble ranks over ids so the hot keys land on every
                // shard rather than on whichever the low ids hash to.
                let mut perm: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for _ in 0..ops {
                    let id = perm[zipf.sample(&mut rng)];
                    let roll = rng.below(100);
                    out.push(if roll < 80 {
                        Op::Get(id)
                    } else if roll < 90 {
                        Op::FGet(id, rng.below(NUM_FIELDS as u64) as u8)
                    } else {
                        Op::Scan(id)
                    });
                }
            }
            Workload::UpdateChurn => {
                let n = keys.len() as u64;
                for _ in 0..ops {
                    let id = rng.below(n) as u32;
                    if rng.below(100) < 70 {
                        let len = rng.between(lo, hi);
                        out.push(Op::Set(id, rng.bytes(len)));
                    } else {
                        out.push(Op::Get(id));
                    }
                }
            }
        }
        Stream {
            keys,
            preload,
            ops: out,
        }
    }

    /// A byte encoding of the whole input, for checking determinism.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |bytes: &[u8]| {
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        };
        for key in &self.keys {
            put(key.as_bytes());
        }
        for batch in &self.preload {
            put(b"T");
            for (id, value) in batch {
                put(&id.to_be_bytes());
                put(value);
            }
        }
        for op in &self.ops {
            match op {
                Op::Get(id) => put(&[&[1u8][..], &id.to_be_bytes()].concat()),
                Op::FGet(id, i) => put(&[&[2u8][..], &id.to_be_bytes(), &[*i]].concat()),
                Op::Set(id, value) => put(&[&[3u8][..], &id.to_be_bytes(), value].concat()),
                Op::Scan(id) => put(&[&[4u8][..], &id.to_be_bytes()].concat()),
            }
        }
        out
    }

    /// Whether the measured ops include SCANs.
    pub fn has_scans(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, Op::Scan(_)))
    }
}

fn workload_salt(workload: Workload) -> u64 {
    match workload {
        Workload::Ingest => 0x1,
        Workload::ReadScan => 0x2,
        Workload::UpdateChurn => 0x3,
    }
}

/// Groups the preload keys by shard, in id order, into TXN batches of
/// at most [`PRELOAD_BATCH`] SETs.
fn preload_batches(keys: &[String], spec: Spec, rng: &mut Rng) -> Vec<Vec<(u32, Vec<u8>)>> {
    let (lo, hi) = spec.value_len;
    let mut pending: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); spec.shards];
    let mut batches = Vec::new();
    for (id, key) in keys.iter().enumerate() {
        let shard = shard_of(key, spec.shards);
        let len = rng.between(lo, hi);
        pending[shard].push((id as u32, rng.bytes(len)));
        if pending[shard].len() == PRELOAD_BATCH {
            batches.push(std::mem::take(&mut pending[shard]));
        }
    }
    batches.extend(pending.into_iter().filter(|b| !b.is_empty()));
    batches
}
