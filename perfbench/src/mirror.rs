//! The embedded mirror: the server's op handlers replayed in-process
//! over the same `ShardedHeap` layout, with a span around each public
//! call into a layer.
//!
//! Each handler repeats the library calls of its counterpart in
//! `espresso_server::server` (`op_get`, `op_fget`, `op_scan`, `op_set`,
//! `op_txn`, `with_gc_retry`, and the durability wait of group commit)
//! in the same order, so a replay of the server's op stream makes the
//! same device events. The run checks that, and flags the per-layer
//! numbers as out of step when the two drift apart.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::time::Instant;

use espresso_core::{
    HeapManager, HeapStats, HeapTxn, LoadOptions, Pjh, PjhConfig, PjhError, ShardedHeap,
};
use espresso_index::{Index, Key};
use espresso_nvm::{NvmDevice, NvmStats};
use espresso_object::{ArrFld, PArr, PRef, StrFld};
use espresso_server::protocol::{MAX_SCAN_BYTES, NUM_FIELDS};
use espresso_server::server::{KvEntry, ServerConfig, KV_INDEX};

use crate::drive::{Page, Target};
use crate::gen::Spec;
use crate::trace::{Span, Tracer};

/// Sharded-heap base name, as the server's default.
const BASE: &str = "kv";

/// Work counts the mirror sees at layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// Write sections retried after `HeapFull`.
    pub heap_full_retries: Cell<u64>,
    /// Collections run (incremental and full).
    pub gcs: Cell<u64>,
    /// Regions a collection left free beyond those free before it.
    pub regions_freed: Cell<u64>,
    /// Allocation calls of the write path (value arrays, entries,
    /// fields arrays, key strings).
    pub write_allocs: Cell<u64>,
    /// Index entries a scan pulled from its range iterator.
    pub rows_examined: Cell<u64>,
    /// Entries a scan returned.
    pub rows_returned: Cell<u64>,
    /// Epochs sealed.
    pub commits: Cell<u64>,
    /// Bytes the sealed epochs captured for the image apply.
    pub apply_bytes: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// The mirror's open heap.
pub struct Mirror {
    dir: PathBuf,
    // Field order is drop order: indexes and heap before the manager.
    indexes: Vec<Index<KvEntry>>,
    heap: ShardedHeap,
    _mgr: HeapManager,
    data_fld: ArrFld<KvEntry>,
    fields_fld: ArrFld<KvEntry>,
    key_fld: StrFld<KvEntry>,
    /// The span recorder (disabled unless tracing).
    pub tracer: Tracer,
    /// Boundary counts.
    pub counts: Counts,
}

type Fields = (ArrFld<KvEntry>, ArrFld<KvEntry>, StrFld<KvEntry>);

fn err(e: PjhError) -> String {
    e.to_string()
}

/// `Server::start`'s schema registration and index open, shard by shard.
fn attach(heap: &ShardedHeap, tracer: &Tracer) -> Result<(Fields, Vec<Index<KvEntry>>), String> {
    let mut fld = None;
    let mut indexes = Vec::with_capacity(heap.num_shards());
    for i in 0..heap.num_shards() {
        let class = tracer
            .span(Span::CoreOpen, None, || {
                heap.handle(i).register::<KvEntry>()
            })
            .map_err(err)?;
        if fld.is_none() {
            fld = Some((
                class.arr_field("data").expect("declared field"),
                class.arr_field("fields").expect("declared field"),
                class.str_field("key").expect("declared field"),
            ));
        }
        indexes.push(
            tracer
                .span(Span::IndexOpen, Some(i), || {
                    heap.handle(i)
                        .with_mut(|h| Index::<KvEntry>::open_or_create(h, KV_INDEX, "key"))
                })
                .map_err(err)?,
        );
    }
    Ok((fld.expect("at least one shard"), indexes))
}

fn devices(heap: &ShardedHeap) -> Vec<NvmDevice> {
    (0..heap.num_shards())
        .map(|i| heap.handle(i).with(|p| p.device().clone()))
        .collect()
}

/// `alloc_value_arr` of the server: a fresh value array filled with
/// unlogged persisted stores.
fn alloc_value_arr(h: &mut Pjh, value: &[u8]) -> Result<PArr, PjhError> {
    let arr = h.alloc_arr(1 + value.len().div_ceil(8))?;
    h.array_set(arr.raw(), 0, value.len() as u64);
    for (i, chunk) in value.chunks(8).enumerate() {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h.array_set(arr.raw(), 1 + i, u64::from_le_bytes(w));
    }
    h.flush_object(arr.raw());
    Ok(arr)
}

fn copy_value(h: &Pjh, data: PArr, len: usize) -> Vec<u8> {
    let mut value = Vec::with_capacity(len);
    for i in 0..len.div_ceil(8) {
        let word = h.arr_get(data, 1 + i).to_le_bytes();
        let take = (len - i * 8).min(8);
        value.extend_from_slice(&word[..take]);
    }
    value
}

impl Mirror {
    /// Creates a fresh heap in `dir`, as `Server::start` does.
    ///
    /// # Errors
    ///
    /// Heap creation errors.
    pub fn create(dir: &Path, spec: Spec) -> Result<Mirror, String> {
        let mgr = HeapManager::open(dir).map_err(err)?;
        let heap = ShardedHeap::create(
            &mgr,
            BASE,
            spec.shards,
            spec.shard_bytes,
            PjhConfig {
                name_table_capacity: ServerConfig::default().name_table_capacity,
                ..PjhConfig::default()
            },
        )
        .map_err(err)?;
        let mut tracer = Tracer::default();
        let ((data_fld, fields_fld, key_fld), indexes) = attach(&heap, &tracer)?;
        tracer.set_devices(devices(&heap));
        Ok(Mirror {
            dir: dir.to_path_buf(),
            indexes,
            heap,
            _mgr: mgr,
            data_fld,
            fields_fld,
            key_fld,
            tracer,
            counts: Counts::default(),
        })
    }

    /// Closes the heap and opens it again from its image files, tracing
    /// the load; returns the reopened mirror and the reopen time in
    /// seconds.
    ///
    /// # Errors
    ///
    /// Load errors.
    pub fn reopen(self) -> Result<(Mirror, f64), String> {
        let Mirror {
            dir,
            indexes,
            heap,
            _mgr,
            tracer,
            counts,
            ..
        } = self;
        drop(indexes);
        drop(heap);
        drop(_mgr);
        let begin = Instant::now();
        let mgr = HeapManager::open(&dir).map_err(err)?;
        let heap = tracer
            .span(Span::CoreOpen, None, || {
                ShardedHeap::open(&mgr, BASE, LoadOptions::default())
            })
            .map_err(err)?;
        let mut tracer = tracer;
        tracer.set_devices(devices(&heap));
        let ((data_fld, fields_fld, key_fld), indexes) = attach(&heap, &tracer)?;
        let secs = begin.elapsed().as_secs_f64();
        Ok((
            Mirror {
                dir,
                indexes,
                heap,
                _mgr: mgr,
                data_fld,
                fields_fld,
                key_fld,
                tracer,
                counts,
            },
            secs,
        ))
    }

    /// One write section: writer lock, `f`, replica republish on drop.
    fn section<T>(
        &self,
        shard: usize,
        f: &mut impl FnMut(&mut Pjh) -> Result<T, PjhError>,
    ) -> Result<T, PjhError> {
        let tr = &self.tracer;
        let handle = self.heap.handle(shard);
        let mut w = tr.span(Span::CoreWriteLock, Some(shard), || handle.write());
        let out = f(&mut w);
        tr.span(Span::CoreReplicaPublish, Some(shard), || drop(w));
        out
    }

    fn collect(&self, shard: usize, full: bool) -> Result<(), PjhError> {
        let tr = &self.tracer;
        self.section(shard, &mut |h| {
            let before = h.heap_stats().free_regions;
            let report = if full {
                tr.span(Span::CoreGcFull, Some(shard), || h.gc_full(&[]))?
            } else {
                tr.span(Span::CoreGc, Some(shard), || h.gc(&[]))?
            };
            bump(&self.counts.gcs, 1);
            bump(
                &self.counts.regions_freed,
                report.free_regions.saturating_sub(before) as u64,
            );
            Ok(())
        })
    }

    /// `with_gc_retry`: on `HeapFull`, collect incrementally and retry,
    /// then fully and retry once more.
    fn with_gc_retry<T>(
        &self,
        shard: usize,
        mut f: impl FnMut(&mut Pjh) -> Result<T, PjhError>,
    ) -> Result<T, PjhError> {
        match self.section(shard, &mut f) {
            Err(PjhError::HeapFull { .. }) => {
                bump(&self.counts.heap_full_retries, 1);
                self.collect(shard, false)?;
                match self.section(shard, &mut f) {
                    Err(PjhError::HeapFull { .. }) => {
                        bump(&self.counts.heap_full_retries, 1);
                        self.collect(shard, true)?;
                        self.section(shard, &mut f)
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    /// The durability wait a write's group commit performs: seal one
    /// epoch, wait until it is durable.
    fn commit(&self, shard: usize) -> Result<(), String> {
        let tr = &self.tracer;
        let handle = self.heap.handle(shard);
        let ticket = tr
            .span(Span::NvmSeal, Some(shard), || handle.commit())
            .map_err(|e| format!("commit failed: {e}"))?;
        bump(&self.counts.commits, 1);
        bump(
            &self.counts.apply_bytes,
            ticket.sealed_report().synced_bytes as u64,
        );
        tr.span(Span::NvmDurableWait, Some(shard), || ticket.wait())
            .map(|_| ())
            .map_err(|e| format!("commit failed: {e}"))
    }

    fn alloc<R>(
        &self,
        shard: usize,
        f: impl FnOnce() -> Result<R, PjhError>,
    ) -> Result<R, PjhError> {
        bump(&self.counts.write_allocs, 1);
        self.tracer.span(Span::CoreAlloc, Some(shard), f)
    }

    /// `create_entry`: entry, fields array, key string and index insert
    /// inside the caller's transaction.
    fn create_entry(
        &self,
        t: &mut HeapTxn<'_>,
        shard: usize,
        key: &str,
    ) -> Result<PRef<KvEntry>, PjhError> {
        let entry = self.alloc(shard, || t.alloc::<KvEntry>())?;
        let fields = self.alloc(shard, || t.alloc_arr(NUM_FIELDS))?;
        t.init_field_ref(entry.raw(), self.fields_fld.index(), fields.raw())?;
        let key_str = self.alloc(shard, || t.alloc_string(key))?;
        t.init_field_ref(entry.raw(), self.key_fld.index(), key_str)?;
        t.heap().flush(entry);
        self.tracer.span(Span::IndexInsert, Some(shard), || {
            self.indexes[shard].insert(t, &Key::Str(key.to_string()), entry)
        })?;
        Ok(entry)
    }

    /// Runs `body` as one traced `Pjh::txn`.
    fn in_txn<T>(
        &self,
        h: &mut Pjh,
        shard: usize,
        body: impl FnOnce(&mut HeapTxn<'_>) -> Result<T, PjhError>,
    ) -> Result<T, PjhError> {
        self.tracer.span(Span::CoreTxn, Some(shard), || h.txn(body))
    }
}

impl Target for Mirror {
    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, String> {
        let tr = &self.tracer;
        let shard = self.heap.shard_of(key);
        let session = tr.span(Span::CoreReadPin, Some(shard), || {
            self.heap.handle_for(key).read()
        });
        let entry = tr
            .span(Span::CoreRootLookup, Some(shard), || {
                session.root::<KvEntry>(key)
            })
            .map_err(err)?;
        let Some(entry) = entry else {
            return Ok(None);
        };
        Ok(tr.span(Span::CoreValueCopy, Some(shard), || {
            let data = session.get_arr(entry, self.data_fld)?;
            let len = session.arr_get(data, 0) as usize;
            Some(copy_value(&session, data, len))
        }))
    }

    fn fget(&mut self, key: &str, index: u8) -> Result<Option<u64>, String> {
        let tr = &self.tracer;
        let shard = self.heap.shard_of(key);
        let session = tr.span(Span::CoreReadPin, Some(shard), || {
            self.heap.handle_for(key).read()
        });
        let entry = tr
            .span(Span::CoreRootLookup, Some(shard), || {
                session.root::<KvEntry>(key)
            })
            .map_err(err)?;
        let Some(entry) = entry else {
            return Ok(None);
        };
        Ok(tr.span(Span::CoreValueCopy, Some(shard), || {
            let fields = session.get_arr(entry, self.fields_fld)?;
            Some(session.arr_get(fields, usize::from(index)))
        }))
    }

    fn set(&mut self, key: &str, value: &[u8]) -> Result<(), String> {
        let tr = &self.tracer;
        let shard = self.heap.shard_of(key);
        let data_fld = self.data_fld;
        self.with_gc_retry(shard, |h| {
            let arr = self.alloc(shard, || alloc_value_arr(h, value))?;
            let (entry, fresh) = self.in_txn(h, shard, |t| {
                let (entry, fresh) = match t.root::<KvEntry>(key)? {
                    Some(entry) => (entry, false),
                    None => (self.create_entry(t, shard, key)?, true),
                };
                t.set_arr(entry, data_fld, Some(arr))?;
                Ok((entry, fresh))
            })?;
            if fresh {
                tr.span(Span::CoreRootPublish, Some(shard), || {
                    h.set_root_typed(key, entry)
                })?;
            }
            Ok(())
        })
        .map_err(err)?;
        self.commit(shard)
    }

    fn txn(&mut self, batch: &[(&str, &[u8])]) -> Result<(), String> {
        let tr = &self.tracer;
        let shard = self.heap.shard_of(batch[0].0);
        if batch.iter().any(|(k, _)| self.heap.shard_of(k) != shard) {
            return Err("cross-shard transaction".to_string());
        }
        let data_fld = self.data_fld;
        self.with_gc_retry(shard, |h| {
            let mut staged: HashMap<String, Option<PRef<KvEntry>>> = HashMap::new();
            let mut value_arrs: Vec<PArr> = Vec::new();
            for (_, value) in batch {
                value_arrs.push(self.alloc(shard, || alloc_value_arr(h, value))?);
            }
            self.in_txn(h, shard, |t| {
                staged.clear();
                for ((key, _), arr) in batch.iter().zip(&value_arrs) {
                    let current = match staged.get(*key) {
                        Some(view) => *view,
                        None => t.root::<KvEntry>(key)?,
                    };
                    let entry = match current {
                        Some(entry) => entry,
                        None => {
                            let entry = self.create_entry(t, shard, key)?;
                            staged.insert((*key).to_string(), Some(entry));
                            entry
                        }
                    };
                    t.set_arr(entry, data_fld, Some(*arr))?;
                }
                Ok(())
            })?;
            for (key, action) in &staged {
                if let Some(entry) = action {
                    tr.span(Span::CoreRootPublish, Some(shard), || {
                        h.set_root_typed(key, *entry)
                    })?;
                }
            }
            Ok(())
        })
        .map_err(err)?;
        self.commit(shard)
    }

    fn scan(&mut self, shard: usize, start: &str, limit: u32) -> Result<Page, String> {
        let tr = &self.tracer;
        let session = tr.span(Span::CoreReadPin, Some(shard), || {
            self.heap.handle(shard).read()
        });
        let lo = if start.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Included(Key::Str(start.to_string()))
        };
        let range = tr.begin(Span::IndexRange, Some(shard));
        let iter = self.indexes[shard]
            .range(&session, (lo, Bound::Unbounded))
            .map_err(err)?;
        let mut items = Vec::new();
        let mut bytes = 0usize;
        let mut truncated = false;
        for (key, entry) in iter {
            bump(&self.counts.rows_examined, 1);
            let Key::Str(key) = key else {
                return Err("kv index key is not a string".to_string());
            };
            let copied = tr.span(Span::CoreValueCopy, Some(shard), || {
                let data = session.get_arr(entry, self.data_fld)?;
                let len = session.arr_get(data, 0) as usize;
                if items.len() >= limit as usize || bytes + key.len() + len > MAX_SCAN_BYTES {
                    return Some(None);
                }
                Some(Some(copy_value(&session, data, len)))
            });
            match copied {
                None => continue,
                Some(None) => {
                    truncated = true;
                    break;
                }
                Some(Some(value)) => {
                    bytes += key.len() + value.len();
                    items.push((key, value));
                }
            }
        }
        tr.end(range);
        bump(&self.counts.rows_returned, items.len() as u64);
        Ok((items, truncated))
    }

    fn device_stats(&self) -> NvmStats {
        (0..self.heap.num_shards())
            .map(|i| self.heap.handle(i).with(|p| p.device().stats()))
            .fold(NvmStats::default(), crate::sum_stats)
    }

    fn heap_stats(&self) -> HeapStats {
        self.heap.heap_stats()
    }

    fn op_started(&mut self, op: usize) {
        self.tracer.set_op(op as u32);
    }
}
