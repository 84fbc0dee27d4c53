//! In-memory span recorder for the traced mirror replay.
//!
//! A span wraps one public call into a layer. Spans nest; a span's self
//! time and self device events are its own minus those of the spans it
//! encloses. Device events come from the stats of the shard the span
//! works on, read at entry and exit. Every span is kept in memory and
//! written out by [`Tracer::write_tsv`] when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use espresso_nvm::{NvmDevice, NvmStats};

use crate::sum_stats;

/// Every span the mirror records, named `<layer>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Span {
    /// `HeapHandle::commit`: seal an epoch.
    NvmSeal,
    /// `CommitTicket::wait`: wait for the epoch's image apply.
    NvmDurableWait,
    /// `HeapHandle::write`: take the shard's writer lock.
    CoreWriteLock,
    /// Object/array/string allocation calls of the write path.
    CoreAlloc,
    /// `Pjh::txn`, minus the allocations and index work inside it.
    CoreTxn,
    /// `set_root_typed`: publish a fresh entry under its key.
    CoreRootPublish,
    /// Dropping the `WriteSession`: republish the read replica.
    CoreReplicaPublish,
    /// `Pjh::gc` after a heap-full write.
    CoreGc,
    /// `Pjh::gc_full` when the incremental cycle did not free enough.
    CoreGcFull,
    /// `HeapHandle::read`: pin an epoch, take the replica.
    CoreReadPin,
    /// `ReadSession::root`: find the key's entry.
    CoreRootLookup,
    /// Field and array reads that copy a value out.
    CoreValueCopy,
    /// `ShardedHeap::open` plus schema registration at restart.
    CoreOpen,
    /// `Index::insert`.
    IndexInsert,
    /// `Index::remove`.
    IndexRemove,
    /// `Index::range` and the iteration it drives.
    IndexRange,
    /// `Index::open_or_create` at restart.
    IndexOpen,
}

impl Span {
    /// Every span, in reporting order.
    pub const ALL: [Span; 17] = [
        Span::NvmSeal,
        Span::NvmDurableWait,
        Span::CoreWriteLock,
        Span::CoreAlloc,
        Span::CoreTxn,
        Span::CoreRootPublish,
        Span::CoreReplicaPublish,
        Span::CoreGc,
        Span::CoreGcFull,
        Span::CoreReadPin,
        Span::CoreRootLookup,
        Span::CoreValueCopy,
        Span::CoreOpen,
        Span::IndexInsert,
        Span::IndexRemove,
        Span::IndexRange,
        Span::IndexOpen,
    ];

    /// Whether the span belongs to loading a heap rather than to an op.
    pub fn at_load(self) -> bool {
        matches!(self, Span::CoreOpen | Span::IndexOpen)
    }

    /// The span's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Span::NvmSeal => "nvm.seal",
            Span::NvmDurableWait => "nvm.durable_wait",
            Span::CoreWriteLock => "core.write_lock",
            Span::CoreAlloc => "core.alloc",
            Span::CoreTxn => "core.txn",
            Span::CoreRootPublish => "core.root_publish",
            Span::CoreReplicaPublish => "core.replica_publish",
            Span::CoreGc => "core.gc",
            Span::CoreGcFull => "core.gc_full",
            Span::CoreReadPin => "core.read_pin",
            Span::CoreRootLookup => "core.root_lookup",
            Span::CoreValueCopy => "core.value_copy",
            Span::CoreOpen => "core.open",
            Span::IndexInsert => "index.insert",
            Span::IndexRemove => "index.remove",
            Span::IndexRange => "index.range",
            Span::IndexOpen => "index.open",
        }
    }
}

/// Aggregates of one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Completed calls.
    pub calls: u64,
    /// Self time of every call, in nanoseconds.
    pub self_ns: Vec<u64>,
    /// Self device events summed over calls.
    pub dev: NvmStats,
}

/// One recorded span.
#[derive(Debug, Clone)]
struct Event {
    span: Span,
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Frame {
    span: Span,
    shard: Option<usize>,
    event: usize,
    start: Instant,
    dev0: NvmStats,
    child_ns: u64,
    child_dev: NvmStats,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    events: Vec<Event>,
    stats: BTreeMap<Span, SpanStats>,
    op: u32,
}

/// The recorder. Disabled tracers record nothing and read no clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    devices: Vec<NvmDevice>,
    state: RefCell<State>,
}

/// Proof of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(bool);

/// A disabled tracer with no devices yet.
impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            devices: Vec::new(),
            state: RefCell::new(State::default()),
        }
    }
}

impl Tracer {
    /// Sets the shard devices (one clone of each) spans read counters
    /// from.
    pub fn set_devices(&mut self, devices: Vec<NvmDevice>) {
        self.devices = devices;
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags later spans with op number `op`.
    pub fn set_op(&self, op: u32) {
        if self.enabled {
            self.state.borrow_mut().op = op;
        }
    }

    /// Opens a span working on `shard` (`None`: no device accounting,
    /// for calls that create the devices).
    pub fn begin(&self, span: Span, shard: Option<usize>) -> Open {
        if !self.enabled {
            return Open(false);
        }
        let mut st = self.state.borrow_mut();
        let parent = st.stack.last().map(|f| f.event as u32);
        let event = st.events.len();
        let op = st.op;
        st.events.push(Event {
            span,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        let dev0 = self.dev(shard);
        let start = Instant::now();
        st.events[event].start_ns = start.duration_since(self.origin).as_nanos() as u64;
        st.stack.push(Frame {
            span,
            shard,
            event,
            start,
            dev0,
            child_ns: 0,
            child_dev: NvmStats::default(),
        });
        Open(true)
    }

    /// Closes the innermost open span.
    pub fn end(&self, open: Open) {
        if !open.0 {
            return;
        }
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        let f = st.stack.pop().expect("end matches a begin");
        let dev = self.dev(f.shard).since(&f.dev0);
        let total_ns = end.duration_since(f.start).as_nanos() as u64;
        st.events[f.event].end_ns = end.duration_since(self.origin).as_nanos() as u64;
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += total_ns;
            parent.child_dev = sum_stats(parent.child_dev, dev);
        }
        let agg = st.stats.entry(f.span).or_default();
        agg.calls += 1;
        agg.self_ns.push(total_ns.saturating_sub(f.child_ns));
        agg.dev = sum_stats(agg.dev, dev.since(&f.child_dev));
    }

    fn dev(&self, shard: Option<usize>) -> NvmStats {
        shard.map_or(NvmStats::default(), |s| self.devices[s].stats())
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, span: Span, shard: Option<usize>, f: impl FnOnce() -> R) -> R {
        let open = self.begin(span, shard);
        let out = f();
        self.end(open);
        out
    }

    /// Aggregates per span name.
    pub fn stats(&self) -> BTreeMap<Span, SpanStats> {
        self.state.borrow().stats.clone()
    }

    /// Writes every recorded span as tab-separated
    /// `id parent op name start_ns end_ns` lines.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let st = self.state.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, e) in st.events.iter().enumerate() {
            let parent = e.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                e.op,
                e.span.name(),
                e.start_ns,
                e.end_ns
            )?;
        }
        out.flush()
    }
}
