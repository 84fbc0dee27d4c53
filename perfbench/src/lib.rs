//! The repository benchmark: seeded `espresso-server` workloads with
//! exact NVM event counts, and a traced per-layer replay of the same
//! op stream through an embedded mirror of the server's handlers.
//!
//! `perfbench/README.md` documents the workloads, every metric and its
//! window, and how to run it. [`run`] is the whole benchmark; `main`
//! only parses arguments and prints.

pub mod drive;
pub mod gen;
pub mod host;
pub mod mirror;
pub mod model;
pub mod serve;
pub mod trace;

use std::path::{Path, PathBuf};

use espresso_core::{HeapStats, PjhConfig};
use espresso_nvm::NvmStats;

use drive::{Preload, StreamRun, Target, Verify, Window};
use gen::{Stream, Workload};
use mirror::Mirror;
use model::Model;
use serve::ServerTarget;
use trace::Span;

/// Adds two counter sets field by field.
pub fn sum_stats(a: NvmStats, b: NvmStats) -> NvmStats {
    NvmStats {
        reads: a.reads + b.reads,
        writes: a.writes + b.writes,
        bytes_written: a.bytes_written + b.bytes_written,
        line_flushes: a.line_flushes + b.line_flushes,
        fences: a.fences + b.fences,
        simulated_ns: a.simulated_ns + b.simulated_ns,
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation; 0 for
/// an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How much a run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured ops.
    pub ops: usize,
    /// Keys the preload writes (the workload's own size unless shrunk
    /// for the self-test).
    pub preload_keys: usize,
    /// Fresh set-ups timed for `setup_s` (the last one is measured).
    pub setups: usize,
    /// Stop/start cycles timed for `restart_s`.
    pub restarts: usize,
}

impl Plan {
    /// The benchmark's plan for `seconds` of measuring.
    pub fn full(workload: Workload, seconds: u64) -> Plan {
        let spec = workload.spec();
        Plan {
            ops: spec.ops_per_second * seconds as usize,
            preload_keys: spec.preload_keys,
            setups: 5,
            restarts: 15,
        }
    }

    /// A seconds-long run at most: the self-test's scale.
    pub fn tiny(workload: Workload) -> Plan {
        Plan {
            ops: 300,
            preload_keys: workload.spec().preload_keys.min(200),
            setups: 2,
            restarts: 2,
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer matched the oracle.
    pub correct: bool,
    /// Measured ops sent.
    pub attempted: u64,
    /// Measured ops refused (`BUSY`/`ERR`) or answered wrongly.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Informational lines (never parsed).
    pub notes: Vec<String>,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.into(),
        unit,
        // `+ 0.0` turns a negative zero (an empty float sum) into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
    });
}

/// Bytes of heap regions in use over live user bytes.
fn space_amp(stats: &HeapStats, live_bytes: u64) -> f64 {
    let used = (stats.total_regions - stats.free_regions) * PjhConfig::default().region_size;
    ratio(used as f64, live_bytes as f64)
}

/// A fresh, empty directory under `base`.
fn fresh_dir(base: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = base.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One pass of the op stream against a target: preload, stream, final
/// verification.
struct Pass {
    preload: Preload,
    stream: StreamRun,
    verify: Verify,
    live_bytes: u64,
    heap_before: HeapStats,
    heap_after: HeapStats,
}

impl Pass {
    fn wrong(&self) -> u64 {
        self.stream.wrong + self.verify.wrong
    }

    /// The window whose writes the write-side metrics describe: the
    /// stream's, or the preload's on a workload whose stream only reads.
    fn write_window(&self) -> (Window, &[f64]) {
        if self.stream.write_us.is_empty() {
            (self.preload.window, &self.preload.txn_us)
        } else {
            (self.stream.window, &self.stream.write_us)
        }
    }

    /// SCAN latencies: the stream's; on a workload whose stream has no
    /// scans, the probe pages' or, in a pass without probes, the final
    /// verification pages'.
    fn scan_us(&self) -> &[f64] {
        [&self.stream.scan_us, &self.stream.probe_us]
            .into_iter()
            .find(|v| !v.is_empty())
            .unwrap_or(&self.verify.scan_us)
    }
}

fn stream_pass(
    t: &mut dyn Target,
    stream: &Stream,
    shards: usize,
    preload: Preload,
    model: &mut Model,
    probes: bool,
) -> Result<Pass, String> {
    let heap_before = t.heap_stats();
    let probe_shards = (probes && !stream.has_scans()).then_some(shards);
    let run = drive::run_stream(t, &stream.keys, &stream.ops, model, probe_shards);
    let heap_after = t.heap_stats();
    let verify = drive::verify(t, model, shards)?;
    // After the walk, which settles every key a refused write left open.
    let live_bytes = model.live_bytes();
    Ok(Pass {
        preload,
        stream: run,
        verify,
        live_bytes,
        heap_before,
        heap_after,
    })
}

/// Runs one workload and returns its report. `base` is the scratch
/// directory heaps are created in (removed again before returning).
///
/// # Errors
///
/// Set-up failures (heap creation, a refused preload, I/O); wrong answers
/// are not errors but a report with `correct: false`.
pub fn run(
    workload: Workload,
    seed: u64,
    plan: Plan,
    trace: bool,
    base: &Path,
) -> Result<Report, String> {
    let stream = Stream::generate(workload, seed, &plan);
    let dir = fresh_dir(
        base,
        &format!("{}-{seed}-{}", workload.name(), std::process::id()),
    )?;
    let out = if trace {
        run_traced(workload, &stream, &dir, base)
    } else {
        run_timed(workload, &stream, plan, &dir)
    };
    remove_dir(&dir);
    out
}

/// The end-to-end run: untraced server, timed set-ups and restarts.
fn run_timed(
    workload: Workload,
    stream: &Stream,
    plan: Plan,
    dir: &Path,
) -> Result<Report, String> {
    let spec = workload.spec();
    let mut setup_s = Vec::new();
    let mut preload_txn_us = Vec::new();
    let mut kept = None;
    for i in 0..plan.setups.max(1) {
        let heap_dir = fresh_dir(dir, &format!("server{i}"))?;
        let begin = std::time::Instant::now();
        let mut server = ServerTarget::start(&heap_dir, spec)?;
        let mut model = Model::new(spec.shards);
        let preload = drive::preload(&mut server, stream, &mut model)?;
        setup_s.push(begin.elapsed().as_secs_f64());
        preload_txn_us.extend_from_slice(&preload.txn_us);
        // Only the last set-up is measured: stop and remove the others.
        if let Some((old, _, _, old_dir)) = kept.replace((server, model, preload, heap_dir)) {
            drop(old);
            remove_dir(&old_dir);
        }
    }
    let (mut server, mut model, mut preload, _) = kept.expect("at least one set-up");
    preload.txn_us = preload_txn_us;
    let mut pass = stream_pass(&mut server, stream, spec.shards, preload, &mut model, true)?;
    let (probe, value) = model
        .settled_key()
        .ok_or("no settled key to probe after restart")?;
    let mut restart_s = Vec::new();
    for _ in 0..plan.restarts.max(1) {
        restart_s.push(server.restart(&probe, &value)?);
        // A stream that writes ends in a state every restart must keep:
        // walk it again.
        if !stream.has_scans() {
            pass.verify.wrong += drive::verify(&mut server, &mut model, spec.shards)?.wrong;
        }
    }
    server.stop();

    let s = &pass.stream;
    let attempted = s.window.requests;
    let failed = s.refused + pass.wrong();
    let (wwin, write_us) = pass.write_window();
    let mut m = Vec::new();
    metric(
        &mut m,
        "ops_per_s",
        "1/s",
        ratio(attempted as f64, s.seconds),
    );
    metric(&mut m, "read_p50_us", "us", quantile(&s.read_us, 0.5));
    metric(&mut m, "write_p50_us", "us", quantile(write_us, 0.5));
    metric(&mut m, "write_p99_us", "us", quantile(write_us, 0.99));
    metric(&mut m, "scan_p50_us", "us", quantile(pass.scan_us(), 0.5));
    metric(&mut m, "setup_s", "s", quantile(&setup_s, 0.5));
    metric(&mut m, "restart_s", "s", quantile(&restart_s, 0.5));
    metric(
        &mut m,
        "ok_share",
        "share",
        1.0 - ratio(failed as f64, attempted as f64),
    );
    metric(
        &mut m,
        "nvm_bytes_per_user_byte",
        "B/B",
        ratio(wwin.dev.bytes_written as f64, wwin.user_bytes as f64),
    );
    metric(
        &mut m,
        "nvm_flushes_per_op",
        "count",
        ratio(wwin.dev.line_flushes as f64, wwin.requests as f64),
    );
    metric(
        &mut m,
        "nvm_reads_per_op",
        "count",
        ratio(s.window.dev.reads as f64, attempted as f64),
    );
    metric(
        &mut m,
        "space_amp",
        "B/B",
        space_amp(&pass.heap_after, pass.live_bytes),
    );

    let mut notes = vec![
        format!(
            "samples: read={} write={} scan={} setups={} restarts={}",
            s.read_us.len(),
            write_us.len(),
            pass.scan_us().len(),
            setup_s.len(),
            restart_s.len()
        ),
        format!(
            "failed_share={} refused={} wrong={} attempted={attempted}",
            ratio(failed as f64, attempted as f64),
            s.refused,
            pass.wrong()
        ),
        format!("setup_s each: {}", each(&setup_s)),
        format!("restart_s each: {}", each(&restart_s)),
        format!("read_us deciles: {}", deciles(&s.read_us)),
        format!("write_us deciles: {}", deciles(write_us)),
        format!("read_us block p50: {}", blocks(&s.read_us)),
        format!("write_us block p50: {}", blocks(write_us)),
        format!("scan_us block p50: {}", blocks(pass.scan_us())),
        format!("stream window: {}", s.window.dev),
        format!("write window: {} requests={}", wwin.dev, wwin.requests),
        format!(
            "state digest {:016x} over {} entries",
            pass.verify.digest, pass.verify.entries
        ),
    ];
    notes.extend(heap_notes(&pass));
    Ok(Report {
        correct: pass.wrong() == 0,
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

fn deciles(values: &[f64]) -> String {
    (1..10)
        .map(|d| format!("{:.1}", quantile(values, f64::from(d) / 10.0)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn each(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn blocks(values: &[f64]) -> String {
    values
        .chunks(values.len().div_ceil(10).max(1))
        .map(|c| format!("{:.1}", quantile(c, 0.5)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn heap_notes(pass: &Pass) -> Vec<String> {
    let h = &pass.heap_after;
    let mut notes = vec![format!(
        "heap: gc={} gc_full={} free_regions={}/{} free_list_words={} reused_slots={}",
        h.gc_count - pass.heap_before.gc_count,
        h.gc_full_count - pass.heap_before.gc_full_count,
        h.free_regions,
        h.total_regions,
        h.free_list_words,
        h.reused_slots - pass.heap_before.reused_slots
    )];
    if let Some((op, reason)) = &pass.stream.first_refusal {
        notes.push(format!("first refused op: #{op}: {reason}"));
    }
    notes
}

/// The exact counters a mirror pass must reproduce.
fn counters(p: &Pass) -> [NvmStats; 2] {
    let strip = |s: NvmStats| NvmStats {
        simulated_ns: 0,
        writes: 0,
        ..s
    };
    [strip(p.preload.window.dev), strip(p.stream.window.dev)]
}

/// The per-layer run: the server pass for reference, then the mirror
/// untraced and traced.
fn run_traced(
    workload: Workload,
    stream: &Stream,
    dir: &Path,
    base: &Path,
) -> Result<Report, String> {
    let spec = workload.spec();
    let shards = spec.shards;

    let mut server = ServerTarget::start(&fresh_dir(dir, "server")?, spec)?;
    let mut model = Model::new(shards);
    let preload = drive::preload(&mut server, stream, &mut model)?;
    let srv = stream_pass(&mut server, stream, shards, preload, &mut model, false)?;
    server.stop();

    let mut plain = Mirror::create(&fresh_dir(dir, "mirror")?, spec)?;
    let mut model = Model::new(shards);
    let preload = drive::preload(&mut plain, stream, &mut model)?;
    let untraced = stream_pass(&mut plain, stream, shards, preload, &mut model, false)?;
    drop(plain);

    let mut traced = Mirror::create(&fresh_dir(dir, "traced")?, spec)?;
    let mut model = Model::new(shards);
    let preload = drive::preload(&mut traced, stream, &mut model)?;
    traced.counts = mirror::Counts::default();
    let heap_before = traced.heap_stats();
    traced.tracer.set_enabled(true);
    let run = drive::run_stream(&mut traced, &stream.keys, &stream.ops, &mut model, None);
    let stream_wall = run.seconds;
    let heap_after = traced.heap_stats();
    let counts = std::mem::take(&mut traced.counts);
    let (mut traced, reopen_s) = traced.reopen()?;
    traced.tracer.set_enabled(false);
    let verify = drive::verify(&mut traced, &mut model, shards)?;
    let live_bytes = model.live_bytes();
    let spans_path = base.join(format!("spans-{}.tsv", workload.name()));
    traced
        .tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let stats = traced.tracer.stats();
    let mir = Pass {
        preload,
        stream: run,
        verify,
        live_bytes,
        heap_before,
        heap_after,
    };
    drop(traced);

    // Fidelity: both mirror passes must make the server's device events
    // and end in its state.
    let reference = counters(&srv);
    let in_step = counters(&untraced) == reference
        && counters(&mir) == reference
        && untraced.verify.digest == srv.verify.digest
        && mir.verify.digest == srv.verify.digest;

    let ops = stream.ops.len() as f64;
    let stream_ns = stream_wall * 1e9;
    let mut m = Vec::new();
    let mut covered_ns = 0.0;
    for span in Span::ALL {
        let st = stats.get(&span).cloned().unwrap_or_default();
        let calls = st.calls as f64;
        let self_ns = st.self_ns.iter().fold(0.0, |a, &n| a + n as f64);
        // Load spans run in the reopen, every other span in the stream:
        // each share is of its own phase's wall time.
        let phase_ns = if span.at_load() {
            reopen_s * 1e9
        } else {
            covered_ns += self_ns;
            stream_ns
        };
        let samples: Vec<f64> = st.self_ns.iter().map(|&n| n as f64 / 1e3).collect();
        let n = span.name();
        metric(&mut m, format!("{n}.calls_per_op"), "count", calls / ops);
        metric(
            &mut m,
            format!("{n}.self_us_p50"),
            "us",
            quantile(&samples, 0.5),
        );
        metric(
            &mut m,
            format!("{n}.self_share"),
            "share",
            ratio(self_ns, phase_ns),
        );
        metric(
            &mut m,
            format!("{n}.dev_reads_per_call"),
            "count",
            ratio(st.dev.reads as f64, calls),
        );
        metric(
            &mut m,
            format!("{n}.dev_flushes_per_call"),
            "count",
            ratio(st.dev.line_flushes as f64, calls),
        );
        metric(
            &mut m,
            format!("{n}.dev_bytes_per_call"),
            "B",
            ratio(st.dev.bytes_written as f64, calls),
        );
    }
    // The server layer: what the server adds over the embedded handlers,
    // op class by op class (untraced p50 against untraced p50).
    let srv_w = srv.write_window().1;
    let mir_w = untraced.write_window().1;
    metric(
        &mut m,
        "server.read.self_us_p50",
        "us",
        quantile(&srv.stream.read_us, 0.5) - quantile(&untraced.stream.read_us, 0.5),
    );
    metric(
        &mut m,
        "server.write.self_us_p50",
        "us",
        quantile(srv_w, 0.5) - quantile(mir_w, 0.5),
    );
    metric(
        &mut m,
        "server.scan.self_us_p50",
        "us",
        quantile(srv.scan_us(), 0.5) - quantile(untraced.scan_us(), 0.5),
    );
    let get = |c: &std::cell::Cell<u64>| c.get() as f64;
    metric(
        &mut m,
        "nvm.apply_bytes_per_commit",
        "B",
        ratio(get(&counts.apply_bytes), get(&counts.commits)),
    );
    metric(
        &mut m,
        "core.reuse_share",
        "share",
        ratio(
            (mir.heap_after.reused_slots - mir.heap_before.reused_slots) as f64,
            get(&counts.write_allocs),
        ),
    );
    metric(
        &mut m,
        "core.regions_freed_per_gc",
        "count",
        ratio(get(&counts.regions_freed), get(&counts.gcs)),
    );
    metric(
        &mut m,
        "core.heap_full_retries_per_op",
        "count",
        get(&counts.heap_full_retries) / ops,
    );
    metric(
        &mut m,
        "index.rows_examined_per_row",
        "count",
        ratio(get(&counts.rows_examined), get(&counts.rows_returned)),
    );
    metric(
        &mut m,
        "stream.flushes_per_op",
        "count",
        srv.stream.window.dev.line_flushes as f64 / ops,
    );
    metric(
        &mut m,
        "stream.gc_cycles",
        "count",
        (srv.heap_after.gc_count - srv.heap_before.gc_count) as f64,
    );
    metric(
        &mut m,
        "trace.overhead_share",
        "share",
        ratio(
            stream_wall - untraced.stream.seconds,
            untraced.stream.seconds,
        ),
    );
    metric(
        &mut m,
        "trace.unattributed_share",
        "share",
        1.0 - ratio(covered_ns, stream_ns),
    );
    metric(
        &mut m,
        "trace.in_step",
        "bool",
        if in_step { 1.0 } else { 0.0 },
    );

    let [sp, ss] = reference;
    let [mp, ms] = counters(&mir);
    let mut notes = vec![
        format!(
            "fidelity: {}",
            if in_step {
                "in step (mirror device events and state digest equal the server's)"
            } else {
                "OUT OF STEP: per-layer numbers do not describe the server run"
            }
        ),
        format!("server preload: {sp}"),
        format!("mirror preload: {mp}"),
        format!("server stream:  {ss}"),
        format!("mirror stream:  {ms}"),
        format!(
            "digests: server {:016x} mirror {:016x} traced {:016x}",
            srv.verify.digest, untraced.verify.digest, mir.verify.digest
        ),
        format!("spans written to {}", spans_path.display()),
    ];
    notes.extend(heap_notes(&srv));
    let attempted = srv.stream.window.requests;
    let failed = srv.stream.refused + srv.wrong();
    let wrong = srv.wrong() + untraced.wrong() + mir.wrong();
    Ok(Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
        notes,
    })
}
