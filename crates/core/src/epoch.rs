//! Time-parallel simulation: epoch checkpointing, parallel
//! re-execution, and the on-disk warmup checkpoint cache.
//!
//! A measured run is a serial sweep of the simulated 4D/340, so its
//! wall clock is bound by one core. This module breaks that bound with
//! a **two-pass** scheme built on the bit-exact snapshots of
//! `oscar_machine::snap` / `oscar_os::snap`:
//!
//! 1. a cheap *state-only* first pass (monitor disarmed — no records,
//!    no staging, no sinks) sweeps the measured window on the producer
//!    thread and freezes machine+kernel state at every epoch boundary
//!    (`--epoch-cycles` apart);
//! 2. every epoch then *re-executes* from its boundary snapshot on a
//!    worker pool with the monitor armed, producing exactly the records
//!    the serial run emits over that span — recording is passive
//!    (`TraceBuffer::record` never touches timing or kernel state) and
//!    chained `run_until` calls at increasing horizons reproduce one
//!    longer call, so worker state evolution is the serial trajectory;
//! 3. an in-order feeder concatenates the per-epoch record vectors and
//!    replays the monitor's staging cadence
//!    ([`oscar_machine::monitor::SINK_BATCH`]) into the pipeline's
//!    chunk sink, so chunk boundaries — and with them every downstream
//!    byte: report, CSVs, `--metrics-out`, `--trace-json`, query and
//!    provenance output — are identical to the serial path at any
//!    `--jobs`.
//!
//! The same snapshots back the **checkpoint cache** (`--checkpoint-dir`):
//! the post-warmup state is keyed by a configuration/format-revision
//! hash and reused across runs, skipping the multi-million-cycle
//! warm-up; epoch runs additionally cache the whole boundary bundle,
//! skipping the first pass too. Caches only move wall clock — a
//! restored run is bit-identical to a freshly simulated one.

use std::fs;
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use oscar_machine::fasthash::FxHasher;
use oscar_machine::monitor::{BufferMode, BusRecord, TraceSink, SINK_BATCH};
use oscar_machine::snap::{SnapError, SnapReader, SnapWriter, SNAP_FORMAT_VERSION};
use oscar_machine::Machine;
use oscar_obs::{Metrics, Timeline};
use oscar_os::{KernelObsReport, OsWorld};

use crate::analyze::TraceMeta;
use crate::experiment::{run_until, ExperimentConfig, PreparedRun, RunArtifacts};
use crate::observe::TimelineBuilder;
use crate::pad::CachePadded;
use crate::perf::PhaseStats;
use crate::pipeline::{ChunkSink, StreamMsg};

/// Checkpoint-cache accounting for one run: cache traffic plus the
/// wall-clock cost of freezing and thawing state. Exported as
/// `checkpoint.*` metrics keys only when a checkpoint directory was
/// given, so runs without one keep their metrics exports byte-identical
/// to earlier revisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Cache lookups that produced a usable snapshot.
    pub hits: u64,
    /// Cache lookups that found nothing (or a stale/corrupt entry).
    pub misses: u64,
    /// Microseconds spent serializing snapshots (including writes).
    pub capture_us: u64,
    /// Microseconds spent restoring snapshots (including reads).
    pub restore_us: u64,
}

impl CheckpointStats {
    /// Folds the counters into `metrics` under `checkpoint.*`.
    pub fn export_into(&self, metrics: &mut Metrics) {
        metrics.add("checkpoint.hits", self.hits);
        metrics.add("checkpoint.misses", self.misses);
        metrics.add("checkpoint.capture_us", self.capture_us);
        metrics.add("checkpoint.restore_us", self.restore_us);
    }
}

/// How the epoch producer should run, resolved from
/// [`crate::pipeline::StreamOptions`] by the streaming pipeline.
pub(crate) struct EpochPlan<'a> {
    /// Epoch length in simulated cycles.
    pub epoch_cycles: u64,
    /// Re-execution worker threads.
    pub jobs: usize,
    /// On-disk checkpoint cache, when enabled.
    pub checkpoint_dir: Option<&'a Path>,
    /// Whether observability (kernel probes + live timeline) is on.
    pub observe: bool,
    /// Records per chunk on the analysis channel.
    pub chunk_records: usize,
    /// Channel-depth gauge shared with the analysis loop.
    pub depth: Option<Arc<AtomicUsize>>,
    /// Producer stall accounting shared with the stage-stats reporter.
    pub stall: Option<Arc<crate::pipeline::StallCell>>,
}

/// Hash of everything the simulated trajectory depends on. The debug
/// rendering of the configuration covers every field (machine geometry,
/// kernel tuning, seed, workload, horizons); the snapshot format
/// version stands in for the code revision — bump it whenever
/// serialized state changes meaning — and the crate version catches
/// behavioural changes that leave the wire format alone.
fn config_key(config: &ExperimentConfig, salt: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(format!("{config:?}").as_bytes());
    h.write(salt.as_bytes());
    h.write_u64(SNAP_FORMAT_VERSION as u64);
    h.write(env!("CARGO_PKG_VERSION").as_bytes());
    h.finish()
}

/// Cache path of the post-warmup snapshot. The warm-up trajectory does
/// not depend on the measured horizon, so `measure_cycles` is masked
/// out of the key and runs differing only in window length share the
/// entry.
fn warmup_path(dir: &Path, config: &ExperimentConfig) -> PathBuf {
    let mut keyed = config.clone();
    keyed.measure_cycles = 0;
    dir.join(format!("warmup_{:016x}.snap", config_key(&keyed, "warmup")))
}

/// Cache path of an epoch-boundary bundle (every boundary snapshot plus
/// the end-of-window state); keyed by the full configuration and the
/// epoch length.
fn bundle_path(dir: &Path, config: &ExperimentConfig, epoch_cycles: u64) -> PathBuf {
    dir.join(format!(
        "epochs_{:016x}.snap",
        config_key(config, &format!("epochs/{epoch_cycles}"))
    ))
}

/// Serializes the full prepared run (machine, kernel, warm-up baseline,
/// window cursor).
fn freeze_prep(prep: &PreparedRun) -> Vec<u8> {
    let mut w = SnapWriter::new();
    prep.save_snapshot(&mut w);
    w.into_bytes()
}

/// Serializes only the dynamic machine+kernel state — what a worker
/// needs to re-execute an epoch.
fn freeze_state(machine: &Machine, os: &OsWorld) -> Vec<u8> {
    let mut w = SnapWriter::new();
    machine.save_snapshot(&mut w);
    os.save_snapshot(&mut w);
    w.into_bytes()
}

/// Rebuilds a (machine, kernel) pair from [`freeze_state`] bytes.
fn thaw_state(config: &ExperimentConfig, bytes: &[u8]) -> Result<(Machine, OsWorld), SnapError> {
    let mut r = SnapReader::new(bytes);
    let machine = Machine::restore_snapshot(config.machine.clone(), BufferMode::Unbounded, &mut r)?;
    let os = OsWorld::restore_snapshot(
        config.machine.num_cpus,
        config.machine.memory_bytes,
        config.tuning.clone(),
        oscar_workloads::task_factory(),
        &mut r,
    )?;
    r.expect_end()?;
    Ok((machine, os))
}

/// Best-effort cache write: an unwritable cache degrades to a miss on
/// the next run, never to a failure of this one.
fn store(dir: &Path, path: &Path, bytes: &[u8]) {
    if fs::create_dir_all(dir).is_ok() {
        fs::write(path, bytes).ok();
    }
}

/// Builds (or restores from the checkpoint cache) a warmed-up run. The
/// result is bit-identical to `PreparedRun::new` + `warmup` under the
/// same configuration — the cache only skips the wall clock.
pub(crate) fn warm_prepare(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload,
    checkpoint_dir: Option<&Path>,
    stats: &mut CheckpointStats,
) -> PreparedRun {
    if let Some(dir) = checkpoint_dir {
        let path = warmup_path(dir, config);
        if let Ok(bytes) = fs::read(&path) {
            let t = Instant::now();
            let mut r = SnapReader::new(&bytes);
            if let Ok(prep) = PreparedRun::restore_snapshot(config, &mut r) {
                if r.expect_end().is_ok() {
                    stats.hits += 1;
                    stats.restore_us += t.elapsed().as_micros() as u64;
                    return prep;
                }
            }
            // Stale or corrupt entry: fall through and regenerate.
        }
        stats.misses += 1;
        let mut prep = PreparedRun::new(config, build());
        prep.warmup();
        let t = Instant::now();
        let bytes = freeze_prep(&prep);
        stats.capture_us += t.elapsed().as_micros() as u64;
        store(dir, &path, &bytes);
        return prep;
    }
    let mut prep = PreparedRun::new(config, build());
    prep.warmup();
    prep
}

/// An epoch-boundary bundle restored from the checkpoint cache: the
/// end-of-window run state plus every boundary snapshot.
struct Bundle {
    prep: PreparedRun,
    snaps: Vec<Arc<Vec<u8>>>,
}

fn load_bundle(
    dir: &Path,
    config: &ExperimentConfig,
    epoch_cycles: u64,
    n_epochs: usize,
    stats: &mut CheckpointStats,
) -> Option<Bundle> {
    let bytes = fs::read(bundle_path(dir, config, epoch_cycles)).ok()?;
    let t = Instant::now();
    let parse = (|| -> Result<Bundle, SnapError> {
        let mut r = SnapReader::new(&bytes);
        let n = r.usize()?;
        if n != n_epochs {
            return Err(SnapError::Corrupt("epoch bundle count"));
        }
        let mut snaps = Vec::with_capacity(n);
        for _ in 0..n {
            snaps.push(Arc::new(r.bytes()?));
        }
        let prep = PreparedRun::restore_snapshot(config, &mut r)?;
        r.expect_end()?;
        Ok(Bundle { prep, snaps })
    })();
    let bundle = parse.ok()?;
    stats.hits += 1;
    stats.restore_us += t.elapsed().as_micros() as u64;
    Some(bundle)
}

fn store_bundle(
    dir: &Path,
    config: &ExperimentConfig,
    epoch_cycles: u64,
    snaps: &[Arc<Vec<u8>>],
    final_prep: &PreparedRun,
    stats: &mut CheckpointStats,
) {
    let t = Instant::now();
    let mut w = SnapWriter::new();
    w.usize(snaps.len());
    for s in snaps {
        w.bytes(s);
    }
    final_prep.save_snapshot(&mut w);
    let bytes = w.into_bytes();
    stats.capture_us += t.elapsed().as_micros() as u64;
    store(dir, &bundle_path(dir, config, epoch_cycles), &bytes);
}

/// A fixed array of write-once slots with blocking readers: boundary
/// snapshots flow pass-1 → workers, epoch outputs flow workers → the
/// in-order feeder. One mutex over the whole array is plenty — there
/// are at most a few dozen epochs and each slot changes hands once.
struct Slots<T> {
    inner: Mutex<Vec<Option<T>>>,
    ready: Condvar,
}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots {
            inner: Mutex::new((0..n).map(|_| None).collect()),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, idx: usize, value: T) {
        let mut g = self.inner.lock().expect("epoch slots poisoned");
        debug_assert!(g[idx].is_none(), "epoch slot published twice");
        g[idx] = Some(value);
        self.ready.notify_all();
    }

    /// Blocks until slot `idx` is filled, then consumes it.
    fn take(&self, idx: usize) -> T {
        let mut g = self.inner.lock().expect("epoch slots poisoned");
        loop {
            if let Some(v) = g[idx].take() {
                return v;
            }
            g = self.ready.wait(g).expect("epoch slots poisoned");
        }
    }

    /// Blocks until slot `idx` is filled, then clones it (workers share
    /// boundary snapshots with the bundle writer).
    fn peek(&self, idx: usize) -> T
    where
        T: Clone,
    {
        let mut g = self.inner.lock().expect("epoch slots poisoned");
        loop {
            if let Some(v) = g[idx].as_ref() {
                return v.clone();
            }
            g = self.ready.wait(g).expect("epoch slots poisoned");
        }
    }
}

/// One epoch's re-execution output.
struct EpochOut {
    records: Vec<BusRecord>,
    seen: u64,
    wall_s: f64,
}

/// Runs the measured window through the two-pass epoch engine, feeding
/// the exact record stream of the serial producer into `tx`. Returns
/// the final artifacts (with epoch phase rows and checkpoint stats
/// filled in), the kernel probe report, and the finished timeline —
/// the same contract as the serial simulation stage in
/// [`crate::pipeline::run_streaming`].
#[allow(clippy::type_complexity)]
pub(crate) fn run_epoch_producer(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload,
    plan: EpochPlan<'_>,
    tx: SyncSender<StreamMsg>,
) -> (
    RunArtifacts,
    Option<Box<KernelObsReport>>,
    Option<(Timeline, Metrics, Vec<u64>)>,
) {
    let tag = config.tag();
    let mut stats = CheckpointStats::default();
    let epoch_cycles = plan.epoch_cycles.max(1);
    let n_epochs = (config.measure_cycles.div_ceil(epoch_cycles) as usize).max(1);

    // Fast path: a cached epoch bundle skips warm-up AND the state-only
    // pass. Valid only without observability — the kernel probe report
    // comes from the first pass, which this path does not run.
    let bundle_cacheable = !plan.observe && plan.checkpoint_dir.is_some();
    let mut bundle = None;
    if bundle_cacheable {
        let dir = plan.checkpoint_dir.expect("cacheable implies dir");
        bundle = load_bundle(dir, config, epoch_cycles, n_epochs, &mut stats);
        if bundle.is_none() {
            stats.misses += 1;
        }
    }
    let from_bundle = bundle.is_some();
    let (mut prep, cached_snaps) = match bundle {
        Some(b) => (b.prep, Some(b.snaps)),
        None => (
            warm_prepare(config, build, plan.checkpoint_dir, &mut stats),
            None,
        ),
    };

    let measure_start = prep.measure_start();
    let meta = TraceMeta {
        layout: prep.os.layout().clone(),
        machine_config: config.machine.clone(),
        measure_start,
        measure_end: measure_start + config.measure_cycles,
    };
    tx.send(StreamMsg::Meta(Box::new(meta))).ok();

    let measure_cycles = config.measure_cycles;
    // End cycle of epoch k-1 / start of epoch k. Copy-captured, so
    // every thread takes its own.
    let boundary = move |k: usize| measure_start + ((k as u64) * epoch_cycles).min(measure_cycles);

    let snap_slots = Arc::new(Slots::<Arc<Vec<u8>>>::new(n_epochs));
    let out_slots = Arc::new(Slots::<EpochOut>::new(n_epochs));
    if let Some(snaps) = &cached_snaps {
        for (k, s) in snaps.iter().enumerate() {
            snap_slots.publish(k, Arc::clone(s));
        }
    }

    // Padded: the claim cursor must not share a line with the sink or
    // slot state the workers also touch.
    let next = CachePadded::new(AtomicUsize::new(0));
    let sink = ChunkSink::new(tx, plan.chunk_records, plan.depth, plan.stall);
    let timeline = plan
        .observe
        .then(|| TimelineBuilder::new(config.machine.num_cpus as usize, measure_start));

    let mut kernel_obs = None;
    let mut pass1_row = None;
    let (total_seen, epoch_rows, built_timeline) = thread::scope(|s| {
        // Re-execution workers: claim epochs off a shared index, thaw
        // the boundary snapshot, replay the span with the monitor
        // armed. The restored kernel lives and dies on the worker
        // thread (tasks hold `Rc` state and cannot cross threads);
        // only snapshot bytes and plain records do.
        //
        // Chaining: a worker that just finished epoch k already *is*
        // the boundary-(k+1) state — `run_until` is memoryless and
        // recording is passive, so when the next claimed epoch is the
        // one it is parked at, the worker keeps executing instead of
        // restoring a snapshot. With one worker this eliminates every
        // thaw but the first; with several, each chain the claims they
        // win in sequence.
        for _ in 0..plan.jobs.max(1).min(n_epochs) {
            let snap_slots = Arc::clone(&snap_slots);
            let out_slots = Arc::clone(&out_slots);
            let next = &next;
            s.spawn(move || {
                // The state this worker is parked at, positioned at
                // epoch boundary `pos` with the monitor armed.
                let mut parked: Option<(Machine, OsWorld, usize)> = None;
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n_epochs {
                        break;
                    }
                    let started = Instant::now();
                    let (mut machine, mut os) = match parked.take() {
                        Some((m, o, pos)) if pos == k => (m, o),
                        _ => {
                            let snap = snap_slots.peek(k);
                            let (mut machine, os) =
                                thaw_state(config, &snap).expect("epoch snapshot must thaw");
                            machine.monitor_mut().set_enabled(true);
                            (machine, os)
                        }
                    };
                    let seen_before = machine.monitor().total_seen();
                    if k == 0 {
                        // The serial measure() emits the trace-start
                        // escape right after arming the monitor; epoch
                        // 0 owns it (and its records count toward the
                        // epoch's tally).
                        os.emit_trace_start(&mut machine);
                    }
                    run_until(&mut machine, &mut os, boundary(k + 1));
                    let seen = machine.monitor().total_seen() - seen_before;
                    let records = machine.monitor_mut().dump();
                    parked = Some((machine, os, k + 1));
                    out_slots.publish(
                        k,
                        EpochOut {
                            records,
                            seen,
                            wall_s: started.elapsed().as_secs_f64(),
                        },
                    );
                }
            });
        }

        // In-order feeder: replays the monitor's staging cadence over
        // the concatenated epoch records, so the chunk sink sees the
        // byte-identical batch sequence of a serial run.
        let feeder = {
            let out_slots = Arc::clone(&out_slots);
            let mut sink = sink;
            let mut timeline = timeline;
            s.spawn(move || {
                let mut stage: Vec<BusRecord> = Vec::with_capacity(SINK_BATCH);
                let mut total_seen = 0u64;
                let mut rows = Vec::with_capacity(n_epochs);
                for k in 0..n_epochs {
                    let out = out_slots.take(k);
                    total_seen += out.seen;
                    rows.push((out.seen, out.wall_s));
                    for rec in out.records {
                        stage.push(rec);
                        if stage.len() >= SINK_BATCH {
                            sink.record_batch(&stage);
                            if let Some(b) = &mut timeline {
                                b.push_records(&stage);
                            }
                            stage.clear();
                        }
                    }
                }
                if !stage.is_empty() {
                    sink.record_batch(&stage);
                    if let Some(b) = &mut timeline {
                        b.push_records(&stage);
                    }
                }
                // Dropping the sink flushes its partial last chunk,
                // exactly as detaching it from the monitor does
                // serially, and closes the channel.
                drop(sink);
                (total_seen, rows, timeline)
            })
        };

        // State-only pass 1, on this thread: sweep the window with the
        // monitor disarmed, freezing state at every epoch boundary.
        // Recording is passive, so this trajectory — and therefore
        // every boundary snapshot and the final kernel statistics — is
        // the serial one.
        if !from_bundle {
            let pass1_started = Instant::now();
            let t = Instant::now();
            let snap0 = Arc::new(freeze_state(&prep.machine, &prep.os));
            stats.capture_us += t.elapsed().as_micros() as u64;
            snap_slots.publish(0, snap0);
            if plan.observe {
                prep.os.enable_obs(boundary(0));
            }
            // Same kernel-side effects as the serial measure(); the
            // disarmed monitor just sees none of it.
            prep.os.emit_trace_start(&mut prep.machine);
            for k in 0..n_epochs {
                run_until(&mut prep.machine, &mut prep.os, boundary(k + 1));
                if k + 1 < n_epochs {
                    let t = Instant::now();
                    let snap = Arc::new(freeze_state(&prep.machine, &prep.os));
                    stats.capture_us += t.elapsed().as_micros() as u64;
                    snap_slots.publish(k + 1, snap);
                }
            }
            pass1_row = Some(PhaseStats {
                id: format!("pass1/{tag}"),
                wall_s: pass1_started.elapsed().as_secs_f64(),
                cycles: measure_cycles,
                ..PhaseStats::default()
            });
            if plan.observe {
                kernel_obs = prep.os.take_obs(boundary(n_epochs));
            }
        }

        feeder.join().expect("epoch feeder panicked")
    });

    // Populate the bundle cache for the next run (every boundary
    // snapshot is still parked in its slot; workers only peeked).
    if bundle_cacheable && !from_bundle {
        if let Some(dir) = plan.checkpoint_dir {
            let snaps: Vec<Arc<Vec<u8>>> = (0..n_epochs).map(|k| snap_slots.peek(k)).collect();
            store_bundle(dir, config, epoch_cycles, &snaps, &prep, &mut stats);
        }
    }

    let mut art = prep.finish();
    // The pass-1 monitor was disarmed, so the workers' counts are the
    // run's record count.
    art.trace_records = total_seen;
    art.epoch_phases = pass1_row.into_iter().collect();
    for (k, (seen, wall_s)) in epoch_rows.iter().enumerate() {
        art.epoch_phases.push(PhaseStats {
            id: format!("epoch/{tag}/{k}"),
            wall_s: *wall_s,
            cycles: boundary(k + 1) - boundary(k),
            records: *seen,
            ..PhaseStats::default()
        });
    }
    if plan.checkpoint_dir.is_some() {
        art.checkpoint = Some(stats);
    }
    let built = built_timeline.map(|b| b.finish(art.measure_end));
    (art, kernel_obs, built)
}
