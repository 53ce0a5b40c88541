//! The streaming run pipeline: simulation and analysis as concurrent
//! stages over a bounded channel.
//!
//! [`crate::experiment::run`] materializes the whole monitor trace
//! (hundreds of bytes per thousand cycles) before [`crate::analyze()`]
//! consumes it, so peak memory scales with the measured horizon.
//! [`run_streaming`] instead attaches a chunking [`TraceSink`] to the
//! machine's monitor: the simulation thread produces [`BusRecord`]s,
//! the sink batches them into chunks on a bounded channel, and the
//! analysis thread feeds them into a [`StreamAnalyzer`]. Backpressure
//! from the bounded channel keeps peak memory constant regardless of
//! trace length — the paper's master-process protocol (ship trace
//! segments off the machine before the 2M-record buffer fills) played
//! the same role for the real monitor.
//!
//! Both the simulation and the analysis are deterministic, so the
//! streamed result is byte-identical to the batch path; the tests (and
//! `tests/streaming.rs`) assert it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use oscar_machine::monitor::{BusRecord, RecordBlock, RecordFilter, TraceSink};

use crate::analyze::{AnalyzeOptions, RowSink, StreamAnalyzer, TraceAnalysis, TraceMeta};
use crate::experiment::{ExperimentConfig, RunArtifacts};
use crate::observe::{assemble_run_obs, PipelineObs, TimelineBuilder};
use crate::perf::PhaseStats;

/// Tuning of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Records batched per channel message (amortizes channel
    /// synchronization; the value does not affect results).
    pub chunk_records: usize,
    /// Channel capacity in chunks: the producer stalls once this many
    /// chunks are in flight, bounding peak memory.
    pub channel_chunks: usize,
    /// Also materialize the trace into the returned
    /// [`RunArtifacts::trace`] (for saving to disk; defeats the
    /// bounded-memory property).
    pub keep_trace: bool,
    /// Run the Figure 6 / D-cache sweeps online (they otherwise need
    /// the materialized miss streams).
    pub online_sweeps: bool,
    /// Keep the materialized `istream`/`dstream` in the analysis.
    pub keep_streams: bool,
    /// Enable observability: kernel probes, a live timeline decoder on
    /// the monitor stream (second sink via the fan-out), and pipeline
    /// self-metrics, delivered in [`RunArtifacts::obs`]. Off by
    /// default; when off no probe state is allocated and no per-record
    /// work happens.
    pub observe: bool,
    /// Accumulate per-cell exhibit provenance
    /// ([`crate::analyze::ExhibitProvenance`]) while analyzing; off by
    /// default and free when off.
    pub provenance: bool,
    /// Track per-block contention and materialize the symbolized
    /// hot-line exhibit ([`TraceAnalysis::hotlines`]); off by default
    /// and free when off.
    pub hotlines: bool,
    /// Top contended lines kept by the hot-line exhibit.
    pub hotlines_top: usize,
    /// Epoch length in simulated cycles for the time-parallel engine
    /// ([`crate::epoch`]): with a non-zero value the measured window is
    /// swept once monitor-off to checkpoint epoch boundaries, then the
    /// epochs re-execute concurrently on
    /// [`StreamOptions::epoch_jobs`] workers. 0 (the default) runs the
    /// classic serial producer. Either way the produced bytes are
    /// identical.
    pub epoch_cycles: u64,
    /// Worker threads re-executing epochs (only meaningful with
    /// [`StreamOptions::epoch_cycles`] > 0). Purely a wall-clock knob.
    pub epoch_jobs: usize,
    /// Directory for the on-disk snapshot cache: warm-up checkpoints
    /// (always) and epoch-boundary bundles (epoch mode, observability
    /// off). `None` disables caching. Cache traffic is reported in
    /// [`RunArtifacts::checkpoint`].
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Collect per-stage occupancy rows
    /// ([`RunArtifacts::stage_phases`]): wall/stall/starve seconds and
    /// channel-depth samples for the producer and the analysis loop.
    /// Costs one `try_send`/`try_recv` probe per channel operation; off
    /// by default and free when off. Never affects results.
    pub stage_stats: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk_records: crate::analyze::BLOCK_RECORDS,
            channel_chunks: 32,
            keep_trace: false,
            online_sweeps: true,
            keep_streams: false,
            observe: false,
            provenance: false,
            hotlines: false,
            hotlines_top: 50,
            epoch_cycles: 0,
            epoch_jobs: 1,
            checkpoint_dir: None,
            stage_stats: false,
        }
    }
}

/// Producer-side stall accounting for one bounded channel: how often
/// and for how long the sender blocked on a full channel. Shared
/// `Arc`-wise between the stage that sends and the coordinator that
/// reports.
#[derive(Debug, Default)]
pub(crate) struct StallCell {
    /// Sends that found the channel full and had to block.
    pub stalls: AtomicU64,
    /// Nanoseconds spent blocked in those sends.
    pub stall_ns: AtomicU64,
}

impl StallCell {
    /// Seconds spent blocked.
    fn stall_s(&self) -> f64 {
        self.stall_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Consumer-side occupancy accumulator for one pipeline stage.
#[derive(Debug, Default)]
struct StageAcc {
    /// Total stage lifetime.
    wall: Duration,
    /// Time blocked receiving from an empty upstream channel.
    starve: Duration,
    /// Records processed.
    records: u64,
    /// Upstream channel depth samples, taken at each receive.
    depth_max: u64,
    depth_sum: u64,
    depth_samples: u64,
}

impl StageAcc {
    fn sample_depth(&mut self, depth: u64) {
        self.depth_max = self.depth_max.max(depth);
        self.depth_sum += depth;
        self.depth_samples += 1;
    }

    /// Renders the accumulator as a `stage/<id>` perf row.
    fn row(&self, id: String) -> PhaseStats {
        PhaseStats {
            id,
            wall_s: self.wall.as_secs_f64(),
            cycles: 0,
            records: self.records,
            chan_depth_max: (self.depth_samples > 0).then_some(self.depth_max),
            chan_depth_mean: (self.depth_samples > 0)
                .then(|| self.depth_sum as f64 / self.depth_samples as f64),
            stall_s: None,
            starve_s: Some(self.starve.as_secs_f64()),
        }
    }
}

/// Receives one message, charging any blocking wait to `acc.starve`.
/// `None` once the channel is closed and drained.
fn recv_timed<T>(rx: &Receiver<T>, acc: &mut StageAcc) -> Option<T> {
    match rx.try_recv() {
        Ok(m) => Some(m),
        Err(TryRecvError::Empty) => {
            let t0 = Instant::now();
            let r = rx.recv().ok();
            acc.starve += t0.elapsed();
            r
        }
        Err(TryRecvError::Disconnected) => None,
    }
}

/// What flows from the simulation thread to the analysis thread.
pub(crate) enum StreamMsg {
    /// Trace metadata, sent once after warm-up, before any records.
    /// Boxed: the layout recipe makes it much larger than a chunk.
    Meta(Box<TraceMeta>),
    /// A batch of monitored records, in trace order, as
    /// structure-of-arrays columns (the monitor stages columns, so the
    /// channel carries them without reassembly).
    Block(RecordBlock),
}

/// A [`TraceSink`] that batches records into chunks on a bounded
/// channel. Dropping the sink (detaching it from the monitor) flushes
/// the partial last chunk and, once the last sender is gone, closes the
/// channel. The epoch feeder ([`crate::epoch`]) drives one directly.
pub(crate) struct ChunkSink {
    buf: RecordBlock,
    cap: usize,
    tx: SyncSender<StreamMsg>,
    /// Chunks in flight on the channel, shared with the analysis loop
    /// for depth sampling (observability or stage stats only).
    depth: Option<Arc<AtomicUsize>>,
    /// Stall accounting for the producer stage (stage stats only).
    stall: Option<Arc<StallCell>>,
}

impl ChunkSink {
    pub(crate) fn new(
        tx: SyncSender<StreamMsg>,
        cap: usize,
        depth: Option<Arc<AtomicUsize>>,
        stall: Option<Arc<StallCell>>,
    ) -> Self {
        let cap = cap.max(1);
        ChunkSink {
            buf: RecordBlock::with_capacity(cap),
            cap,
            tx,
            depth,
            stall,
        }
    }

    fn send(&mut self, chunk: RecordBlock) {
        if let Some(d) = &self.depth {
            d.fetch_add(1, Ordering::Relaxed);
        }
        // A closed channel means the analysis side is gone
        // (panicked); nothing useful to do with the records.
        match &self.stall {
            None => {
                self.tx.send(StreamMsg::Block(chunk)).ok();
            }
            Some(cell) => match self.tx.try_send(StreamMsg::Block(chunk)) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    let t0 = Instant::now();
                    self.tx.send(msg).ok();
                    cell.stalls.fetch_add(1, Ordering::Relaxed);
                    cell.stall_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => {}
            },
        }
    }

    fn flush_full(&mut self) {
        if self.buf.len() >= self.cap {
            let chunk = std::mem::replace(&mut self.buf, RecordBlock::with_capacity(self.cap));
            self.send(chunk);
        }
    }
}

impl TraceSink for ChunkSink {
    fn record(&mut self, rec: BusRecord) {
        self.buf.push(rec);
        self.flush_full();
    }

    fn record_batch(&mut self, recs: &[BusRecord]) {
        for &rec in recs {
            self.buf.push(rec);
        }
        self.flush_full();
    }

    fn record_block(&mut self, block: &RecordBlock) {
        self.buf.append(block);
        self.flush_full();
    }
}

impl Drop for ChunkSink {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            let chunk = std::mem::take(&mut self.buf);
            self.send(chunk);
        }
    }
}

/// A second [`TraceSink`] (attached through the monitor's fan-out) that
/// feeds every record to a [`TimelineBuilder`]. The builder lives in a
/// shared slot so the producer can reclaim it after the monitor drops
/// the sink; the mutex is uncontended — only the simulation thread
/// touches it while the sink is attached.
struct TimelineSink {
    builder: Arc<Mutex<Option<TimelineBuilder>>>,
}

impl TraceSink for TimelineSink {
    fn record(&mut self, rec: BusRecord) {
        if let Some(b) = self
            .builder
            .lock()
            .expect("timeline builder poisoned")
            .as_mut()
        {
            b.push(rec);
        }
    }

    fn record_batch(&mut self, recs: &[BusRecord]) {
        if let Some(b) = self
            .builder
            .lock()
            .expect("timeline builder poisoned")
            .as_mut()
        {
            b.push_records(recs);
        }
    }

    fn record_block(&mut self, block: &RecordBlock) {
        if let Some(b) = self
            .builder
            .lock()
            .expect("timeline builder poisoned")
            .as_mut()
        {
            for rec in block.iter() {
                b.push(rec);
            }
        }
    }
}

/// Runs one experiment with simulation and analysis pipelined.
///
/// Equivalent to `let art = run(config); let an = analyze(&art);`
/// except that the trace never exists in memory at once (unless
/// [`StreamOptions::keep_trace`] asks for it) and the analysis overlaps
/// the simulation. The returned artifacts and analysis are
/// deterministic and identical to the batch path's.
pub fn run_streaming(
    config: &ExperimentConfig,
    opts: &StreamOptions,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_with(config, || config.build_workload(), opts)
}

/// [`run_streaming`] with an explicit workload builder (the analogue of
/// [`crate::experiment::run_with`]). The builder runs on the simulation
/// thread because built workloads (which may hold `Rc` state shared
/// between tasks) cannot cross threads.
pub fn run_streaming_with(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload + Send,
    opts: &StreamOptions,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_inner(config, build, opts, None)
}

/// [`run_streaming`] with a per-record row hook: `sink` observes one
/// [`crate::analyze::QueryRow`] per trace record that passes `filter`,
/// fully enriched (mode, miss class, OS operation, kernel region) as
/// the analyzer decodes it. The hook runs on the calling thread, so the
/// sink may capture non-`Send` state. This is the pushdown path behind
/// `oscar-reports query`: aggregation happens per record and memory
/// stays bounded regardless of trace length.
pub fn run_streaming_rows(
    config: &ExperimentConfig,
    opts: &StreamOptions,
    filter: Option<RecordFilter>,
    sink: RowSink,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_inner(
        config,
        || config.build_workload(),
        opts,
        Some((filter, sink)),
    )
}

fn run_streaming_inner(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload + Send,
    opts: &StreamOptions,
    row_hook: Option<(Option<RecordFilter>, RowSink)>,
) -> (RunArtifacts, TraceAnalysis) {
    let aopts = AnalyzeOptions {
        online_sweeps: opts.online_sweeps,
        keep_streams: opts.keep_streams,
        provenance: opts.provenance,
        hotlines: opts.hotlines,
        hotlines_top: opts.hotlines_top,
    };
    let chunk_records = opts.chunk_records.max(1);
    let (tx, rx) = sync_channel::<StreamMsg>(opts.channel_chunks.max(1));
    let observe = opts.observe;
    let stage_stats = opts.stage_stats;
    let chan_depth = (observe || stage_stats).then(|| Arc::new(AtomicUsize::new(0)));
    let producer_depth = chan_depth.clone();
    let stall = stage_stats.then(|| Arc::new(StallCell::default()));
    let producer_stall = stall.clone();
    let epoch_cycles = opts.epoch_cycles;
    let epoch_jobs = opts.epoch_jobs.max(1);
    let checkpoint_dir = opts.checkpoint_dir.clone();

    thread::scope(|s| {
        // Simulation stage: warm up, publish the trace metadata, divert
        // the measured window into the channel, collect artifacts. With
        // epoch mode on, the time-parallel engine replaces this thread's
        // body wholesale — its byte output is identical.
        let producer = s.spawn(move || {
            let prod_t0 = Instant::now();
            if epoch_cycles > 0 {
                let (art, kernel_obs, built) = crate::epoch::run_epoch_producer(
                    config,
                    build,
                    crate::epoch::EpochPlan {
                        epoch_cycles,
                        jobs: epoch_jobs,
                        checkpoint_dir: checkpoint_dir.as_deref(),
                        observe,
                        chunk_records,
                        depth: producer_depth,
                        stall: producer_stall,
                    },
                    tx,
                );
                return (art, kernel_obs, built, prod_t0.elapsed());
            }
            let mut ckpt = crate::epoch::CheckpointStats::default();
            let mut prep =
                crate::epoch::warm_prepare(config, build, checkpoint_dir.as_deref(), &mut ckpt);
            let measure_start = prep.measure_start();
            let meta = TraceMeta {
                layout: prep.os.layout().clone(),
                machine_config: config.machine.clone(),
                measure_start,
                measure_end: measure_start + config.measure_cycles,
            };
            tx.send(StreamMsg::Meta(Box::new(meta))).ok();
            // Observability attaches only for the measured window, so
            // warm-up never pollutes the probes or the timeline.
            let obs_slot = observe.then(|| {
                prep.os.enable_obs(measure_start);
                Arc::new(Mutex::new(Some(TimelineBuilder::new(
                    config.machine.num_cpus as usize,
                    measure_start,
                ))))
            });
            prep.machine.monitor_mut().set_sink(Box::new(ChunkSink::new(
                tx,
                chunk_records,
                producer_depth,
                producer_stall,
            )));
            if let Some(slot) = &obs_slot {
                prep.machine.monitor_mut().add_sink(Box::new(TimelineSink {
                    builder: Arc::clone(slot),
                }));
            }
            prep.measure();
            let kernel_obs = prep.os.take_obs(measure_start + config.measure_cycles);
            // finish() detaches (and so flushes) the sinks; the channel
            // closes when the sink's sender drops.
            let mut art = prep.finish();
            if checkpoint_dir.is_some() {
                art.checkpoint = Some(ckpt);
            }
            let built = obs_slot
                .and_then(|slot| slot.lock().expect("timeline builder poisoned").take())
                .map(|b| b.finish(art.measure_end));
            (art, kernel_obs, built, prod_t0.elapsed())
        });

        // Analysis stage, on the calling thread.
        let mut analyzer: Option<StreamAnalyzer> = None;
        let mut kept: Vec<BusRecord> = Vec::new();
        let mut pobs = observe.then(PipelineObs::default);
        let mut an_acc = stage_stats.then(StageAcc::default);
        let an_t0 = Instant::now();
        let mut row_hook = row_hook;
        loop {
            let msg = match &mut an_acc {
                Some(acc) => match recv_timed(&rx, acc) {
                    Some(m) => m,
                    None => break,
                },
                None => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };
            match msg {
                StreamMsg::Meta(meta) => {
                    let mut a = StreamAnalyzer::new(*meta, aopts.clone());
                    if let Some((filter, sink)) = row_hook.take() {
                        a.set_row_sink(filter, sink);
                    }
                    analyzer = Some(a);
                }
                StreamMsg::Block(recs) => {
                    // Sample the in-flight count (including this chunk)
                    // before releasing the slot.
                    let depth_now = chan_depth
                        .as_ref()
                        .map(|d| d.fetch_sub(1, Ordering::Relaxed) as u64);
                    if let Some(p) = &mut pobs {
                        p.chunks += 1;
                        p.records += recs.len() as u64;
                        p.chunk_size.record(recs.len() as u64);
                        if let Some(depth) = depth_now {
                            p.depth_max = p.depth_max.max(depth);
                            p.depth_sum += depth;
                            p.depth_samples += 1;
                        }
                    }
                    if let Some(acc) = &mut an_acc {
                        acc.records += recs.len() as u64;
                        if let Some(depth) = depth_now {
                            acc.sample_depth(depth);
                        }
                    }
                    let a = analyzer
                        .as_mut()
                        .expect("trace metadata must precede records");
                    a.push_block(&recs);
                    if opts.keep_trace {
                        kept.extend(recs.iter());
                    }
                }
            }
        }
        if let Some(acc) = &mut an_acc {
            acc.wall = an_t0.elapsed();
        }

        let (mut art, kernel_obs, built, prod_wall) =
            producer.join().expect("simulation thread panicked");
        let an = analyzer
            .expect("simulation ended without trace metadata")
            .finish();
        if opts.keep_trace {
            art.trace = kept;
        }
        if stage_stats {
            let cell = stall.as_ref().expect("stage stats allocate a stall cell");
            art.stage_phases.push(PhaseStats {
                id: "stage/produce".into(),
                wall_s: prod_wall.as_secs_f64(),
                cycles: config.measure_cycles,
                records: art.trace_records,
                chan_depth_max: None,
                chan_depth_mean: None,
                stall_s: Some(cell.stall_s()),
                starve_s: None,
            });
            if let Some(acc) = &an_acc {
                art.stage_phases.push(acc.row("stage/analyze".into()));
            }
        }
        if let (Some(p), Some((timeline, mut metrics, cpu_fills))) = (pobs, built) {
            let tag = config.tag();
            p.export_into(&mut metrics);
            if let Some(cs) = &art.checkpoint {
                cs.export_into(&mut metrics);
            }
            let mut obs =
                assemble_run_obs(&tag, timeline, metrics, cpu_fills, &art, &an, kernel_obs);
            obs.pipeline = p;
            art.obs = Some(Box::new(obs));
        }
        (art, an)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::experiment::run;
    use oscar_workloads::WorkloadKind;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(2_000_000)
            .measure(3_000_000)
    }

    #[test]
    fn streaming_matches_batch_byte_for_byte() {
        let config = cfg();
        let batch_art = run(&config);
        let batch_an = analyze(&batch_art);
        let batch_report = crate::report::render_all(&batch_art, &batch_an);

        let opts = StreamOptions {
            keep_trace: true,
            chunk_records: 1000, // odd size: exercise partial-chunk flush
            ..StreamOptions::default()
        };
        let (stream_art, stream_an) = run_streaming(&config, &opts);

        assert_eq!(stream_art.trace, batch_art.trace, "trace must be identical");
        assert_eq!(stream_art.trace_records, batch_art.trace_records);
        assert_eq!(
            stream_art.os_stats.dispatches,
            batch_art.os_stats.dispatches
        );
        let stream_report = crate::report::render_all(&stream_art, &stream_an);
        assert_eq!(stream_report, batch_report);
    }

    #[test]
    fn stage_stats_rows_appear_and_results_stay_identical() {
        let config = cfg();
        let (base_art, base_an) = run_streaming(&config, &StreamOptions::default());
        assert!(base_art.stage_phases.is_empty(), "off by default");
        let base_report = crate::report::render_all(&base_art, &base_an);

        let opts = StreamOptions {
            stage_stats: true,
            ..StreamOptions::default()
        };
        let (art, an) = run_streaming(&config, &opts);
        assert_eq!(
            crate::report::render_all(&art, &an),
            base_report,
            "stage stats must not perturb results"
        );
        let ids: Vec<&str> = art.stage_phases.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids, ["stage/produce", "stage/analyze"]);
        let produce = &art.stage_phases[0];
        assert!(produce.records > 0);
        assert!(produce.stall_s.is_some() && produce.starve_s.is_none());
        let analyze = &art.stage_phases[1];
        assert_eq!(analyze.records, produce.records);
        assert!(analyze.starve_s.is_some() && analyze.stall_s.is_none());
        assert!(analyze.chan_depth_max.is_some() && analyze.chan_depth_mean.is_some());
    }

    #[test]
    fn bounded_mode_materializes_nothing() {
        let config = cfg();
        let (art, an) = run_streaming(&config, &StreamOptions::default());
        assert!(art.trace.is_empty(), "streamed trace must not materialize");
        assert!(art.trace_records > 0);
        assert!(an.istream.is_empty() && an.dstream.is_empty());
        // The online sweeps still produced the resim exhibits.
        assert_eq!(an.fig6.as_ref().map(Vec::len), Some(9));
        assert_eq!(an.dcache.as_ref().map(Vec::len), Some(5));
    }
}
