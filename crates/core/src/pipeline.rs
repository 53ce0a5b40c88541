//! The streaming run pipeline: simulation and analysis as concurrent
//! stages over a bounded channel.
//!
//! [`crate::experiment::run`] materializes the whole monitor trace
//! (hundreds of bytes per thousand cycles) before [`crate::analyze()`]
//! consumes it, so peak memory scales with the measured horizon.
//! [`run_streaming`] instead attaches one chunking [`TraceSink`] to the
//! machine's monitor: the simulation thread produces [`BusRecord`]s,
//! the sink cuts them into chunks of exactly
//! [`StreamOptions::chunk_records`] records on a bounded channel, and
//! the analysis thread feeds every chunk to a [`StreamAnalyzer`] and,
//! with observability on, to a [`TimelineBuilder`]. The producer is the
//! measured critical path, so it does nothing but simulate and stage;
//! every decode of the record stream happens on the analysis thread.
//! Backpressure from the bounded channel keeps peak memory constant
//! regardless of trace length — the paper's master-process protocol
//! (ship trace segments off the machine before the 2M-record buffer
//! fills) played the same role for the real monitor.
//!
//! The channel is accounted once, always: one `try_send` probe per
//! chunk on the producer (stall time), one `try_recv` probe per chunk
//! on the analysis thread (starve time, depth, chunk sizes).
//! [`StreamOptions::observe`] only decides whether the deterministic
//! `pipeline.*` half is exported, [`StreamOptions::stage_stats`] only
//! whether the wall-clock `stage/*` rows are.
//!
//! Both the simulation and the analysis are deterministic, so the
//! streamed result is byte-identical to the batch path; the tests (and
//! `tests/streaming.rs`) assert it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use oscar_machine::monitor::{BusRecord, RecordBlock, TraceSink};
use oscar_obs::{Log2Histogram, Metrics};

use crate::analyze::{AnalyzeOptions, RowSink, StreamAnalyzer, TraceAnalysis, TraceMeta};
use crate::experiment::{ExperimentConfig, RunArtifacts};
use crate::observe::{assemble_run_obs, TimelineBuilder};
use crate::perf::PhaseStats;

/// Tuning of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Records per channel message: the sink cuts the monitor stream
    /// into chunks of exactly this many records (only the last may be
    /// shorter). Amortizes channel synchronization; the value does not
    /// affect results.
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
    /// Enable observability: kernel probes, the per-CPU timeline
    /// (decoded on the analysis thread from the chunks the analyzer
    /// sees), and the `pipeline.*` self-metrics, delivered in
    /// [`RunArtifacts::obs`]. Off by default; when off no probe state
    /// is allocated and no per-record work happens.
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
    /// Report per-stage occupancy rows
    /// ([`RunArtifacts::stage_phases`]): wall/stall/starve seconds for
    /// the producer and the analysis loop, plus channel depth on the
    /// analysis row. The channel is accounted either way; this only
    /// decides whether the rows are reported. Never affects results.
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

/// Producer-side channel state, shared `Arc`-wise between the chunk
/// sink (which sends) and the analysis loop (which receives and
/// reports).
#[derive(Debug, Default)]
pub(crate) struct ChanCell {
    /// Chunks sent and not yet received.
    in_flight: AtomicUsize,
    /// Nanoseconds the producer spent blocked on a full channel.
    stall_ns: AtomicU64,
}

/// The channel's one accumulator, owned by the analysis loop: the
/// producer-side cell it shares with the sink, plus lifetime, starve
/// time, depth samples and chunk tallies, one update per received
/// chunk.
#[derive(Debug, Default)]
struct ChanAcc {
    /// Shared with the [`ChunkSink`].
    cell: Arc<ChanCell>,
    /// Total analysis-loop lifetime.
    wall: Duration,
    /// Time blocked receiving from an empty channel.
    starve: Duration,
    /// Chunks received.
    chunks: u64,
    /// Records across those chunks.
    records: u64,
    /// Distribution of per-chunk record counts.
    chunk_size: Log2Histogram,
    /// Channel depth (chunks in flight, including the one received)
    /// sampled at each receive.
    depth_max: u64,
    depth_sum: u64,
}

impl ChanAcc {
    /// Receives one message, charging any blocking wait to
    /// [`ChanAcc::starve`]. `None` once the channel is closed and
    /// drained.
    fn recv(&mut self, rx: &Receiver<StreamMsg>) -> Option<StreamMsg> {
        match rx.try_recv() {
            Ok(m) => Some(m),
            Err(TryRecvError::Empty) => {
                let t0 = Instant::now();
                let r = rx.recv().ok();
                self.starve += t0.elapsed();
                r
            }
            Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Tallies one received chunk of `len` records, releasing its
    /// channel slot.
    fn chunk(&mut self, len: usize) {
        let depth = self.cell.in_flight.fetch_sub(1, Ordering::Relaxed) as u64;
        self.depth_max = self.depth_max.max(depth);
        self.depth_sum += depth;
        self.chunks += 1;
        self.records += len as u64;
        self.chunk_size.record(len as u64);
    }

    /// Folds the deterministic half into `metrics` under `pipeline.*`;
    /// wall-clock times and depths stay out (they depend on thread
    /// scheduling).
    fn export_into(&self, metrics: &mut Metrics) {
        metrics.add("pipeline.chunks", self.chunks);
        metrics.add("pipeline.records", self.records);
        metrics.insert_hist("pipeline.chunk_size", &self.chunk_size);
    }

    /// Renders the accumulator as the `stage/analyze` perf row.
    fn row(&self) -> PhaseStats {
        PhaseStats {
            id: "stage/analyze".into(),
            wall_s: self.wall.as_secs_f64(),
            cycles: 0,
            records: self.records,
            chan_depth_max: (self.chunks > 0).then_some(self.depth_max),
            chan_depth_mean: (self.chunks > 0).then(|| self.depth_sum as f64 / self.chunks as f64),
            stall_s: None,
            starve_s: Some(self.starve.as_secs_f64()),
        }
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

/// A [`TraceSink`] that cuts the record stream into chunks of exactly
/// `cap` records on a bounded channel. Incoming blocks are cut by lane
/// range, column slice by column slice, never reassembled into
/// records: the cut runs on the producer thread. Dropping the sink
/// (detaching it from the monitor) flushes the partial last chunk and,
/// once the last sender is gone, closes the channel. The epoch feeder
/// ([`crate::epoch`]) drives one directly.
pub(crate) struct ChunkSink {
    buf: RecordBlock,
    cap: usize,
    tx: SyncSender<StreamMsg>,
    chan: Arc<ChanCell>,
}

impl ChunkSink {
    pub(crate) fn new(tx: SyncSender<StreamMsg>, cap: usize, chan: Arc<ChanCell>) -> Self {
        let cap = cap.max(1);
        ChunkSink {
            buf: RecordBlock::with_capacity(cap),
            cap,
            tx,
            chan,
        }
    }

    /// Sends the open chunk, charging any wait on a full channel to the
    /// producer's stall time.
    fn ship(&mut self) {
        let chunk = std::mem::replace(&mut self.buf, RecordBlock::with_capacity(self.cap));
        self.chan.in_flight.fetch_add(1, Ordering::Relaxed);
        // A closed channel means the analysis side is gone
        // (panicked); nothing useful to do with the records.
        if let Err(TrySendError::Full(msg)) = self.tx.try_send(StreamMsg::Block(chunk)) {
            let t0 = Instant::now();
            self.tx.send(msg).ok();
            self.chan
                .stall_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl TraceSink for ChunkSink {
    fn record(&mut self, rec: BusRecord) {
        self.buf.push(rec);
        if self.buf.len() == self.cap {
            self.ship();
        }
    }

    fn record_block(&mut self, block: &RecordBlock) {
        let mut lane = 0;
        while lane < block.len() {
            let take = (self.cap - self.buf.len()).min(block.len() - lane);
            self.buf.append_range(block, lane..lane + take);
            lane += take;
            if self.buf.len() == self.cap {
                self.ship();
            }
        }
    }
}

impl Drop for ChunkSink {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.ship();
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
/// [`crate::analyze::QueryRow`] per trace record, fully enriched (mode,
/// miss class, OS operation, kernel region) as the analyzer decodes it.
/// The hook runs on the calling thread, so the sink may capture
/// non-`Send` state. This is the record path behind `oscar-reports
/// query`: the sink evaluates every predicate on the enriched row and
/// aggregates per record, so memory stays bounded regardless of trace
/// length.
pub fn run_streaming_rows(
    config: &ExperimentConfig,
    opts: &StreamOptions,
    sink: RowSink,
) -> (RunArtifacts, TraceAnalysis) {
    run_streaming_inner(config, || config.build_workload(), opts, Some(sink))
}

fn run_streaming_inner(
    config: &ExperimentConfig,
    build: impl FnOnce() -> oscar_workloads::Workload + Send,
    opts: &StreamOptions,
    row_hook: Option<RowSink>,
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
    let mut acc = ChanAcc::default();
    let producer_chan = Arc::clone(&acc.cell);
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
                let (art, kernel_obs) = crate::epoch::run_epoch_producer(
                    config,
                    build,
                    crate::epoch::EpochPlan {
                        epoch_cycles,
                        jobs: epoch_jobs,
                        checkpoint_dir: checkpoint_dir.as_deref(),
                        observe,
                        chunk_records,
                        chan: producer_chan,
                    },
                    tx,
                );
                return (art, kernel_obs, prod_t0.elapsed());
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
            // Probes attach only for the measured window, so warm-up
            // never pollutes them.
            if observe {
                prep.os.enable_obs(measure_start);
            }
            prep.machine.monitor_mut().set_sink(Box::new(ChunkSink::new(
                tx,
                chunk_records,
                producer_chan,
            )));
            prep.measure();
            let kernel_obs = prep.os.take_obs(measure_start + config.measure_cycles);
            // finish() detaches (and so flushes) the sink; the channel
            // closes when the sink's sender drops.
            let mut art = prep.finish();
            if checkpoint_dir.is_some() {
                art.checkpoint = Some(ckpt);
            }
            (art, kernel_obs, prod_t0.elapsed())
        });

        // Analysis stage, on the calling thread: every chunk goes to the
        // analyzer and, with observability on, the timeline builder.
        let mut analyzer: Option<StreamAnalyzer> = None;
        let mut timeline: Option<TimelineBuilder> = None;
        let mut kept: Vec<BusRecord> = Vec::new();
        let an_t0 = Instant::now();
        let mut row_hook = row_hook;
        while let Some(msg) = acc.recv(&rx) {
            match msg {
                StreamMsg::Meta(meta) => {
                    if observe {
                        timeline = Some(TimelineBuilder::new(
                            meta.machine_config.num_cpus as usize,
                            meta.measure_start,
                        ));
                    }
                    let mut a = StreamAnalyzer::new(*meta, aopts.clone());
                    if let Some(sink) = row_hook.take() {
                        a.set_row_sink(sink);
                    }
                    analyzer = Some(a);
                }
                StreamMsg::Block(block) => {
                    acc.chunk(block.len());
                    analyzer
                        .as_mut()
                        .expect("trace metadata must precede records")
                        .push_block(&block);
                    if let Some(b) = &mut timeline {
                        for rec in block.iter() {
                            b.push(rec);
                        }
                    }
                    if opts.keep_trace {
                        kept.extend(block.iter());
                    }
                }
            }
        }
        acc.wall = an_t0.elapsed();

        let (mut art, kernel_obs, prod_wall) = producer.join().expect("simulation thread panicked");
        let an = analyzer
            .expect("simulation ended without trace metadata")
            .finish();
        if opts.keep_trace {
            art.trace = kept;
        }
        if opts.stage_stats {
            art.stage_phases.push(PhaseStats {
                id: "stage/produce".into(),
                wall_s: prod_wall.as_secs_f64(),
                cycles: config.measure_cycles,
                records: art.trace_records,
                chan_depth_max: None,
                chan_depth_mean: None,
                stall_s: Some(acc.cell.stall_ns.load(Ordering::Relaxed) as f64 / 1e9),
                starve_s: None,
            });
            art.stage_phases.push(acc.row());
        }
        if let Some(b) = timeline {
            let (timeline, mut metrics, cpu_fills) = b.finish(art.measure_end);
            acc.export_into(&mut metrics);
            if let Some(cs) = &art.checkpoint {
                cs.export_into(&mut metrics);
            }
            let obs = assemble_run_obs(
                &config.tag(),
                timeline,
                metrics,
                cpu_fills,
                &art,
                &an,
                kernel_obs,
            );
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
