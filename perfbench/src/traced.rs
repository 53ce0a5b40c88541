//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! Each iteration runs the workload's end-to-end operation once with
//! the stage rows on (the pipeline layer's wait times), then once more
//! decomposed: the same work, serialized, with every call into a
//! layer's public functions wrapped in a span. The decomposed run must
//! reproduce the reference output byte for byte, so the spans time the
//! real work. Counts come from the same boundaries and must repeat
//! exactly across iterations.
//!
//! The resim banks and the hot-line tracker have no public entry of
//! their own inside the live analyzer. They are measured as the
//! difference between the analyzer call with the option on and with it
//! off, over the same records, outside the traced wall time.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oscar_core::causal::{
    add_causal_flows, add_causal_metrics, attach_symbols, build_causal_input, lock_ids,
    render_causal_section,
};
use oscar_core::driver::ReportOutput;
use oscar_core::observe::{add_hotline_metrics, add_hotline_tracks, assemble_run_obs};
use oscar_core::{
    obs_from_artifacts, render_all, tracefile, AnalyzeOptions, ExperimentConfig, PreparedRun,
    StreamAnalyzer, TimelineBuilder, TraceMeta,
};
use oscar_machine::addr::CpuId;
use oscar_machine::monitor::{BusRecord, RecordBlock, TraceSink};
use oscar_machine::snap::{SnapReader, SnapWriter};
use oscar_machine::Machine;

use crate::workloads::{self, Ready, Workload, HOTLINES_TOP};
use crate::{measure, median, result_line, Args, RunDir, Tally};

/// Records per block handed to the analyzer: the streaming pipeline's
/// default chunk size.
const CHUNK_RECORDS: usize = 4096;

/// Every per-layer metric with its unit, in output order. Layers that
/// do not run on a workload report 0 (see `NOTES.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("experiment.new_s", "s"),
    ("experiment.warmup_s", "s"),
    ("experiment.warmup_ns_per_cycle", "ns/cycle"),
    ("experiment.measure_s", "s"),
    ("experiment.measure_ns_per_record", "ns/record"),
    ("experiment.finish_s", "s"),
    ("os.kernel_ops", "count"),
    ("os.utlb_faults", "count"),
    ("os.dispatches", "count"),
    ("os.migrations", "count"),
    ("os.lock_attempts", "count"),
    ("os.lock_failed_first", "count"),
    ("machine.ifetch_fills", "count"),
    ("machine.data_fills", "count"),
    ("machine.upgrades", "count"),
    ("machine.writebacks", "count"),
    ("machine.snoop_invalidations", "count"),
    ("machine.stall_cycles", "cycles"),
    ("machine.bus.transactions", "count"),
    ("machine.bus.arbitration_wait", "cycles"),
    ("machine.dir.get_s", "count"),
    ("machine.dir.get_x", "count"),
    ("machine.dir.forwards", "count"),
    ("machine.dir.bank_wait", "cycles"),
    ("monitor.records", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.bytes", "B"),
    ("tracefile.load_s", "s"),
    ("tracefile.bytes", "B"),
    ("analyze.push_s", "s"),
    ("analyze.ns_per_record", "ns/record"),
    ("analyze.finish_s", "s"),
    ("analyze.batch_s", "s"),
    ("resim.sweep_s", "s"),
    ("hotline.track_s", "s"),
    ("hotline.export_s", "s"),
    ("analyze.escapes", "count"),
    ("analyze.undecodable", "count"),
    ("analyze.misses", "count"),
    ("pipeline.produce_s", "s"),
    ("pipeline.produce_stall_s", "s"),
    ("pipeline.analyze_starve_s", "s"),
    ("observe.timeline_s", "s"),
    ("causal.profile_s", "s"),
    ("causal.edges", "count"),
    ("report.render_s", "s"),
    ("report.export_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
];

/// Spans of one decomposed operation: seconds per layer, and the wall
/// time they cover. Spans never nest, so their sum is the covered time.
struct Ledger {
    t0: Instant,
    /// Time spent in off-ledger work (the on/off difference passes),
    /// excluded from the traced wall time.
    excluded: Duration,
    covered: f64,
    times: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            t0: Instant::now(),
            excluded: Duration::ZERO,
            covered: 0.0,
            times: BTreeMap::new(),
        }
    }

    /// Runs `f` as a span of layer metric `name` (seconds).
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed().as_secs_f64();
        *self.times.entry(name).or_default() += d;
        self.covered += d;
        out
    }

    /// Runs `f` off the ledger: its time counts in no span and is
    /// removed from the traced wall time.
    fn off<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }

    /// Adds `secs` to metric `name` without a span.
    fn note(&mut self, name: &'static str, secs: f64) {
        *self.times.entry(name).or_default() += secs;
    }

    fn wall(&self) -> f64 {
        (self.t0.elapsed() - self.excluded).as_secs_f64()
    }
}

/// Deterministic work counts of one decomposed operation.
type Counts = BTreeMap<&'static str, u64>;

fn add(counts: &mut Counts, name: &'static str, n: u64) {
    *counts.entry(name).or_default() += n;
}

/// A [`TraceSink`] that keeps the measured window as blocks of
/// [`CHUNK_RECORDS`] records, the way the pipeline's chunking sink cuts
/// them for the analyzer.
struct BlockSink {
    buf: RecordBlock,
    out: Arc<Mutex<Vec<RecordBlock>>>,
}

impl BlockSink {
    fn flush(&mut self, at_least: usize) {
        if !self.buf.is_empty() && self.buf.len() >= at_least {
            let block = std::mem::replace(&mut self.buf, RecordBlock::with_capacity(CHUNK_RECORDS));
            self.out.lock().expect("block list poisoned").push(block);
        }
    }
}

impl TraceSink for BlockSink {
    fn record(&mut self, rec: BusRecord) {
        self.buf.push(rec);
        self.flush(CHUNK_RECORDS);
    }

    fn record_block(&mut self, block: &RecordBlock) {
        self.buf.append(block);
        self.flush(CHUNK_RECORDS);
    }
}

impl Drop for BlockSink {
    fn drop(&mut self) {
        self.flush(1);
    }
}

/// Per-CPU machine counters summed over CPUs, plus the fabric's.
fn machine_counts(m: &Machine, cpus: u8) -> [(&'static str, u64); 12] {
    let mut c = [0u64; 6];
    for cpu in 0..cpus {
        let k = m.counters(CpuId(cpu));
        c[0] += k.ifetch_fills;
        c[1] += k.data_fills;
        c[2] += k.upgrades;
        c[3] += k.writebacks;
        c[4] += k.snoop_invalidations;
        c[5] += k.bus_stall + k.l2_stall + k.uncached_stall + k.sync_stall;
    }
    let ic = m.interconnect();
    let dir = ic.dir.unwrap_or_default();
    [
        ("machine.ifetch_fills", c[0]),
        ("machine.data_fills", c[1]),
        ("machine.upgrades", c[2]),
        ("machine.writebacks", c[3]),
        ("machine.snoop_invalidations", c[4]),
        ("machine.stall_cycles", c[5]),
        ("machine.bus.transactions", ic.transactions),
        ("machine.bus.arbitration_wait", ic.arbitration_wait),
        ("machine.dir.get_s", dir.get_s),
        ("machine.dir.get_x", dir.get_x),
        ("machine.dir.forwards", dir.forwards),
        ("machine.dir.bank_wait", dir.bank_wait),
    ]
}

/// Seconds of one whole analyzer call (new, every block, finish) over
/// `blocks` with `opts`: the off side of an on/off difference.
fn analyzer_pass(meta: &TraceMeta, blocks: &[RecordBlock], opts: AnalyzeOptions) -> f64 {
    let t = Instant::now();
    let mut a = StreamAnalyzer::new(meta.clone(), opts);
    for b in blocks {
        a.push_block(b);
    }
    black_box(a.finish());
    t.elapsed().as_secs_f64()
}

/// The analyzer options the streaming pipeline uses for a live run.
fn live_options(hotlines: bool, online_sweeps: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        online_sweeps,
        keep_streams: false,
        hotlines,
        hotlines_top: HOTLINES_TOP,
        ..AnalyzeOptions::default()
    }
}

/// One live run, decomposed: what `run_streaming` and `run_one` do for
/// `config`, serialized and span by span. Starts from `snapshot` (a
/// warm checkpoint, read and restored as the cache does) or cold.
/// Appends the report (and, for the CLI's export flags, the exports) to
/// `bytes`.
fn live_run(
    config: &ExperimentConfig,
    snapshot: Option<&Path>,
    exports: Option<&Path>,
    led: &mut Ledger,
    counts: &mut Counts,
    bytes: &mut Vec<u8>,
) -> Result<(), String> {
    // The export flags are scale16-dir's `--hotlines-out --causal-out`:
    // hot lines on, and the causal profiler, which turns observability on.
    let observe = exports.is_some();
    let mut prep = match snapshot {
        Some(path) => led.span("checkpoint.restore_s", || {
            let data =
                fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let mut r = SnapReader::new(&data);
            let prep = PreparedRun::restore_snapshot(config, &mut r)
                .and_then(|p| r.expect_end().map(|()| p))
                .map_err(|e| format!("cannot restore {}: {e:?}", path.display()))?;
            Ok::<_, String>(prep)
        })?,
        None => {
            let mut prep = led.span("experiment.new_s", || {
                PreparedRun::new(config, config.build_workload())
            });
            led.span("experiment.warmup_s", || prep.warmup());
            add(counts, "experiment.warmup_cycles", config.warmup_cycles);
            prep
        }
    };
    let cpus = config.machine.num_cpus;
    let measure_start = prep.measure_start();
    let measure_end = measure_start + config.measure_cycles;
    let meta = TraceMeta {
        layout: prep.os.layout().clone(),
        machine_config: config.machine.clone(),
        measure_start,
        measure_end,
    };
    if observe {
        prep.os.enable_obs(measure_start);
    }
    let before = machine_counts(&prep.machine, cpus);
    let kept = Arc::new(Mutex::new(Vec::new()));
    prep.machine.monitor_mut().set_sink(Box::new(BlockSink {
        buf: RecordBlock::with_capacity(CHUNK_RECORDS),
        out: Arc::clone(&kept),
    }));
    led.span("experiment.measure_s", || prep.measure());
    let kernel_obs = if observe {
        prep.os.take_obs(measure_end)
    } else {
        None
    };
    for ((name, after), (_, before)) in machine_counts(&prep.machine, cpus).into_iter().zip(before)
    {
        add(counts, name, after - before);
    }
    let art = led.span("experiment.finish_s", || prep.finish());
    let blocks = std::mem::take(&mut *kept.lock().expect("block list poisoned"));

    let t_an = Instant::now();
    let a = led.span("analyze.push_s", || {
        let mut a = StreamAnalyzer::new(meta.clone(), live_options(observe, true));
        for b in &blocks {
            a.push_block(b);
        }
        a
    });
    let an = led.span("analyze.finish_s", || a.finish());
    let on = t_an.elapsed().as_secs_f64();
    led.note("analyze.batch_s", on);

    let mut obs = if observe {
        Some(led.span("observe.timeline_s", || {
            let mut b = TimelineBuilder::new(cpus as usize, measure_start);
            for block in &blocks {
                for rec in block.iter() {
                    b.push(rec);
                }
            }
            let (timeline, metrics, cpu_fills) = b.finish(art.measure_end);
            assemble_run_obs(
                &config.tag(),
                timeline,
                metrics,
                cpu_fills,
                &art,
                &an,
                kernel_obs,
            )
        }))
    } else {
        None
    };
    let hot = led.span("hotline.export_s", || {
        let hot = workloads::hotline_export(&an, &art);
        if let (Some(h), Some(obs)) = (&hot, obs.as_mut()) {
            add_hotline_metrics(&mut obs.metrics, h);
            add_hotline_tracks(&mut obs.timeline, &config.tag(), h);
        }
        hot
    });
    let causal = obs.as_mut().map(|obs| {
        led.span("causal.profile_s", || {
            let mut input = build_causal_input(&art, obs);
            attach_symbols(&mut input, &an, &lock_ids(obs));
            let a = oscar_obs::causal_analyze(&input);
            add_causal_metrics(&mut obs.metrics, &a);
            add_causal_flows(&mut obs.timeline, &input);
            a
        })
    });
    let report = led.span("report.render_s", || {
        let mut report = render_all(&art, &an);
        if let Some(a) = &causal {
            report += &render_causal_section(&art, a);
        }
        report
    });
    bytes.extend_from_slice(report.as_bytes());
    bytes.push(b'\n');
    if let Some(a) = &causal {
        add(counts, "causal.edges", a.edges.len() as u64);
    }
    if let Some(dir) = exports {
        led.span("report.export_s", || {
            let out = ReportOutput {
                kind: art.workload,
                tag: config.tag(),
                report,
                csv: Vec::new(),
                trace_blob: None,
                phases: Vec::new(),
                trace_records: art.trace_records,
                obs: obs.map(Box::new),
                provenance: None,
                hotlines: hot,
                causal: causal.map(Box::new),
            };
            workloads::scale16_exports(&[out], dir, bytes)
        })?;
    }

    let s = &art.os_stats;
    add(counts, "os.kernel_ops", s.ops.iter().sum());
    add(counts, "os.utlb_faults", s.utlb_faults);
    add(counts, "os.dispatches", s.dispatches);
    add(counts, "os.migrations", s.migrations);
    for (_, f) in &art.lock_stats {
        add(counts, "os.lock_attempts", f.attempts);
        add(counts, "os.lock_failed_first", f.failed_first);
    }
    add(counts, "monitor.records", art.trace_records);
    add(counts, "analyze.escapes", an.escapes);
    add(counts, "analyze.undecodable", an.undecodable);
    add(counts, "analyze.misses", an.total_misses());

    // On/off differences, off the ledger, over the same records.
    let off = led.off(|| analyzer_pass(&meta, &blocks, live_options(observe, false)));
    led.note("resim.sweep_s", on - off);
    if observe {
        let off = led.off(|| analyzer_pass(&meta, &blocks, live_options(false, true)));
        led.note("hotline.track_s", on - off);
    }
    Ok(())
}

/// One `--from-trace` replay, decomposed: `emit_from_trace` span by
/// span, with `analyze_with` opened into its `new`, per-record `push`
/// and `finish`.
fn replay_run(
    path: &Path,
    out_dir: &Path,
    led: &mut Ledger,
    counts: &mut Counts,
    bytes: &mut Vec<u8>,
) -> Result<(), String> {
    let art = led.span("tracefile.load_s", || {
        let mut f =
            fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        tracefile::load(&mut f).map_err(|e| format!("cannot load {}: {e}", path.display()))
    })?;
    let file_len = fs::metadata(path).map_or(0, |m| m.len());
    let t_an = Instant::now();
    let a = led.span("analyze.push_s", || {
        let mut a = StreamAnalyzer::new(TraceMeta::of(&art), workloads::replay_options(true));
        for &rec in &art.trace {
            a.push(rec);
        }
        a
    });
    let an = led.span("analyze.finish_s", || a.finish());
    let on = t_an.elapsed().as_secs_f64();
    led.note("analyze.batch_s", on);
    let report = led.span("report.render_s", || render_all(&art, &an));
    bytes.extend_from_slice(report.as_bytes());
    bytes.push(b'\n');
    let mut obs = led.span("observe.timeline_s", || obs_from_artifacts(&art, &an));
    let hot = led.span("hotline.export_s", || {
        let hot = workloads::hotline_export(&an, &art);
        if let Some(h) = &hot {
            add_hotline_metrics(&mut obs.metrics, h);
            add_hotline_tracks(&mut obs.timeline, &art.tag(), h);
        }
        hot
    });
    led.span("report.export_s", || {
        workloads::replay_exports(workloads::replay_output(&art, obs, hot), out_dir, bytes)
    })?;

    add(counts, "tracefile.bytes", file_len);
    add(counts, "monitor.records", art.trace_records);
    add(counts, "analyze.escapes", an.escapes);
    add(counts, "analyze.undecodable", an.undecodable);
    add(counts, "analyze.misses", an.total_misses());

    // The offline Figure 6 and D-cache sweeps that render_all runs, by
    // their own public entries; and the hot-line tracker as an on/off
    // difference. Both off the ledger.
    let cpus = art.machine_config.num_cpus as usize;
    let sweep = led.off(|| {
        let t = Instant::now();
        black_box(oscar_core::resim::figure6_sweep(&an.istream, cpus));
        black_box(oscar_core::resim::dcache_sweep(&an.dstream, cpus));
        t.elapsed().as_secs_f64()
    });
    led.note("resim.sweep_s", sweep);
    let off = led.off(|| {
        let t = Instant::now();
        black_box(oscar_core::analyze_with(
            &art,
            workloads::replay_options(false),
        ));
        t.elapsed().as_secs_f64()
    });
    led.note("hotline.track_s", on - off);
    Ok(())
}

/// The cold half of paper-warm, traced once per run: build and warm up
/// each paper run, then save its checkpoint as the cache stores it.
/// Returns the snapshot files in configuration order.
fn paper_snapshots(
    seed: u64,
    dir: &Path,
    times: &mut BTreeMap<&'static str, f64>,
    counts: &mut Counts,
) -> Result<Vec<PathBuf>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut led = Ledger::new();
    let mut files = Vec::new();
    for config in workloads::paper_configs(seed) {
        let mut prep = led.span("experiment.new_s", || {
            PreparedRun::new(&config, config.build_workload())
        });
        led.span("experiment.warmup_s", || prep.warmup());
        add(counts, "experiment.warmup_cycles", config.warmup_cycles);
        let path = dir.join(format!("{}.snap", config.tag()));
        let len = led.span("checkpoint.save_s", || {
            let mut w = SnapWriter::new();
            prep.save_snapshot(&mut w);
            let data = w.into_bytes();
            fs::write(&path, &data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok::<_, String>(data.len() as u64)
        })?;
        add(counts, "checkpoint.bytes", len);
        files.push(path);
    }
    times.extend(led.times);
    Ok(files)
}

/// One traced iteration's results.
struct Iteration {
    times: BTreeMap<&'static str, f64>,
    counts: Counts,
    traced_wall: f64,
    covered: f64,
    untraced_wall: f64,
    stages: workloads::Stages,
}

/// Runs one decomposed operation of `ready`'s workload.
fn decomposed(
    ready: &Ready,
    snapshots: &[PathBuf],
    tally: &mut Tally,
) -> Result<(Ledger, Counts), String> {
    let mut led = Ledger::new();
    let mut counts = Counts::new();
    let mut bytes = Vec::new();
    match ready.workload {
        Workload::PaperWarm => {
            for (config, snap) in workloads::paper_configs(ready.seed).iter().zip(snapshots) {
                live_run(config, Some(snap), None, &mut led, &mut counts, &mut bytes)?;
            }
        }
        Workload::Replay => {
            for path in &ready.traces {
                replay_run(path, &ready.out_dir, &mut led, &mut counts, &mut bytes)?;
            }
        }
        Workload::Scale16Dir => {
            for config in &workloads::scale16_configs(ready.seed) {
                live_run(
                    config,
                    None,
                    Some(&ready.out_dir),
                    &mut led,
                    &mut counts,
                    &mut bytes,
                )?;
            }
        }
    }
    let op = workloads::OpOutput {
        undecodable: counts.get("analyze.undecodable").copied(),
        bytes,
        ..workloads::OpOutput::default()
    };
    tally.record(&op, Some(&ready.reference), ready.committed());
    Ok((led, counts))
}

/// The traced run: set-up as usual, then iterations of (end-to-end
/// operation with stage rows, decomposed operation) until `seconds`
/// have passed, at least two.
pub fn run(args: &Args, dir: &RunDir) -> Result<String, String> {
    let mut tally = Tally::default();
    let ready = workloads::setup(args.workload, args.seed, &dir.0, &mut tally)?;
    let mut cold_times = BTreeMap::new();
    let mut cold_counts = Counts::new();
    let snapshots = if ready.workload == Workload::PaperWarm {
        paper_snapshots(
            args.seed,
            &dir.0.join("traced_ckpt"),
            &mut cold_times,
            &mut cold_counts,
        )?
    } else {
        Vec::new()
    };
    let t0 = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    while iters.len() < 2 || t0.elapsed() < Duration::from_secs(args.seconds) {
        let (op, sample) = measure(|| ready.run_op(true))?;
        let op = op?;
        tally.record(&op, Some(&ready.reference), ready.committed());
        let (led, mut counts) = decomposed(&ready, &snapshots, &mut tally)?;
        counts.extend(cold_counts.iter().map(|(k, v)| (*k, *v)));
        let mut times = led.times.clone();
        times.extend(cold_times.iter().map(|(k, v)| (*k, *v)));
        let it = Iteration {
            traced_wall: led.wall(),
            covered: led.covered,
            times,
            counts,
            untraced_wall: sample.wall_s,
            stages: op.stages.unwrap_or_default(),
        };
        if let Some(first) = iters.first() {
            tally.expect(
                it.counts == first.counts,
                "per-layer counts differ between traced iterations",
            );
        }
        eprintln!(
            "iteration {}: traced {:.3} s, untraced {:.3} s, spans cover {:.1} %",
            iters.len(),
            it.traced_wall,
            it.untraced_wall,
            100.0 * it.covered / it.traced_wall
        );
        iters.push(it);
    }
    Ok(result_line(&tally, &per_layer(&iters, &tally)))
}

/// The per-layer metrics: medians over iterations for times, the
/// first iteration's value for counts (all iterations must agree).
fn per_layer(iters: &[Iteration], tally: &Tally) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let time = |name: &str| med(&|it: &Iteration| it.times.get(name).copied().unwrap_or(0.0));
    let count = |name: &str| iters[0].counts.get(name).copied().unwrap_or(0) as f64;
    let coverage = med(&|it: &Iteration| it.covered / it.traced_wall);
    let unattributed = med(&|it: &Iteration| it.traced_wall - it.covered);
    if coverage < 0.9 {
        eprintln!(
            "spans cover only {:.1} % of traced wall time; unattributed_s = {unattributed:.3}",
            100.0 * coverage
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "experiment.warmup_ns_per_cycle" => {
                    time("experiment.warmup_s") * 1e9 / count("experiment.warmup_cycles").max(1.0)
                }
                "experiment.measure_ns_per_record" => {
                    time("experiment.measure_s") * 1e9 / count("monitor.records").max(1.0)
                }
                "analyze.ns_per_record" => {
                    time("analyze.push_s") * 1e9 / count("monitor.records").max(1.0)
                }
                "pipeline.produce_s" => med(&|it: &Iteration| it.stages.produce_s),
                "pipeline.produce_stall_s" => med(&|it: &Iteration| it.stages.produce_stall_s),
                "pipeline.analyze_starve_s" => med(&|it: &Iteration| it.stages.analyze_starve_s),
                "trace.wall_s" => med(&|it: &Iteration| it.traced_wall),
                "trace.coverage" => coverage,
                "unattributed_s" => unattributed,
                "trace.overhead_s" => med(&|it: &Iteration| it.traced_wall - it.untraced_wall),
                "error_rate" => tally.failed as f64 / tally.attempted.max(1) as f64,
                _ if unit == "s" => time(name),
                _ => count(name),
            };
            (name, value, unit)
        })
        .collect()
}
