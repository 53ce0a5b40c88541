//! The parallel experiment driver: fans independent experiments across
//! worker threads and returns their outputs in request order.
//!
//! Every experiment is deterministic given its configuration (each run
//! seeds its own RNG from [`ExperimentConfig`]), and workers share no
//! mutable state, so the outputs — report text, CSV bytes, trace blobs
//! — are byte-identical whatever the worker count. `--jobs` in
//! `oscar-reports` is therefore purely a wall-clock knob.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use oscar_workloads::WorkloadKind;

use crate::experiment::ExperimentConfig;
use crate::pad::CachePadded;
use crate::perf::{PerfSummary, PhaseStats, PhaseTimer};
use crate::pipeline::{run_streaming, StreamOptions};
use crate::{csv, render_all, tracefile};

/// What one pool worker did, for the `pool/worker/<w>` perf rows:
/// items it claimed, wall clock it spent inside the closure, and the
/// records/cycles its outputs covered (as reported by the caller's
/// weigh function).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerTally {
    /// Work items this worker claimed and completed.
    pub items: u64,
    /// Wall-clock seconds spent running the closure.
    pub busy_s: f64,
    /// Monitor records across this worker's outputs.
    pub records: u64,
    /// Simulated cycles across this worker's outputs.
    pub cycles: u64,
}

/// Per-worker mutable tally cell. Each cell is written by exactly one
/// worker but all live in one `Vec`, so without padding the hot
/// counters of neighbouring workers would share a cache line and every
/// update would ping-pong it (the same MESI pathology the paper's §5
/// measures for test-and-set locks). [`CachePadded`] gives each worker
/// a private line; `machine_micro`'s `pad/*` group measures the
/// difference.
#[derive(Debug, Default)]
struct TallyCell {
    items: AtomicU64,
    busy_ns: AtomicU64,
    records: AtomicU64,
    cycles: AtomicU64,
}

impl TallyCell {
    fn snapshot(&self) -> WorkerTally {
        WorkerTally {
            items: self.items.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            records: self.records.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
        }
    }
}

/// Runs `f` over `items` on up to `jobs` worker threads (a shared-index
/// work pool: idle workers steal the next unclaimed item). Results come
/// back in item order, so any fold over them is independent of the
/// worker count and of scheduling.
pub fn parallel_map<I, O, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    parallel_map_tallied(items, jobs, f, |_| (0, 0)).0
}

/// [`parallel_map`] plus per-worker perf tallies. `weigh` maps each
/// output to its `(records, cycles)` contribution; it runs on the
/// worker that produced the output, into that worker's own
/// cache-line-padded counter cell.
pub fn parallel_map_tallied<I, O, F, W>(
    items: Vec<I>,
    jobs: usize,
    f: F,
    weigh: W,
) -> (Vec<O>, Vec<WorkerTally>)
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
    W: Fn(&O) -> (u64, u64) + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    let tallies: Vec<CachePadded<TallyCell>> = (0..jobs).map(|_| CachePadded::default()).collect();
    let tally = |w: usize, started: Instant, out: &O| {
        let (records, cycles) = weigh(out);
        let cell = &tallies[w].0;
        cell.items.fetch_add(1, Ordering::Relaxed);
        cell.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        cell.records.fetch_add(records, Ordering::Relaxed);
        cell.cycles.fetch_add(cycles, Ordering::Relaxed);
    };
    if jobs <= 1 {
        let outs = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                let started = Instant::now();
                let out = f(i, x);
                tally(0, started, &out);
                out
            })
            .collect();
        return (outs, tallies.iter().map(|c| c.0.snapshot()).collect());
    }
    let n = items.len();
    // The claim cursor gets its own line too: it is the single most
    // contended word in the pool, and packing it next to the tally
    // cells would drag their lines into every claim.
    let next = CachePadded::new(AtomicUsize::new(0));
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    thread::scope(|s| {
        for w in 0..jobs {
            let next = &next;
            let slots = &slots;
            let items = &items;
            let f = &f;
            let tally = &tally;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i]
                    .lock()
                    .expect("work item poisoned")
                    .take()
                    .expect("work item claimed twice");
                let started = Instant::now();
                let out = f(i, item);
                tally(w, started, &out);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    let outs = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker died before storing its result")
        })
        .collect();
    (outs, tallies.iter().map(|c| c.0.snapshot()).collect())
}

/// One experiment the driver should run and render.
#[derive(Debug, Clone)]
pub struct ReportRequest {
    /// The experiment to run.
    pub config: ExperimentConfig,
    /// Also render the figure series as CSV documents.
    pub want_csv: bool,
    /// Also serialize the raw monitor trace (`.oscartrace` bytes).
    /// Forces the trace to materialize, costing the streaming
    /// pipeline's bounded-memory property for this run.
    pub want_trace: bool,
    /// Also collect observability: kernel probes, the live timeline
    /// decoder and the metrics registry ([`crate::observe::RunObs`] in
    /// the output). Never changes the report bytes.
    pub want_obs: bool,
    /// Also collect exhibit provenance: per-cell contribution counts
    /// behind the paper-report exhibits, exported as `exhibit.*`
    /// metrics ([`crate::observe::provenance_metrics`]). Implies
    /// observability (the sync tables come from the kernel probes);
    /// never changes the report bytes.
    pub want_provenance: bool,
    /// Also track per-block contention and export the symbolized
    /// hot-line exhibit ([`ReportOutput::hotlines`], the report's
    /// "most actively shared data" section, `exhibit.hotline.*`
    /// metrics and the hot-line timeline tracks). Never changes any
    /// export produced without it.
    pub want_hotlines: bool,
    /// Top contended lines the hot-line exhibit keeps.
    pub hotlines_top: usize,
    /// Also run the causal synchronization profiler: wait-for graph,
    /// critical-path attribution, per-lock what-if curves
    /// ([`ReportOutput::causal`], the "Critical path" report section,
    /// `exhibit.causal.*` metrics and the timeline's wait-for flow
    /// arrows). Implies observability; never changes any export
    /// produced without it.
    pub want_causal: bool,
    /// Epoch length for the time-parallel engine
    /// ([`StreamOptions::epoch_cycles`]); 0 keeps the serial producer.
    pub epoch_cycles: u64,
    /// Epoch re-execution workers ([`StreamOptions::epoch_jobs`]).
    pub epoch_jobs: usize,
    /// On-disk snapshot cache directory
    /// ([`StreamOptions::checkpoint_dir`]).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Ignored: every run analyzes on the streaming pipeline's one
    /// analysis thread. The field stays so that callers which build
    /// `ReportRequest` as a full struct literal, such as the
    /// `perfbench` harness, keep compiling unchanged.
    pub pipeline: usize,
    /// Collect per-stage occupancy rows
    /// ([`StreamOptions::stage_stats`]) into [`ReportOutput::phases`]
    /// as `stage/<tag>/...` entries (wall-clock only, for `--perf-out`;
    /// never changes any export).
    pub stage_stats: bool,
}

impl ReportRequest {
    /// A plain report request for `kind` over the given window.
    pub fn new(kind: WorkloadKind, measure: u64, warmup: u64) -> Self {
        ReportRequest {
            config: ExperimentConfig::new(kind).warmup(warmup).measure(measure),
            want_csv: false,
            want_trace: false,
            want_obs: false,
            want_provenance: false,
            want_hotlines: false,
            hotlines_top: 50,
            want_causal: false,
            epoch_cycles: 0,
            epoch_jobs: 1,
            checkpoint_dir: None,
            pipeline: 0,
            stage_stats: false,
        }
    }
}

/// Everything one request produced.
#[derive(Debug, Clone)]
pub struct ReportOutput {
    /// The workload that ran.
    pub kind: WorkloadKind,
    /// The run's tag ([`ExperimentConfig::tag`]): file-name stem and
    /// metric prefix, unique across a sweep.
    pub tag: String,
    /// The full text report ([`render_all`]).
    pub report: String,
    /// CSV documents as `(file name, contents)` pairs.
    pub csv: Vec<(String, String)>,
    /// The serialized trace, when requested, with its suggested file
    /// name.
    pub trace_blob: Option<(String, Vec<u8>)>,
    /// Timed phases of this request (simulate+analyze, render).
    pub phases: Vec<PhaseStats>,
    /// Monitor records the run produced.
    pub trace_records: u64,
    /// Observability payload, when requested.
    pub obs: Option<Box<crate::observe::RunObs>>,
    /// Exhibit-provenance metrics, when requested.
    pub provenance: Option<oscar_obs::Metrics>,
    /// The hot-line exhibit with the fabric coherence counters, when
    /// requested.
    pub hotlines: Option<Box<crate::observe::HotlineExport>>,
    /// The causal synchronization profile (wait-for graph, critical
    /// path, what-if curves), when requested.
    pub causal: Option<Box<oscar_obs::CausalAnalysis>>,
}

fn run_one(req: &ReportRequest) -> ReportOutput {
    let tag = req.config.tag();
    let mut phases = Vec::new();

    let t = PhaseTimer::start(format!("simulate+analyze/{tag}"));
    let opts = StreamOptions {
        keep_trace: req.want_trace,
        observe: req.want_obs || req.want_provenance || req.want_causal,
        provenance: req.want_provenance,
        hotlines: req.want_hotlines,
        hotlines_top: req.hotlines_top.max(1),
        epoch_cycles: req.epoch_cycles,
        epoch_jobs: req.epoch_jobs,
        checkpoint_dir: req.checkpoint_dir.clone(),
        stage_stats: req.stage_stats,
        ..StreamOptions::default()
    };
    let (mut art, an) = run_streaming(&req.config, &opts);
    let mut obs = art.obs.take();
    let provenance = req
        .want_provenance
        .then(|| crate::observe::provenance_metrics(&an, obs.as_deref()));
    let hotlines = an.hotlines.as_deref().map(|h| {
        Box::new(crate::observe::HotlineExport {
            analysis: h.clone(),
            invals_sent: art.interconnect.invals_sent,
            sharer_churn: art.interconnect.sharer_churn,
            window_cycles: an.window_cycles,
        })
    });
    // Graft the hot-line exhibit onto the observability payload —
    // gated on the request, so runs without it export identical bytes.
    if let (Some(h), Some(obs)) = (&hotlines, obs.as_deref_mut()) {
        crate::observe::add_hotline_metrics(&mut obs.metrics, h);
        crate::observe::add_hotline_tracks(&mut obs.timeline, &tag, h);
    }
    // Causal profiling, gated the same way: metrics, flow arrows and
    // the analysis graft onto the observability payload only when the
    // request asked for them.
    let causal = match (req.want_causal, obs.as_deref_mut()) {
        (true, Some(obs)) => {
            let mut input = crate::causal::build_causal_input(&art, obs);
            crate::causal::attach_symbols(&mut input, &an, &crate::causal::lock_ids(obs));
            let a = oscar_obs::causal_analyze(&input);
            crate::causal::add_causal_metrics(&mut obs.metrics, &a);
            crate::causal::add_causal_flows(&mut obs.timeline, &input);
            Some(Box::new(a))
        }
        _ => None,
    };
    let mut scratch = PerfSummary::new(&tag, 1);
    t.stop(
        &mut scratch,
        req.config.warmup_cycles + req.config.measure_cycles,
        art.trace_records,
    );
    if let (Some(obs), Some(p)) = (&obs, scratch.phases.last_mut()) {
        let pl = &obs.pipeline;
        p.chan_depth_max = Some(pl.depth_max);
        if pl.depth_samples > 0 {
            p.chan_depth_mean = Some(pl.depth_sum as f64 / pl.depth_samples as f64);
        }
    }
    phases.append(&mut scratch.phases);
    // Epoch mode reports its pass-1 sweep and every epoch re-execution
    // as extra timed phases (wall-clock only; never in the metrics).
    phases.extend(art.epoch_phases.iter().cloned());
    // Stage stats report each pipeline stage's occupancy the same way,
    // namespaced under the run's tag.
    phases.extend(art.stage_phases.iter().map(|p| {
        let mut p = p.clone();
        p.id = format!("stage/{tag}/{}", p.id.trim_start_matches("stage/"));
        p
    }));

    let started = Instant::now();
    let mut report = render_all(&art, &an);
    // The "Critical path" section rides behind the causal gate so
    // every report produced without it keeps its historical bytes.
    if let Some(a) = &causal {
        report += &crate::causal::render_causal_section(&art, a);
    }
    let mut csv_out = Vec::new();
    if req.want_csv {
        let num_cpus = art.machine_config.num_cpus as usize;
        csv_out.push((format!("{tag}_fig3.csv"), csv::fig3_csv(&an)));
        csv_out.push((format!("{tag}_fig5.csv"), csv::fig5_csv(&an)));
        csv_out.push((
            format!("{tag}_fig6.csv"),
            csv::fig6_csv(&an.figure6_points(num_cpus)),
        ));
        csv_out.push((format!("{tag}_fig8.csv"), csv::fig8_csv(&an)));
        csv_out.push((format!("{tag}_fig9.csv"), csv::fig9_csv(&an)));
        csv_out.push((format!("{tag}_table12.csv"), csv::table12_csv(&art)));
    }
    let trace_blob = req.want_trace.then(|| {
        let mut buf = Vec::new();
        tracefile::save(&art, &mut buf).expect("serialize trace");
        (format!("{tag}.oscartrace"), buf)
    });
    phases.push(PhaseStats {
        id: format!("render/{tag}"),
        wall_s: started.elapsed().as_secs_f64(),
        ..PhaseStats::default()
    });

    ReportOutput {
        kind: req.config.workload,
        tag,
        report,
        csv: csv_out,
        trace_blob,
        phases,
        trace_records: art.trace_records,
        obs,
        provenance,
        hotlines,
        causal,
    }
}

/// Runs every request, fanning across up to `jobs` workers, and returns
/// the outputs in request order (byte-identical for any `jobs`).
pub fn run_reports(reqs: Vec<ReportRequest>, jobs: usize) -> Vec<ReportOutput> {
    run_reports_pooled(reqs, jobs).0
}

/// [`run_reports`] plus one `pool/worker/<w>` perf row per pool worker
/// (items claimed, busy wall clock, records/cycles tallied on the
/// worker's own padded counter cell). Wall-clock observability only —
/// the rows never enter the metrics export, and the outputs are the
/// byte-identical request-order list either way.
pub fn run_reports_pooled(
    reqs: Vec<ReportRequest>,
    jobs: usize,
) -> (Vec<ReportOutput>, Vec<PhaseStats>) {
    let (outputs, tallies) = parallel_map_tallied(
        reqs,
        jobs,
        |_, req| run_one(&req),
        |out: &ReportOutput| {
            let cycles = out
                .phases
                .iter()
                .filter(|p| p.id.starts_with("simulate+analyze/"))
                .map(|p| p.cycles)
                .sum();
            (out.trace_records, cycles)
        },
    );
    let rows = tallies
        .iter()
        .enumerate()
        .map(|(w, t)| PhaseStats {
            id: format!("pool/worker/{w}"),
            wall_s: t.busy_s,
            cycles: t.cycles,
            records: t.records,
            ..PhaseStats::default()
        })
        .collect();
    (outputs, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map(items.clone(), 1, |i, x| (i, x * x));
        let fanned = parallel_map(items, 4, |i, x| (i, x * x));
        assert_eq!(serial, fanned);
        assert_eq!(fanned.len(), 37);
        for (i, (idx, sq)) in fanned.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*sq, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn jobs_do_not_change_report_bytes() {
        let reqs: Vec<ReportRequest> = [WorkloadKind::Pmake, WorkloadKind::Multpgm]
            .iter()
            .map(|&k| ReportRequest::new(k, 2_500_000, 2_000_000))
            .collect();
        let serial = run_reports(reqs.clone(), 1);
        let fanned = run_reports(reqs, 2);
        assert_eq!(serial.len(), fanned.len());
        for (a, b) in serial.iter().zip(&fanned) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(
                a.report, b.report,
                "{:?} report must not depend on jobs",
                a.kind
            );
        }
    }
}
