//! The three workloads: their set-up, and the end-to-end operation each
//! one times. Every operation calls the public entry `oscar-reports`
//! calls for the same command line, with the request built the way its
//! `main.rs` builds it; only the seed is the benchmark's own, passed
//! through [`ExperimentConfig::seed`].

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use oscar_core::driver::{run_reports, ReportOutput, ReportRequest};
use oscar_core::observe::{
    add_hotline_metrics, add_hotline_tracks, merge_hotlines_json, HotlineExport,
};
use oscar_core::{
    analyze_with, merge_causal_json, merge_metrics_json, obs_from_artifacts, render_all, tracefile,
    AnalyzeOptions, ExperimentConfig,
};
use oscar_machine::{Coherence, MachineConfig};
use oscar_workloads::WorkloadKind;

use crate::sys;
use crate::{Tally, SETUP_REPEATS};

/// Measured and warm-up window of the paper workloads, in cycles (the
/// CLI's default `45000000 45000000`).
pub const PAPER_WINDOW: u64 = 45_000_000;
/// Measured and warm-up window of the 16-CPU directory run.
pub const SCALE16_WINDOW: u64 = 30_000_000;
/// The CLI's default `--hotlines-top`.
pub const HOTLINES_TOP: usize = 50;
/// The seed `oscar-reports` runs with (`OsTuning::default().seed`); the
/// digests in `digests.txt` are for this seed.
pub const DEFAULT_SEED: u64 = 0x05ca_4d34;

/// `workload seed digest` lines: the output digest of each workload at
/// [`DEFAULT_SEED`].
const DIGESTS: &str = include_str!("../digests.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `all 45000000 45000000 --checkpoint-dir DIR`, with DIR warm.
    PaperWarm,
    /// `--from-trace FILE --hotlines-out H --metrics-out M` over the
    /// three paper traces.
    Replay,
    /// `oracle 30000000 30000000 --cpus 16 --coherence mesi-dir
    /// --hotlines-out H --causal-out C`, cold.
    Scale16Dir,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-warm" => Some(Workload::PaperWarm),
            "replay" => Some(Workload::Replay),
            "scale16-dir" => Some(Workload::Scale16Dir),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWarm => "paper-warm",
            Workload::Replay => "replay",
            Workload::Scale16Dir => "scale16-dir",
        }
    }

    /// The committed output digest for `seed`, if one is committed.
    pub fn committed_digest(self, seed: u64) -> Option<&'static str> {
        DIGESTS.lines().find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(self.name()) && f.next() == Some(&seed.to_string()))
                .then(|| f.next())
                .flatten()
        })
    }
}

/// One configuration per workload kind, as the CLI's machine flags
/// expand `KIND MEASURE WARMUP --cpus N --coherence C`.
fn configs(
    kinds: &[WorkloadKind],
    cpus: u8,
    coherence: Coherence,
    window: u64,
    seed: u64,
) -> Vec<ExperimentConfig> {
    kinds
        .iter()
        .map(|&kind| {
            let mut config = ExperimentConfig::new(kind)
                .warmup(window)
                .measure(window)
                .seed(seed);
            config.machine = MachineConfig::scaled(cpus);
            config.machine.coherence = coherence;
            config.scale_workload = cpus != 4;
            config
                .machine
                .validate()
                .expect("the benchmark's machines are valid");
            config
        })
        .collect()
}

/// The three paper runs on the default 4-CPU snoop machine.
pub fn paper_configs(seed: u64) -> Vec<ExperimentConfig> {
    configs(&WorkloadKind::ALL, 4, Coherence::Snoop, PAPER_WINDOW, seed)
}

/// The Oracle run on 16 CPUs with the directory backend.
pub fn scale16_configs(seed: u64) -> Vec<ExperimentConfig> {
    configs(
        &[WorkloadKind::Oracle],
        16,
        Coherence::MesiDir,
        SCALE16_WINDOW,
        seed,
    )
}

/// The CLI flags that shape a request.
#[derive(Default)]
struct Flags {
    checkpoint_dir: Option<PathBuf>,
    save_trace: bool,
    metrics_out: bool,
    hotlines_out: bool,
    causal_out: bool,
    perf_out: bool,
}

/// Requests as `report_main` builds them at `--jobs 1` with no
/// `--pipeline` or `--epoch-cycles`.
fn requests(configs: Vec<ExperimentConfig>, flags: &Flags) -> Vec<ReportRequest> {
    configs
        .into_iter()
        .map(|config| ReportRequest {
            config,
            want_csv: false,
            want_trace: flags.save_trace,
            want_obs: flags.metrics_out,
            want_provenance: false,
            want_hotlines: flags.hotlines_out,
            want_causal: flags.causal_out,
            hotlines_top: HOTLINES_TOP,
            epoch_cycles: 0,
            epoch_jobs: 1,
            checkpoint_dir: flags.checkpoint_dir.clone(),
            pipeline: 0,
            stage_stats: flags.perf_out,
        })
        .collect()
}

/// The streaming pipeline's stage rows, summed over a command's runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    pub produce_s: f64,
    pub produce_stall_s: f64,
    pub analyze_starve_s: f64,
}

/// What one operation produced.
#[derive(Default)]
pub struct OpOutput {
    /// Everything the command prints and writes, in order: each
    /// report as `println!` prints it, then each exported file.
    pub bytes: Vec<u8>,
    /// Monitor records analyzed.
    pub records: u64,
    /// Escape reads that failed to decode, where the operation exposes
    /// the count.
    pub undecodable: Option<u64>,
    /// Checkpoint-cache misses, where the operation can see them.
    pub checkpoint_misses: Option<u64>,
    /// Stage rows, when the run collected them.
    pub stages: Option<Stages>,
}

fn push_report(bytes: &mut Vec<u8>, report: &str) {
    bytes.extend_from_slice(report.as_bytes());
    bytes.push(b'\n');
}

fn write(path: &Path, data: &[u8]) -> Result<(), String> {
    fs::write(path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn counter(outs: &[ReportOutput], key: &str) -> Option<u64> {
    outs.iter()
        .map(|o| o.obs.as_ref().map(|obs| obs.metrics.counter(key)))
        .sum()
}

fn stages(outs: &[ReportOutput]) -> Option<Stages> {
    let mut s = Stages::default();
    let mut seen = false;
    for p in outs.iter().flat_map(|o| &o.phases) {
        if p.id.starts_with("stage/") && p.id.ends_with("/produce") {
            s.produce_s += p.wall_s;
            s.produce_stall_s += p.stall_s.unwrap_or(0.0);
            seen = true;
        } else if p.id.starts_with("stage/") && p.id.ends_with("/analyze") {
            s.analyze_starve_s += p.starve_s.unwrap_or(0.0);
        }
    }
    seen.then_some(s)
}

/// `oscar-reports all 45000000 45000000 --checkpoint-dir CKPT`, plus
/// `--metrics-out` when `metrics` (which exposes the analyzer's
/// undecodable count and the checkpoint counters) and `--perf-out` when
/// `perf` (stage rows).
pub fn paper_warm(seed: u64, ckpt: &Path, metrics: bool, perf: bool) -> OpOutput {
    let flags = Flags {
        checkpoint_dir: Some(ckpt.to_path_buf()),
        metrics_out: metrics,
        perf_out: perf,
        ..Flags::default()
    };
    let outs = run_reports(requests(paper_configs(seed), &flags), 1);
    let mut op = OpOutput {
        records: outs.iter().map(|o| o.trace_records).sum(),
        undecodable: counter(&outs, "analyze.undecodable"),
        checkpoint_misses: counter(&outs, "checkpoint.misses"),
        stages: stages(&outs),
        ..OpOutput::default()
    };
    for out in &outs {
        push_report(&mut op.bytes, &out.report);
    }
    op
}

/// `oscar-reports all 45000000 45000000 --save-trace DIR`: the three
/// paper traces, saved as the CLI saves them. Returns the trace files
/// in request order.
pub fn save_traces(seed: u64, dir: &Path) -> Result<Vec<PathBuf>, String> {
    let flags = Flags {
        save_trace: true,
        ..Flags::default()
    };
    let outs = run_reports(requests(paper_configs(seed), &flags), 1);
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for out in &outs {
        let (name, blob) = out
            .trace_blob
            .as_ref()
            .ok_or("a --save-trace run returned no trace")?;
        let path = dir.join(name);
        write(&path, blob)?;
        files.push(path);
    }
    Ok(files)
}

/// The analyzer options `emit_from_trace` uses with `--hotlines-out`
/// and without `--provenance-out`.
pub fn replay_options(hotlines: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        provenance: false,
        online_sweeps: false,
        hotlines,
        hotlines_top: HOTLINES_TOP,
        ..AnalyzeOptions::default()
    }
}

/// The hot-line export of a run, as the CLI grafts it.
pub fn hotline_export(
    an: &oscar_core::TraceAnalysis,
    art: &oscar_core::RunArtifacts,
) -> Option<Box<HotlineExport>> {
    an.hotlines.as_deref().map(|h| {
        Box::new(HotlineExport {
            analysis: h.clone(),
            invals_sent: art.interconnect.invals_sent,
            sharer_churn: art.interconnect.sharer_churn,
            window_cycles: an.window_cycles,
        })
    })
}

/// The `ReportOutput` `emit_from_trace` assembles for its exports.
pub fn replay_output(
    art: &oscar_core::RunArtifacts,
    obs: oscar_core::RunObs,
    hotlines: Option<Box<HotlineExport>>,
) -> ReportOutput {
    ReportOutput {
        kind: art.workload,
        tag: art.tag(),
        report: String::new(),
        csv: Vec::new(),
        trace_blob: None,
        phases: Vec::new(),
        trace_records: art.trace_records,
        obs: Some(Box::new(obs)),
        provenance: None,
        hotlines,
        causal: None,
    }
}

/// Writes the replay exports (`--metrics-out`, then `--hotlines-out`)
/// into `out_dir` and appends their bytes.
pub fn replay_exports(
    out: ReportOutput,
    out_dir: &Path,
    bytes: &mut Vec<u8>,
) -> Result<(), String> {
    let outs = [out];
    for (name, data) in [
        ("metrics.json", merge_metrics_json(&outs)),
        ("hotlines.json", merge_hotlines_json(&outs)),
    ] {
        write(&out_dir.join(name), data.as_bytes())?;
        bytes.extend_from_slice(data.as_bytes());
    }
    Ok(())
}

/// `oscar-reports --from-trace FILE --hotlines-out H --metrics-out M`
/// for each trace in turn, doing exactly what `emit_from_trace` does:
/// a plain `File` into `tracefile::load`, then [`replay_loaded`].
pub fn replay(traces: &[PathBuf], out_dir: &Path) -> Result<OpOutput, String> {
    let mut op = OpOutput {
        undecodable: Some(0),
        ..OpOutput::default()
    };
    for path in traces {
        let mut f =
            fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let art = tracefile::load(&mut f)
            .map_err(|e| format!("{} is not a readable oscar trace: {e}", path.display()))?;
        replay_loaded(&art, out_dir, &mut op)?;
    }
    Ok(op)
}

/// What `emit_from_trace` does with a loaded trace: `analyze_with`,
/// `render_all` and `obs_from_artifacts`, then the exports. Appends to
/// `op`.
fn replay_loaded(
    art: &oscar_core::RunArtifacts,
    out_dir: &Path,
    op: &mut OpOutput,
) -> Result<(), String> {
    let an = analyze_with(art, replay_options(true));
    push_report(&mut op.bytes, &render_all(art, &an));
    let mut obs = obs_from_artifacts(art, &an);
    let hotlines = hotline_export(&an, art);
    if let Some(h) = &hotlines {
        add_hotline_metrics(&mut obs.metrics, h);
        add_hotline_tracks(&mut obs.timeline, &art.tag(), h);
    }
    replay_exports(replay_output(art, obs, hotlines), out_dir, &mut op.bytes)?;
    op.records += art.trace.len() as u64;
    op.undecodable = op.undecodable.map(|u| u + an.undecodable);
    Ok(())
}

/// The reference replay: the traces read whole into memory and loaded
/// from there, then [`replay_loaded`]. It skips the timed path's
/// per-record `read` calls, so it is cheap, and it checks that path
/// against an independent load. Returns the output and the end of
/// each trace's bytes in it.
fn reference_replay(traces: &[PathBuf], out_dir: &Path) -> Result<(OpOutput, Vec<usize>), String> {
    let mut op = OpOutput {
        undecodable: Some(0),
        ..OpOutput::default()
    };
    let mut ends = Vec::new();
    for path in traces {
        let data = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let art = tracefile::load(&mut data.as_slice())
            .map_err(|e| format!("{} is not a readable oscar trace: {e}", path.display()))?;
        replay_loaded(&art, out_dir, &mut op)?;
        ends.push(op.bytes.len());
    }
    Ok((op, ends))
}

/// `oscar-reports oracle 30000000 30000000 --cpus 16 --coherence
/// mesi-dir --hotlines-out H --causal-out C`, plus `--perf-out` when
/// `perf`.
pub fn scale16(seed: u64, out_dir: &Path, perf: bool) -> Result<OpOutput, String> {
    let flags = Flags {
        hotlines_out: true,
        causal_out: true,
        perf_out: perf,
        ..Flags::default()
    };
    let outs = run_reports(requests(scale16_configs(seed), &flags), 1);
    let mut op = OpOutput {
        records: outs.iter().map(|o| o.trace_records).sum(),
        undecodable: counter(&outs, "analyze.undecodable"),
        stages: stages(&outs),
        ..OpOutput::default()
    };
    for out in &outs {
        push_report(&mut op.bytes, &out.report);
    }
    scale16_exports(&outs, out_dir, &mut op.bytes)?;
    Ok(op)
}

/// Writes scale16-dir's exports (`--hotlines-out`, then
/// `--causal-out`) into `out_dir` and appends their bytes.
pub fn scale16_exports(
    outs: &[ReportOutput],
    out_dir: &Path,
    bytes: &mut Vec<u8>,
) -> Result<(), String> {
    for (name, data) in [
        ("hotlines.json", merge_hotlines_json(outs)),
        ("causal.json", merge_causal_json(outs)),
    ] {
        write(&out_dir.join(name), data.as_bytes())?;
        bytes.extend_from_slice(data.as_bytes());
    }
    Ok(())
}

/// File names, sizes and modification times of a checkpoint directory:
/// a cache miss rewrites a snapshot, so a warm run leaves this
/// unchanged.
pub fn dir_state(dir: &Path) -> Vec<(String, u64, Option<SystemTime>)> {
    let mut v: Vec<_> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            Some((
                e.file_name().to_string_lossy().into_owned(),
                m.len(),
                m.modified().ok(),
            ))
        })
        .collect();
    v.sort();
    v
}

/// Flushes every file in `dir` to disk, so the write-back of set-up's
/// files does not run during the timed operations.
fn sync_files(dir: &Path) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("cannot flush {}: {e}", path.display()))?;
    }
    Ok(())
}

/// A workload after set-up: what its operations read, and the output
/// every operation must reproduce.
pub struct Ready {
    pub workload: Workload,
    pub seed: u64,
    /// The warm checkpoint cache (paper-warm).
    pub ckpt: PathBuf,
    /// The saved paper traces (replay).
    pub traces: Vec<PathBuf>,
    /// Where operations write their exports.
    pub out_dir: PathBuf,
    /// The set-up reference output for this seed.
    pub reference: Vec<u8>,
    /// Where each part's output ends in `reference` (see
    /// [`Ready::run_part`]).
    pub part_ends: Vec<usize>,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
}

/// Sets the workload up [`SETUP_REPEATS`] times, each into fresh directories
/// under `dir`, and keeps the last. Paper-warm fills a checkpoint cache
/// with a cold run, replay generates and saves the three traces, and
/// scale16-dir makes its cold reference run. The repetitions must agree
/// byte for byte. The reference output comes from the set-up runs
/// (paper-warm, scale16-dir) or from one untimed replay of the saved
/// traces loaded from memory (replay); paper-warm also makes one
/// untimed warm run with the metrics export on, which proves the cache
/// hits and the escapes decode. Untimed, the kept files are then
/// flushed to disk.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let mut setup_s = Vec::new();
    let mut outputs: Vec<(PathBuf, Vec<u8>)> = Vec::new();
    let mut traces = Vec::new();
    for r in 0..SETUP_REPEATS {
        let path = dir.join(format!("setup{r}"));
        let t = Instant::now();
        let bytes = match workload {
            Workload::PaperWarm => paper_warm(seed, &path, false, false).bytes,
            Workload::Replay => {
                traces = save_traces(seed, &path)?;
                Vec::new()
            }
            Workload::Scale16Dir => {
                fs::create_dir_all(&path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
                let op = scale16(seed, &path, false)?;
                tally.record(&op, None, None);
                op.bytes
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        // Replay's set-up output is the traces it saved.
        let bytes = match workload {
            Workload::Replay => traces
                .iter()
                .map(|f| {
                    fs::read(f)
                        .map(|data| sys::digest(&data))
                        .map_err(|e| format!("cannot read {}: {e}", f.display()))
                })
                .collect::<Result<String, String>>()?
                .into_bytes(),
            _ => bytes,
        };
        outputs.push((path, bytes));
    }
    let (kept, reference) = outputs.pop().expect("at least one set-up repetition");
    for (path, bytes) in outputs {
        tally.expect(
            bytes == reference,
            "set-up repetitions produced different outputs",
        );
        fs::remove_dir_all(&path).ok();
    }
    let out_dir = dir.join("out");
    fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut ready = Ready {
        workload,
        seed,
        ckpt: kept,
        traces,
        out_dir,
        part_ends: vec![reference.len()],
        reference,
        setup_s,
    };
    match workload {
        Workload::PaperWarm => {
            let op = paper_warm(seed, &ready.ckpt, true, false);
            tally.record(&op, Some(&ready.reference), ready.committed());
            sync_files(&ready.ckpt)?;
        }
        Workload::Replay => {
            let (op, ends) = reference_replay(&ready.traces, &ready.out_dir)?;
            ready.reference = op.bytes.clone();
            ready.part_ends = ends;
            tally.record(&op, None, ready.committed());
            // The traces sit in the kept set-up directory.
            sync_files(&ready.ckpt)?;
        }
        Workload::Scale16Dir => {
            tally.expect(
                ready
                    .committed()
                    .is_none_or(|d| d == sys::digest(&ready.reference)),
                "the reference output differs from the committed digest",
            );
        }
    }
    Ok(ready)
}

impl Ready {
    /// The committed digest this run's outputs must match, if any.
    pub fn committed(&self) -> Option<&'static str> {
        if self.seed != DEFAULT_SEED {
            return None;
        }
        Some(
            self.workload
                .committed_digest(self.seed)
                .unwrap_or("(none committed)"),
        )
    }

    /// One timed end-to-end operation (`perf`: with the stage rows of
    /// `--perf-out`).
    pub fn run_op(&self, perf: bool) -> Result<OpOutput, String> {
        match self.workload {
            Workload::PaperWarm => {
                let before = dir_state(&self.ckpt);
                let mut op = paper_warm(self.seed, &self.ckpt, false, perf);
                op.checkpoint_misses = Some(u64::from(dir_state(&self.ckpt) != before));
                Ok(op)
            }
            Workload::Replay => replay(&self.traces, &self.out_dir),
            Workload::Scale16Dir => scale16(self.seed, &self.out_dir, perf),
        }
    }

    /// How many parts the operation splits into: one command line
    /// each. Replay has one `--from-trace` per trace; the others are
    /// one command.
    pub fn parts(&self) -> usize {
        self.part_ends.len()
    }

    /// Part `i` of the operation, timed on its own. Its output must
    /// equal [`Ready::part_reference`]`(i)`.
    pub fn run_part(&self, i: usize) -> Result<OpOutput, String> {
        match self.workload {
            Workload::Replay => replay(&self.traces[i..=i], &self.out_dir),
            _ => self.run_op(false),
        }
    }

    /// The reference output of part `i`.
    pub fn part_reference(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.part_ends[i - 1] };
        &self.reference[start..self.part_ends[i]]
    }
}
