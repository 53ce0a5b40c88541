//! The experiment driver: wires a machine, a kernel and a workload
//! together, runs the interleaving engine for a measured horizon, and
//! returns everything the paper's postprocessing needs — the monitor
//! trace plus the OS-side ground truth used for cross-validation.

use oscar_machine::addr::CpuId;
use oscar_machine::monitor::{BufferMode, BusRecord};
use oscar_machine::snap::{SnapError, SnapReader, SnapWriter, SNAP_FORMAT_VERSION};
use oscar_machine::{Coherence, CpuCounters, InterconnectStats, Machine, MachineConfig};
use oscar_os::{FamilyStats, Layout, LockFamily, OsStats, OsTuning, OsWorld};
use oscar_workloads::WorkloadKind;

/// Configuration of one measured run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Which workload to run.
    pub workload: WorkloadKind,
    /// Machine configuration (defaults to the 4D/340).
    pub machine: MachineConfig,
    /// Kernel tuning.
    pub tuning: OsTuning,
    /// Cycles run before the monitor is armed (cache/kernel warm-up;
    /// the paper also traces mid-workload).
    pub warmup_cycles: u64,
    /// Cycles traced after warm-up.
    pub measure_cycles: u64,
    /// Run the paper's network daemon pinned to CPU 1 (the trace-
    /// shipping perturbation the paper describes in Section 2.1).
    pub network_daemon: bool,
    /// Weak-scale the workload to the machine's CPU count
    /// ([`WorkloadKind::build_for`]) instead of running the paper's
    /// fixed 4-CPU mix. Off by default so existing exhibits are
    /// untouched; the scalability sweep (`oscar-reports --cpus`) turns
    /// it on. At four CPUs the scaled and fixed workloads are
    /// identical.
    pub scale_workload: bool,
}

impl ExperimentConfig {
    /// A configuration for `workload` with paper-default machine and
    /// kernel parameters and a short default horizon.
    pub fn new(workload: WorkloadKind) -> Self {
        ExperimentConfig {
            workload,
            machine: MachineConfig::sgi_4d340(),
            tuning: OsTuning::default(),
            warmup_cycles: 40_000_000,
            measure_cycles: 30_000_000,
            network_daemon: false,
            scale_workload: false,
        }
    }

    /// Enables the CPU-1 network daemon.
    pub fn with_network_daemon(mut self) -> Self {
        self.network_daemon = true;
        self
    }

    /// Overrides the workload randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.tuning.seed = seed;
        self
    }

    /// Overrides the measured horizon.
    pub fn measure(mut self, cycles: u64) -> Self {
        self.measure_cycles = cycles;
        self
    }

    /// Overrides the warm-up length.
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Overrides the number of CPUs (for the Figure 11 sweep).
    pub fn cpus(mut self, n: u8) -> Self {
        self.machine.num_cpus = n;
        self
    }

    /// Selects the coherence backend (snooping bus or directory/MESI).
    pub fn coherence(mut self, scheme: Coherence) -> Self {
        self.machine.coherence = scheme;
        self
    }

    /// Turns workload weak-scaling on or off (see
    /// [`ExperimentConfig::scale_workload`]).
    pub fn scaled_workload(mut self, on: bool) -> Self {
        self.scale_workload = on;
        self
    }

    /// Builds the workload this configuration runs: the paper's fixed
    /// mix, or — with [`ExperimentConfig::scale_workload`] — the mix
    /// weak-scaled to the machine's CPU count.
    pub fn build_workload(&self) -> oscar_workloads::Workload {
        if self.scale_workload {
            self.workload.build_for(self.machine.num_cpus)
        } else {
            self.workload.build()
        }
    }

    /// The run's file/metric tag: the plain lowercase workload label on
    /// the paper's default machine (so every historical golden file and
    /// CSV name is unchanged), suffixed with the CPU count and backend
    /// otherwise — `pmake`, `pmake-c8`, `pmake-c8-dir`.
    pub fn tag(&self) -> String {
        tag_for(self.workload, &self.machine, self.scale_workload)
    }

    /// A Section 6 cluster configuration: `num_cpus` CPUs in `clusters`
    /// clusters with an inter-cluster fill penalty, replicated OS text
    /// and distributed run queues.
    pub fn clustered(mut self, num_cpus: u8, clusters: u8, remote_extra: u64) -> Self {
        self.machine = oscar_machine::MachineConfig::clustered(num_cpus, clusters, remote_extra);
        self.tuning.clusters = clusters.max(1);
        self.tuning.replicate_os_text = true;
        self.tuning.distributed_runq = true;
        self
    }

    /// Same machine shape as [`ExperimentConfig::clustered`] but with
    /// the flat OS (single run queue, unreplicated text) — the baseline
    /// Section 6 argues against.
    pub fn clustered_machine_flat_os(
        mut self,
        num_cpus: u8,
        clusters: u8,
        remote_extra: u64,
    ) -> Self {
        self.machine = oscar_machine::MachineConfig::clustered(num_cpus, clusters, remote_extra);
        self.tuning.clusters = clusters.max(1);
        self.tuning.replicate_os_text = false;
        self.tuning.distributed_runq = false;
        self
    }
}

/// Computes the tag for a (workload, machine) pair; see
/// [`ExperimentConfig::tag`].
pub(crate) fn tag_for(workload: WorkloadKind, machine: &MachineConfig, scaled: bool) -> String {
    let base = workload.label().to_lowercase();
    if !scaled && *machine == MachineConfig::sgi_4d340() {
        return base;
    }
    let backend = match machine.coherence {
        Coherence::Snoop => "",
        Coherence::MesiDir => "-dir",
    };
    format!("{base}-c{}{backend}", machine.num_cpus)
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The monitor trace of the measured window. Empty when the run
    /// streamed its records to a [`oscar_machine::TraceSink`] instead
    /// of materializing them (see `trace_records` for the true count).
    pub trace: Vec<BusRecord>,
    /// Records the monitor saw during the measured window, whether
    /// buffered into `trace` or streamed to a sink.
    pub trace_records: u64,
    /// OS ground-truth statistics (measured window only; warm-up stats
    /// are subtracted where meaningful).
    pub os_stats: OsStats,
    /// Per-lock-family statistics (whole run; dominated by the measured
    /// window).
    pub lock_stats: Vec<(LockFamily, FamilyStats)>,
    /// Per-CPU machine counters.
    pub cpu_counters: Vec<CpuCounters>,
    /// The kernel symbol table, for the postprocessor.
    pub layout: Layout,
    /// The machine configuration used.
    pub machine_config: MachineConfig,
    /// First cycle of the measured window.
    pub measure_start: u64,
    /// Horizon cycle (end of the measured window).
    pub measure_end: u64,
    /// The workload that ran.
    pub workload: WorkloadKind,
    /// Observability payload (timeline, metrics, lock profiles),
    /// present when the run streamed with
    /// [`crate::pipeline::StreamOptions::observe`] on.
    pub obs: Option<Box<crate::observe::RunObs>>,
    /// Per-epoch timing rows (`pass1/<tag>`, `epoch/<tag>/<k>`) when
    /// the run used the time-parallel epoch engine
    /// ([`crate::pipeline::StreamOptions::epoch_cycles`]); empty
    /// otherwise. Wall-clock data, so it feeds the perf summary, never
    /// the metrics export.
    pub epoch_phases: Vec<crate::perf::PhaseStats>,
    /// Per-pipeline-stage timing rows (`stage/<name>`) when the run
    /// streamed with [`crate::pipeline::StreamOptions::stage_stats`]
    /// on: the producer and the analysis loop, each with
    /// busy/stall/starve seconds and channel-depth samples.
    /// Wall-clock data, so it feeds the perf summary, never the metrics
    /// export. Empty otherwise.
    pub stage_phases: Vec<crate::perf::PhaseStats>,
    /// Checkpoint-cache accounting, present when the run was given a
    /// [`crate::pipeline::StreamOptions::checkpoint_dir`].
    pub checkpoint: Option<crate::epoch::CheckpointStats>,
    /// Interconnect occupancy summary — bus arbitration or directory
    /// bank traffic, depending on the backend. Default-zero for
    /// artifacts rebuilt from a serialized trace (the trace holds
    /// records, not fabric counters).
    pub interconnect: InterconnectStats,
}

impl RunArtifacts {
    /// The run's file/metric tag (see [`ExperimentConfig::tag`]).
    /// Artifacts do not record whether the workload was weak-scaled;
    /// any non-default machine gets the suffixed form, which is what
    /// the sweep produces anyway.
    pub fn tag(&self) -> String {
        tag_for(self.workload, &self.machine_config, false)
    }

    /// Total remote (inter-cluster) fills across CPUs (cluster mode).
    pub fn remote_fills(&self) -> u64 {
        self.cpu_counters.iter().map(|c| c.remote_fills).sum()
    }

    /// Total fills across CPUs.
    pub fn total_fills(&self) -> u64 {
        self.cpu_counters
            .iter()
            .map(|c| c.ifetch_fills + c.data_fills)
            .sum()
    }

    /// Non-idle cycles over the measured window, from ground truth.
    pub fn non_idle_cycles(&self) -> u64 {
        self.os_stats.total_cycles().non_idle()
    }

    /// Lock statistics for one family.
    pub fn lock_family(&self, family: LockFamily) -> Option<&FamilyStats> {
        self.lock_stats
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, s)| s)
    }
}

/// Runs one experiment to completion.
///
/// The run is fully deterministic for a given configuration.
pub fn run(config: &ExperimentConfig) -> RunArtifacts {
    run_with(config, config.build_workload())
}

/// Runs an experiment with an explicitly built workload (for variants
/// outside [`WorkloadKind`], such as the standard-sized Oracle
/// database). The `workload` field of `config` still labels the run.
pub fn run_with(config: &ExperimentConfig, workload: oscar_workloads::Workload) -> RunArtifacts {
    let mut prep = PreparedRun::new(config, workload);
    prep.warmup();
    prep.measure();
    prep.finish()
}

/// An experiment split into its phases — construction, warm-up,
/// measurement, artifact collection — so callers can intervene between
/// them. The streaming pipeline uses this to attach a
/// [`oscar_machine::TraceSink`] to the monitor after warm-up, diverting
/// the measured window's records to the analyzer as they are produced.
///
/// [`run_with`] is exactly `new` → `warmup` → `measure` → `finish`;
/// anything inserted between the phases that does not touch the machine
/// or the OS (such as a sink attachment) leaves the run byte-identical.
pub struct PreparedRun {
    /// The simulated machine; `machine.monitor_mut()` is where a sink
    /// attaches.
    pub machine: Machine,
    /// The kernel and its processes.
    pub os: OsWorld,
    pub(crate) config: ExperimentConfig,
    pub(crate) warm_stats: Option<OsStats>,
    pub(crate) measure_start: u64,
}

/// Leading magic of a serialized [`PreparedRun`] snapshot.
const PREP_MAGIC: u32 = 0x4f53_4352; // "OSCR"

impl PreparedRun {
    /// Wires machine, kernel and workload together (monitor armed but
    /// nothing recorded until [`PreparedRun::measure`]).
    pub fn new(config: &ExperimentConfig, workload: oscar_workloads::Workload) -> Self {
        let mut machine = Machine::with_buffer(config.machine.clone(), BufferMode::Unbounded);
        let mut os = OsWorld::new(
            config.machine.num_cpus,
            config.machine.memory_bytes,
            config.tuning.clone(),
        );
        os.init_page_homes(&mut machine);
        for task in workload.tasks {
            os.spawn_initial(task);
        }
        if config.network_daemon && config.machine.num_cpus > 1 {
            os.spawn_initial_pinned(
                Box::new(oscar_workloads::NetDaemon::default()),
                oscar_machine::addr::CpuId(1),
            );
        }
        PreparedRun {
            machine,
            os,
            config: config.clone(),
            warm_stats: None,
            measure_start: 0,
        }
    }

    /// Runs the warm-up phase with the monitor disarmed and snapshots
    /// the ground-truth statistics. Returns the first cycle of the
    /// measured window.
    pub fn warmup(&mut self) -> u64 {
        self.machine.monitor_mut().set_enabled(false);
        run_until(&mut self.machine, &mut self.os, self.config.warmup_cycles);
        self.measure_start = (0..self.config.machine.num_cpus)
            .map(|c| self.machine.now(CpuId(c)))
            .max()
            .unwrap_or(0);
        self.warm_stats = Some(self.os.stats().clone());
        self.measure_start
    }

    /// Arms the monitor and runs the measured window.
    pub fn measure(&mut self) {
        assert!(self.warm_stats.is_some(), "measure requires warmup first");
        self.machine.monitor_mut().set_enabled(true);
        self.os.emit_trace_start(&mut self.machine);
        let horizon = self.measure_start + self.config.measure_cycles;
        run_until(&mut self.machine, &mut self.os, horizon);
        self.machine.monitor_mut().set_enabled(false);
    }

    /// First cycle of the measured window (0 until
    /// [`PreparedRun::warmup`] has run or a snapshot was restored).
    pub fn measure_start(&self) -> u64 {
        self.measure_start
    }

    /// Serializes the whole run state — machine, kernel, warm-up
    /// statistics and window cursor — so the run can be resumed
    /// bit-exactly by [`PreparedRun::restore_snapshot`]. The monitor
    /// must have no sink attached (snapshots freeze state, not live
    /// channels).
    pub fn save_snapshot(&self, w: &mut SnapWriter) {
        w.u32(PREP_MAGIC);
        w.u32(SNAP_FORMAT_VERSION);
        self.machine.save_snapshot(w);
        self.os.save_snapshot(w);
        match &self.warm_stats {
            Some(stats) => {
                w.bool(true);
                stats.save(w);
            }
            None => w.bool(false),
        }
        w.u64(self.measure_start);
    }

    /// Reconstructs a run from [`PreparedRun::save_snapshot`] bytes.
    /// `config` must be the configuration the snapshot was taken under
    /// (constructor-derived state — layouts, latencies, tuning — is
    /// rebuilt from it, not stored); restoring under a different
    /// configuration yields an error or a divergent run.
    pub fn restore_snapshot(
        config: &ExperimentConfig,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        if r.u32()? != PREP_MAGIC {
            return Err(SnapError::Corrupt("prepared-run magic"));
        }
        if r.u32()? != SNAP_FORMAT_VERSION {
            return Err(SnapError::Corrupt("snapshot format version"));
        }
        let machine = Machine::restore_snapshot(config.machine.clone(), BufferMode::Unbounded, r)?;
        let os = OsWorld::restore_snapshot(
            config.machine.num_cpus,
            config.machine.memory_bytes,
            config.tuning.clone(),
            oscar_workloads::task_factory(),
            r,
        )?;
        let warm_stats = if r.bool()? {
            let mut stats = OsStats::new(config.machine.num_cpus as usize);
            stats.load(r)?;
            Some(stats)
        } else {
            None
        };
        let measure_start = r.u64()?;
        Ok(PreparedRun {
            machine,
            os,
            config: config.clone(),
            warm_stats,
            measure_start,
        })
    }

    /// Collects the run's artifacts. If a sink consumed the trace, the
    /// returned `trace` is empty but `trace_records` still counts every
    /// monitored record.
    pub fn finish(mut self) -> RunArtifacts {
        let warm = self.warm_stats.expect("finish requires warmup first");
        let os_stats = diff_stats(self.os.stats(), &warm);
        let lock_stats = self.os.locks().iter_stats().map(|(f, s)| (f, *s)).collect();
        let cpu_counters = (0..self.config.machine.num_cpus)
            .map(|c| *self.machine.counters(CpuId(c)))
            .collect();
        self.machine.monitor_mut().clear_sink();
        RunArtifacts {
            interconnect: self.machine.interconnect(),
            trace_records: self.machine.monitor().total_seen(),
            trace: self.machine.monitor_mut().dump(),
            os_stats,
            lock_stats,
            cpu_counters,
            layout: self.os.layout().clone(),
            machine_config: self.config.machine.clone(),
            measure_start: self.measure_start,
            measure_end: self.measure_start + self.config.measure_cycles,
            workload: self.config.workload,
            obs: None,
            epoch_phases: Vec::new(),
            stage_phases: Vec::new(),
            checkpoint: None,
        }
    }
}

/// Advances the system until every CPU clock passes `horizon` (or the
/// workload fully drains). Returns `false` once the workload has
/// drained. The loop is memoryless over (machine, os) state, so
/// chained calls at increasing horizons reproduce a single longer call
/// exactly — the property the epoch engine rests on.
pub(crate) fn run_until(machine: &mut Machine, os: &mut OsWorld, horizon: u64) -> bool {
    loop {
        let cpu = machine.earliest_cpu();
        if machine.now(cpu) >= horizon {
            return true;
        }
        if !os.step(machine, cpu) {
            return false;
        }
    }
}

/// Ground-truth deltas over the measured window.
fn diff_stats(total: &OsStats, warm: &OsStats) -> OsStats {
    let mut d = total.clone();
    for (i, w) in warm.cycles.iter().enumerate() {
        d.cycles[i].user -= w.user;
        d.cycles[i].kernel -= w.kernel;
        d.cycles[i].idle -= w.idle;
    }
    d.kernel_misses.instr -= warm.kernel_misses.instr;
    d.kernel_misses.data -= warm.kernel_misses.data;
    d.user_misses.instr -= warm.user_misses.instr;
    d.user_misses.data -= warm.user_misses.data;
    d.idle_misses.instr -= warm.idle_misses.instr;
    d.idle_misses.data -= warm.idle_misses.data;
    for i in 0..d.ops.len() {
        d.ops[i] -= warm.ops[i];
    }
    d.utlb_faults -= warm.utlb_faults;
    d.dispatches -= warm.dispatches;
    d.migrations -= warm.migrations;
    d.escape_reads -= warm.escape_reads;
    d.escape_cycles -= warm.escape_cycles;
    d.forks -= warm.forks;
    d.execs -= warm.execs;
    d.exits -= warm.exits;
    d.buffer_hits -= warm.buffer_hits;
    d.buffer_misses -= warm.buffer_misses;
    d.disk_reads -= warm.disk_reads;
    d.disk_writes -= warm.disk_writes;
    d.demand_zero -= warm.demand_zero;
    d.cow_copies -= warm.cow_copies;
    d.pageouts -= warm.pageouts;
    d.icache_flushes -= warm.icache_flushes;
    d.clock_interrupts -= warm.clock_interrupts;
    d.disk_interrupts -= warm.disk_interrupts;
    d.ipis -= warm.ipis;
    d.readaheads -= warm.readaheads;
    d.sginap_calls -= warm.sginap_calls;
    for k in 0..2 {
        for s in 0..3 {
            d.block_ops[k][s].count -= warm.block_ops[k][s].count;
            d.block_ops[k][s].bytes -= warm.block_ops[k][s].bytes;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: WorkloadKind) -> ExperimentConfig {
        ExperimentConfig::new(workload)
            .warmup(200_000)
            .measure(1_500_000)
    }

    fn warmed(workload: WorkloadKind) -> ExperimentConfig {
        // Long enough for the workloads to reach steady state (the
        // Oracle master's 560 KB image exec alone takes several million
        // cycles of cold disk reads).
        ExperimentConfig::new(workload)
            .warmup(55_000_000)
            .measure(8_000_000)
    }

    #[test]
    fn pmake_runs_and_traces() {
        let art = run(&tiny(WorkloadKind::Pmake));
        assert!(!art.trace.is_empty(), "trace must not be empty");
        assert!(art.os_stats.total_cycles().total() > 0);
        assert!(art.os_stats.ops_of(oscar_os::OpClass::IoSyscall) > 0);
        // Trace is time-ordered.
        for w in art.trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&tiny(WorkloadKind::Pmake));
        let b = run(&tiny(WorkloadKind::Pmake));
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.os_stats.dispatches, b.os_stats.dispatches);
        assert_eq!(
            a.os_stats.kernel_misses.total(),
            b.os_stats.kernel_misses.total()
        );
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn multpgm_exercises_sginap() {
        let art = run(&warmed(WorkloadKind::Multpgm));
        assert!(
            art.os_stats.ops_of(oscar_os::OpClass::Sginap) > 0 || art.os_stats.sginap_calls > 0,
            "user lock contention must trigger sginap"
        );
    }

    #[test]
    fn oracle_exercises_positional_io() {
        let art = run(&warmed(WorkloadKind::Oracle));
        assert!(art.os_stats.disk_writes > 0, "redo log must hit the disk");
        assert!(art.os_stats.ops_of(oscar_os::OpClass::IoSyscall) > 0);
    }
}
