//! Trace persistence: save a monitor trace (plus the metadata the
//! postprocessor needs) to a compact binary file and load it back.
//!
//! The paper's setup ships trace segments to a remote machine for
//! offline postprocessing; this module is that offline path. A saved
//! trace carries everything [`crate::analyze()`] requires — the records,
//! the machine configuration essentials, the kernel layout recipe and
//! the measured window — so analysis can run later, elsewhere, or
//! repeatedly without re-simulation. OS-side ground-truth counters are
//! *not* stored (the real monitor never had them either).

use std::io::{self, Read, Write};

use oscar_machine::addr::{CpuId, PAddr};
use oscar_machine::monitor::BusRecord;
use oscar_machine::{BusKind, MachineConfig};
use oscar_os::{Layout, OsStats, Rid};
use oscar_workloads::WorkloadKind;

use crate::experiment::RunArtifacts;

// TR2: each record carries a sub-block offset byte after the address.
const MAGIC: &[u8; 8] = b"OSCARTR2";

fn kind_code(k: BusKind) -> u8 {
    match k {
        BusKind::Read => 0,
        BusKind::ReadEx => 1,
        BusKind::Upgrade => 2,
        BusKind::WriteBack => 3,
        BusKind::UncachedRead => 4,
    }
}

fn kind_from(code: u8) -> io::Result<BusKind> {
    Ok(match code {
        0 => BusKind::Read,
        1 => BusKind::ReadEx,
        2 => BusKind::Upgrade,
        3 => BusKind::WriteBack,
        4 => BusKind::UncachedRead,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad record kind {other}"),
            ))
        }
    })
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a header count stored as `u64` that must fit a `u8`.
fn read_u8_field(r: &mut impl Read, name: &str) -> io::Result<u8> {
    let v = read_u64(r)?;
    u8::try_from(v).map_err(|_| invalid(format!("{name} {v} out of range")))
}

fn workload_code(w: WorkloadKind) -> u64 {
    match w {
        WorkloadKind::Pmake => 0,
        WorkloadKind::Multpgm => 1,
        WorkloadKind::Oracle => 2,
    }
}

fn workload_from(code: u64) -> io::Result<WorkloadKind> {
    Ok(match code {
        0 => WorkloadKind::Pmake,
        1 => WorkloadKind::Multpgm,
        2 => WorkloadKind::Oracle,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad workload code {other}"),
            ))
        }
    })
}

/// Saves a run's trace and analysis metadata.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn save(art: &RunArtifacts, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u64(w, art.machine_config.num_cpus as u64)?;
    write_u64(w, art.machine_config.clusters as u64)?;
    write_u64(w, art.machine_config.remote_fill_extra)?;
    write_u64(w, art.machine_config.memory_bytes)?;
    write_u64(w, art.layout.replicas() as u64)?;
    write_u64(w, art.measure_start)?;
    write_u64(w, art.measure_end)?;
    write_u64(w, workload_code(art.workload))?;
    // Layout recipe: the routine link order as u16 indices into Rid::ALL.
    let order = art.layout.order();
    write_u64(w, order.len() as u64)?;
    for rid in order {
        let idx = Rid::ALL
            .iter()
            .position(|r| r == rid)
            .expect("order contains only known routines") as u16;
        w.write_all(&idx.to_le_bytes())?;
    }
    write_u64(w, art.trace.len() as u64)?;
    for rec in &art.trace {
        write_u64(w, rec.time)?;
        w.write_all(&[rec.cpu.0, kind_code(rec.kind)])?;
        write_u64(w, rec.paddr.raw())?;
        w.write_all(&[rec.sub])?;
    }
    Ok(())
}

/// Loads a saved trace back into analyzable [`RunArtifacts`].
///
/// The returned artifacts carry *empty* OS ground-truth and lock
/// statistics (the monitor never sees those); everything
/// [`crate::analyze()`] needs is present.
///
/// # Errors
///
/// Returns `InvalidData` for malformed files and propagates reader
/// errors. A file whose machine header fails
/// [`MachineConfig::validate`], or whose CPU count disagrees with its
/// records, is malformed: a record may not name a CPU beyond the
/// header's count, and every counted CPU must issue at least one
/// record (the trace-start state dump emits a pid escape on every CPU).
pub fn load(r: &mut impl Read) -> io::Result<RunArtifacts> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let num_cpus = read_u8_field(r, "cpu count")?;
    let clusters = read_u8_field(r, "cluster count")?;
    let remote_fill_extra = read_u64(r)?;
    let memory_bytes = read_u64(r)?;
    let replicas = read_u8_field(r, "replica count")?;
    let mut machine_config = MachineConfig::sgi_4d340();
    machine_config.num_cpus = num_cpus;
    machine_config.clusters = clusters.max(1);
    machine_config.remote_fill_extra = remote_fill_extra;
    machine_config.memory_bytes = memory_bytes;
    machine_config
        .validate()
        .map_err(|e| invalid(format!("bad machine header: {e}")))?;
    let measure_start = read_u64(r)?;
    let measure_end = read_u64(r)?;
    let workload = workload_from(read_u64(r)?)?;
    let order_len = read_u64(r)? as usize;
    if order_len != Rid::ALL.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "layout order length mismatch (incompatible kernel version)",
        ));
    }
    let mut order = Vec::with_capacity(order_len);
    for _ in 0..order_len {
        let mut b = [0u8; 2];
        r.read_exact(&mut b)?;
        let idx = u16::from_le_bytes(b) as usize;
        let rid = *Rid::ALL.get(idx).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad routine index {idx}"),
            )
        })?;
        order.push(rid);
    }
    let n = read_u64(r)? as usize;
    let mut trace = Vec::with_capacity(n.min(1 << 24));
    let mut seen = [false; 256];
    for _ in 0..n {
        let time = read_u64(r)?;
        let mut b = [0u8; 2];
        r.read_exact(&mut b)?;
        if b[0] >= num_cpus {
            return Err(invalid(format!(
                "record from cpu {} in a {num_cpus}-cpu trace",
                b[0]
            )));
        }
        seen[b[0] as usize] = true;
        let kind = kind_from(b[1])?;
        let paddr = PAddr::new(read_u64(r)?);
        let mut s = [0u8; 1];
        r.read_exact(&mut s)?;
        trace.push(BusRecord {
            time,
            cpu: CpuId(b[0]),
            paddr,
            kind,
            sub: s[0],
        });
    }
    if let Some(cpu) = (0..num_cpus).find(|&c| !seen[c as usize]) {
        return Err(invalid(format!(
            "header declares {num_cpus} cpus but cpu {cpu} issues no record"
        )));
    }
    let layout = Layout::with_order_and_replicas(memory_bytes, order, replicas.max(1));
    Ok(RunArtifacts {
        trace_records: trace.len() as u64,
        trace,
        os_stats: OsStats::new(num_cpus as usize),
        lock_stats: Vec::new(),
        cpu_counters: Vec::new(),
        layout,
        machine_config,
        measure_start,
        measure_end,
        workload,
        obs: None,
        epoch_phases: Vec::new(),
        stage_phases: Vec::new(),
        checkpoint: None,
        interconnect: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::experiment::{run, ExperimentConfig};

    #[test]
    fn roundtrip_preserves_trace_and_analysis() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(2_000_000)
            .measure(3_000_000));
        let mut buf = Vec::new();
        save(&art, &mut buf).expect("save");
        let loaded = load(&mut buf.as_slice()).expect("load");
        assert_eq!(loaded.trace.len(), art.trace.len());
        assert_eq!(loaded.trace, art.trace);
        assert_eq!(loaded.measure_start, art.measure_start);
        assert_eq!(loaded.workload, art.workload);
        // The offline analysis equals the online one.
        let a = analyze(&art);
        let b = analyze(&loaded);
        assert_eq!(a.os.total(), b.os.total());
        assert_eq!(a.app.total(), b.app.total());
        assert_eq!(a.invocations.count, b.invocations.count);
        assert_eq!(a.undecodable, 0);
        assert_eq!(b.undecodable, 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(&mut &b"not a trace"[..]).is_err());
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert!(load(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn file_size_is_compact() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(1_000_000)
            .measure(1_000_000));
        let mut buf = Vec::new();
        save(&art, &mut buf).expect("save");
        // 19 bytes per record plus a small header.
        assert!(buf.len() < art.trace.len() * 19 + 1024);
    }

    /// A 4-CPU trace whose header CPU count is patched: too few CPUs
    /// for its records, too many for its records, a count that fails
    /// machine validation, and one that does not fit the `u8` field.
    #[test]
    fn rejects_cpu_count_that_disagrees_with_the_records() {
        let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
            .warmup(1_000_000)
            .measure(1_000_000));
        let mut buf = Vec::new();
        save(&art, &mut buf).expect("save");
        assert!(load(&mut buf.as_slice()).is_ok());
        for cpus in [2u64, 200, 0, 260] {
            let mut bad = buf.clone();
            bad[8..16].copy_from_slice(&cpus.to_le_bytes());
            let err = load(&mut bad.as_slice()).expect_err("patched cpu count must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{cpus} cpus: {err}");
        }
    }
}
