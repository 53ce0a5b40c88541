//! The batched SoA hot path against the retained per-record path: the
//! same materialized pmake trace pushed through the analyzer as
//! 4096-record SoA blocks (`push_block`, the analyzer's production
//! path) versus one record at a time (`push`, the differential
//! reference), plus the raw staging cost of the monitor's
//! [`RecordBlock`] columns.

use oscar_bench::{black_box, Harness};

use oscar_core::analyze::{AnalyzeOptions, StreamAnalyzer, TraceMeta};
use oscar_core::pipeline::{run_streaming, StreamOptions};
use oscar_core::{run, ExperimentConfig};
use oscar_machine::monitor::{RecordBlock, RecordFilter};
use oscar_machine::{BlockSelector, BusKind};
use oscar_workloads::WorkloadKind;

const CHUNK: usize = 4096;

fn main() {
    let mut h = Harness::new("soa_micro");

    let art = run(&ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(45_000_000)
        .measure(12_000_000));
    let meta = TraceMeta::of(&art);
    let opts = AnalyzeOptions {
        online_sweeps: true,
        keep_streams: false,
        ..AnalyzeOptions::default()
    };
    println!(
        "soa: pmake 12M-cycle window, {} records, {}-record chunks",
        art.trace.len(),
        CHUNK
    );

    // Pre-stage the SoA blocks once; the pipeline's ChunkSink does this
    // incrementally at monitor-flush cadence.
    let blocks: Vec<RecordBlock> = art
        .trace
        .chunks(CHUNK)
        .map(|recs| {
            let mut b = RecordBlock::with_capacity(recs.len());
            for &rec in recs {
                b.push(rec);
            }
            b
        })
        .collect();

    h.bench("soa/stage_block_4096", || {
        let mut b = RecordBlock::with_capacity(CHUNK);
        for &rec in &art.trace[..CHUNK] {
            b.push(rec);
        }
        black_box(b.len())
    });

    h.bench("soa/analyze_per_record", || {
        let mut a = StreamAnalyzer::new(meta.clone(), opts.clone());
        for &rec in &art.trace {
            a.push(black_box(rec));
        }
        black_box(a.finish().os.total())
    });

    h.bench("soa/analyze_block", || {
        let mut a = StreamAnalyzer::new(meta.clone(), opts.clone());
        for b in &blocks {
            a.push_block(b);
        }
        black_box(a.finish().os.total())
    });

    // The columnar predicate-pushdown kernel the query row path runs:
    // kind/cpu bitmaps vectorized, addr/time refined only on set lanes.
    let filter = RecordFilter {
        cpus: Some(0b0101),
        kinds: Some(
            RecordFilter::kind_bit(BusKind::Read) | RecordFilter::kind_bit(BusKind::Upgrade),
        ),
        addr: Some((0, 8 << 20)),
        time: None,
    };
    let mut sel = BlockSelector::new(filter);
    h.bench("soa/filter_select_block", || {
        let mut kept = 0usize;
        for b in &blocks {
            kept += black_box(sel.select(b, 0))
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
        }
        black_box(kept)
    });

    // Stage-occupancy point: one simulate+analyze run; its stage rows
    // (below) show how the time splits between producer and analyzer.
    let cfg = ExperimentConfig::new(WorkloadKind::Pmake)
        .warmup(2_000_000)
        .measure(6_000_000);
    h.bench("soa/stream_serial", || {
        let (a, _) = run_streaming(&cfg, &StreamOptions::default());
        black_box(a.trace_records)
    });
    {
        let (a, _) = run_streaming(
            &cfg,
            &StreamOptions {
                stage_stats: true,
                ..StreamOptions::default()
            },
        );
        for p in &a.stage_phases {
            let blocked = p.stall_s.unwrap_or(0.0) + p.starve_s.unwrap_or(0.0);
            let occ = if p.wall_s > 0.0 {
                1.0 - blocked / p.wall_s
            } else {
                0.0
            };
            println!(
                "stage {:<18} wall {:>8.4}s occupancy {:>5.1}%",
                p.id,
                p.wall_s,
                occ * 100.0
            );
        }
    }

    h.finish();
}
