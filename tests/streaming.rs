//! Integration tests for the streaming trace pipeline and the parallel
//! experiment driver: the tentpole claims — streamed analysis is
//! byte-identical to the per-record analyzer, and `--jobs N` never
//! changes output bytes — verified end to end. The SWAR columnar row
//! filter is pinned against the scalar predicate the same way, and the
//! time-parallel epoch producer against the serial one.

use oscar_core::analyze::{AnalyzeOptions, StreamAnalyzer, TraceMeta};
use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::pipeline::{run_streaming, run_streaming_rows, StreamOptions};
use oscar_core::{
    merge_metrics_json, render_all, run, ExperimentConfig, RunArtifacts, TraceAnalysis,
};
use oscar_obs::MetricValue;
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(2_500_000)
}

/// The per-record oracle: the materialized trace pushed through the
/// analyzer one record at a time.
fn analyze_per_record(art: &RunArtifacts) -> TraceAnalysis {
    let mut a = StreamAnalyzer::new(TraceMeta::of(art), AnalyzeOptions::default());
    for &rec in &art.trace {
        a.push(rec);
    }
    a.finish()
}

#[test]
fn streamed_pipeline_matches_batch_for_each_workload() {
    for kind in [WorkloadKind::Pmake, WorkloadKind::Multpgm] {
        let config = small(kind);
        let art = run(&config);
        let oracle = render_all(&art, &analyze_per_record(&art));

        let (sart, san) = run_streaming(
            &config,
            &StreamOptions {
                keep_trace: true,
                chunk_records: 777, // force ragged chunk boundaries
                ..StreamOptions::default()
            },
        );
        assert_eq!(sart.trace, art.trace, "{kind:?}: streamed trace differs");
        assert_eq!(sart.trace_records, art.trace_records);
        assert_eq!(
            render_all(&sart, &san),
            oracle,
            "{kind:?}: streamed report differs from the per-record analyzer"
        );
    }
}

/// Ragged chunk sizes exercise the SWAR kernel's tail lanes (partial
/// bitmap words) across every block boundary, and the chunk sink must
/// honour the requested size exactly: `ceil(records / chunk)` chunks,
/// none larger than `chunk`, whatever cadence the monitor (1024-record
/// blocks) or the epoch feeder (single records) delivers at.
#[test]
fn streaming_is_identical_at_ragged_chunk_sizes() {
    let config = small(WorkloadKind::Multpgm);
    let art = run(&config);
    let oracle = render_all(&art, &analyze_per_record(&art));
    let records = art.trace.len() as u64;

    let runs = [(63, 0), (333, 0), (777, 0), (4096, 0), (333, 700_000)];
    for (chunk, epoch_cycles) in runs {
        let (sart, san) = run_streaming(
            &config,
            &StreamOptions {
                keep_trace: true,
                observe: true,
                chunk_records: chunk,
                epoch_cycles,
                epoch_jobs: 2,
                ..StreamOptions::default()
            },
        );
        let label = format!("chunk {chunk}, epoch_cycles {epoch_cycles}");
        assert_eq!(sart.trace, art.trace, "{label}");
        assert_eq!(render_all(&sart, &san), oracle, "{label}: report differs");
        let metrics = &sart.obs.as_ref().expect("observe is on").metrics;
        assert_eq!(metrics.counter("pipeline.records"), records, "{label}");
        assert_eq!(
            metrics.counter("pipeline.chunks"),
            records.div_ceil(chunk as u64),
            "{label}: chunk count"
        );
        match metrics.get("pipeline.chunk_size") {
            Some(MetricValue::Hist(h)) => {
                assert_eq!(h.max(), chunk as u64, "{label}: largest chunk");
            }
            other => panic!("{label}: pipeline.chunk_size is {other:?}"),
        }
    }
}

#[test]
fn streaming_without_keep_trace_bounds_memory_but_not_results() {
    let config = small(WorkloadKind::Pmake);
    let art = run(&config);
    let an = analyze_per_record(&art);

    let (sart, san) = run_streaming(&config, &StreamOptions::default());
    // Nothing materialized...
    assert!(sart.trace.is_empty());
    assert!(san.istream.is_empty() && san.dstream.is_empty());
    // ...yet the record count and the report text are the batch ones.
    assert_eq!(sart.trace_records, art.trace.len() as u64);
    assert_eq!(render_all(&sart, &san), render_all(&art, &an));
}

#[test]
fn report_driver_output_is_independent_of_jobs() {
    let reqs: Vec<ReportRequest> = [
        WorkloadKind::Pmake,
        WorkloadKind::Multpgm,
        WorkloadKind::Oracle,
    ]
    .iter()
    .map(|&k| ReportRequest {
        config: small(k),
        want_csv: true,
        want_trace: true,
        want_obs: false,
        want_provenance: false,
        want_hotlines: false,
        want_causal: false,
        hotlines_top: 50,
        epoch_cycles: 0,
        epoch_jobs: 1,
        checkpoint_dir: None,
        pipeline: 0,
        stage_stats: false,
    })
    .collect();

    let serial = run_reports(reqs.clone(), 1);
    let fanned = run_reports(reqs, 3);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.kind, b.kind, "request order must be preserved");
        assert_eq!(a.report, b.report, "{:?}: report bytes differ", a.kind);
        assert_eq!(a.csv, b.csv, "{:?}: csv bytes differ", a.kind);
        assert_eq!(
            a.trace_blob, b.trace_blob,
            "{:?}: trace bytes differ",
            a.kind
        );
        assert_eq!(a.trace_records, b.trace_records);
    }
    // The driver timed both phases of every request.
    for out in &serial {
        assert_eq!(out.phases.len(), 2);
        assert!(out.phases[0].records > 0);
    }
}

/// Stage stats compose with `--epoch-cycles`: the time-parallel
/// producer feeding the analysis thread still yields the serial bytes,
/// and the run reports exactly one produce and one analyze stage row.
#[test]
fn stage_stats_compose_with_epoch_cycles() {
    let kind = WorkloadKind::Pmake;
    let req = |epoch_cycles, epoch_jobs, stage_stats| ReportRequest {
        config: small(kind),
        want_obs: true,
        epoch_cycles,
        epoch_jobs,
        stage_stats,
        ..ReportRequest::new(kind, 0, 0)
    };
    let base = run_reports(vec![req(0, 1, false)], 1);
    let out = run_reports(vec![req(600_000, 2, true)], 1);
    assert_eq!(out[0].report, base[0].report, "epoch: report");
    assert_eq!(
        merge_metrics_json(&out),
        merge_metrics_json(&base),
        "epoch: metrics export"
    );
    // Both engines reported their wall-clock rows: epoch re-executions
    // and per-stage occupancy.
    assert!(out[0].phases.iter().any(|p| p.id.starts_with("epoch/")));
    let stage_ids: Vec<&str> = out[0]
        .phases
        .iter()
        .filter(|p| p.id.starts_with("stage/"))
        .map(|p| p.id.as_str())
        .collect();
    assert_eq!(stage_ids, ["stage/pmake/produce", "stage/pmake/analyze"]);
}

/// The row sink sees every record exactly once, in trace order, with
/// its window-relative time, at ragged chunk sizes; query predicates
/// run on these rows.
#[test]
fn row_sink_sees_every_record_at_any_chunk_size() {
    let config = small(WorkloadKind::Pmake);
    let collect = |chunk: usize| {
        let rows = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink_rows = std::rc::Rc::clone(&rows);
        let opts = StreamOptions {
            chunk_records: chunk,
            keep_trace: true,
            ..StreamOptions::default()
        };
        let (art, _an) = run_streaming_rows(
            &config,
            &opts,
            Box::new(move |r| {
                sink_rows
                    .borrow_mut()
                    .push((r.time, r.cpu, r.kind, r.paddr));
            }),
        );
        let rows = std::rc::Rc::try_unwrap(rows).unwrap().into_inner();
        (art, rows)
    };

    // Oracle: the materialized trace, rebased the way the analyzer
    // rebases.
    let (art, rows) = collect(4096);
    let oracle: Vec<_> = art
        .trace
        .iter()
        .map(|r| {
            (
                r.time.saturating_sub(art.measure_start),
                r.cpu.0,
                r.kind,
                r.paddr.raw(),
            )
        })
        .collect();
    assert!(!oracle.is_empty());
    assert_eq!(rows, oracle, "rows must be 1:1 with trace records");
    for chunk in [63, 1000] {
        assert_eq!(collect(chunk).1, oracle, "chunk {chunk}: rows diverge");
    }
}
