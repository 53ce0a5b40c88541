//! Integration tests for the streaming trace pipeline and the parallel
//! experiment driver: the tentpole claims — streamed analysis is
//! byte-identical to the per-record analyzer, and `--jobs N` never
//! changes output bytes — verified end to end. The SIMD columnar row
//! filter is pinned against the scalar predicate the same way, and the
//! time-parallel epoch producer against the serial one.

use oscar_core::analyze::{AnalyzeOptions, StreamAnalyzer, TraceMeta};
use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::pipeline::{run_streaming, run_streaming_rows, StreamOptions};
use oscar_core::{
    merge_metrics_json, render_all, run, ExperimentConfig, RunArtifacts, TraceAnalysis,
};
use oscar_machine::monitor::RecordFilter;
use oscar_machine::BusKind;
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

/// Ragged chunk sizes exercise the SIMD kernels' tail lanes (partial
/// bitmap words) across every block boundary.
#[test]
fn streaming_is_identical_at_ragged_chunk_sizes() {
    let config = small(WorkloadKind::Multpgm);
    let art = run(&config);
    let oracle = render_all(&art, &analyze_per_record(&art));

    for chunk in [333, 777, 4096, 63] {
        let (sart, san) = run_streaming(
            &config,
            &StreamOptions {
                keep_trace: true,
                chunk_records: chunk,
                ..StreamOptions::default()
            },
        );
        assert_eq!(sart.trace, art.trace, "chunk {chunk}");
        assert_eq!(
            render_all(&sart, &san),
            oracle,
            "chunk {chunk}: report differs"
        );
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

/// The columnar row filter (SIMD pass bitmap) must admit exactly the
/// rows the scalar predicate admits, at ragged chunk sizes. The oracle
/// runs unfiltered and applies the predicate row by row.
#[test]
fn columnar_row_filter_matches_scalar_predicate() {
    let config = small(WorkloadKind::Pmake);
    let filter = RecordFilter {
        cpus: Some((1 << 0) | (1 << 2)),
        kinds: Some(
            RecordFilter::kind_bit(BusKind::Read) | RecordFilter::kind_bit(BusKind::WriteBack),
        ),
        addr: Some((0x10_0000, 0x60_0000)),
        time: Some((100_000, 2_000_000)),
    };

    let collect = |filter: Option<RecordFilter>, chunk: usize| {
        let rows = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink_rows = std::rc::Rc::clone(&rows);
        let opts = StreamOptions {
            chunk_records: chunk,
            ..StreamOptions::default()
        };
        run_streaming_rows(
            &config,
            &opts,
            filter,
            Box::new(move |r| {
                sink_rows
                    .borrow_mut()
                    .push((r.time, r.cpu, r.kind, r.paddr));
            }),
        );
        std::rc::Rc::try_unwrap(rows).unwrap().into_inner()
    };

    // Oracle: unfiltered rows, predicate applied scalar per row.
    let oracle: Vec<_> = collect(None, 4096)
        .into_iter()
        .filter(|&(time, cpu, kind, paddr)| {
            (cpu == 0 || cpu == 2)
                && matches!(kind, BusKind::Read | BusKind::WriteBack)
                && (0x10_0000..=0x60_0000).contains(&paddr)
                && (100_000..=2_000_000).contains(&time)
        })
        .collect();
    assert!(!oracle.is_empty(), "filter must admit some rows");

    for chunk in [63, 1000, 4096] {
        let got = collect(Some(filter), chunk);
        assert_eq!(got, oracle, "chunk {chunk}: filtered rows diverge");
    }
}
