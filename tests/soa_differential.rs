//! Differential tests for the batched SoA hot path: the production
//! pipeline pushes records through the analyzer as structure-of-arrays
//! blocks (`StreamAnalyzer::push_block`), and this file pins it
//! byte-identical to the retained per-record reference path (`push`)
//! across every export surface the CLI has —
//! report text, `--metrics-out`, `--trace-json`, `query`,
//! `--provenance-out` — at `--jobs 1` and `--jobs 4`.

use oscar_core::analyze::{AnalyzeOptions, StreamAnalyzer, TraceMeta};
use oscar_core::driver::{run_reports, ReportRequest};
use oscar_core::observe::{merge_metrics_json, merge_provenance_json, merge_trace_json};
use oscar_core::query::run_query;
use oscar_core::{parallel_map, render_all, run, ExperimentConfig};
use oscar_machine::monitor::RecordBlock;
use oscar_obs::query::QuerySpec;
use oscar_workloads::WorkloadKind;

fn small(kind: WorkloadKind) -> ExperimentConfig {
    ExperimentConfig::new(kind)
        .warmup(2_000_000)
        .measure(2_500_000)
}

/// The per-record oracle: the materialized trace pushed through a fresh
/// analyzer one record at a time.
fn analyze_per_record(
    art: &oscar_core::RunArtifacts,
    opts: AnalyzeOptions,
) -> oscar_core::TraceAnalysis {
    let mut a = StreamAnalyzer::new(TraceMeta::of(art), opts);
    for &rec in &art.trace {
        a.push(rec);
    }
    a.finish()
}

/// Feeds a materialized trace through a fresh analyzer as SoA blocks of
/// `cap` records (the pipeline's production shape, at a deliberately
/// ragged capacity).
fn analyze_blocked(
    art: &oscar_core::RunArtifacts,
    opts: AnalyzeOptions,
    cap: usize,
) -> oscar_core::TraceAnalysis {
    let mut a = StreamAnalyzer::new(TraceMeta::of(art), opts);
    for recs in art.trace.chunks(cap) {
        let mut block = RecordBlock::with_capacity(recs.len());
        for &rec in recs {
            block.push(rec);
        }
        a.push_block(&block);
    }
    a.finish()
}

#[test]
fn block_path_matches_per_record_path_for_report_bytes() {
    for kind in [WorkloadKind::Pmake, WorkloadKind::Multpgm] {
        let art = run(&small(kind));
        // Reference: the retained per-record path.
        let reference = render_all(&art, &analyze_per_record(&art, AnalyzeOptions::default()));
        // Ragged block capacities so block boundaries land everywhere,
        // including mid-burst.
        for cap in [1usize, 777, 4096] {
            let an = analyze_blocked(&art, AnalyzeOptions::default(), cap);
            assert_eq!(
                render_all(&art, &an),
                reference,
                "{kind:?}: SoA blocks of {cap} must render the per-record report"
            );
        }
    }
}

#[test]
fn block_path_matches_per_record_path_for_chunked_reference() {
    // Online sweeps replay staged resim items per block; the per-record
    // path stages them all until `finish`. Both must land on the same
    // sweep points and report bytes.
    let art = run(&small(WorkloadKind::Pmake));
    let opts = AnalyzeOptions {
        online_sweeps: true,
        keep_streams: false,
        ..AnalyzeOptions::default()
    };
    let reference = analyze_per_record(&art, opts.clone());
    let an = analyze_blocked(&art, opts, 2048);
    assert_eq!(an.fig6, reference.fig6);
    assert_eq!(an.dcache, reference.dcache);
    assert_eq!(render_all(&art, &an), render_all(&art, &reference));
}

#[test]
fn exports_match_across_jobs_on_the_block_path() {
    // Every CLI export assembled at --jobs 1 and --jobs 4 over the
    // production (SoA) pipeline: report, --metrics-out, --trace-json,
    // --provenance-out must all be byte-identical.
    let reqs: Vec<ReportRequest> = [WorkloadKind::Pmake, WorkloadKind::Multpgm]
        .iter()
        .map(|&k| ReportRequest {
            config: small(k),
            want_csv: false,
            want_trace: false,
            want_obs: true,
            want_provenance: true,
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
    let fanned = run_reports(reqs, 4);
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.report, b.report, "{:?}: report differs", a.kind);
    }
    assert_eq!(merge_metrics_json(&serial), merge_metrics_json(&fanned));
    assert_eq!(merge_trace_json(&serial), merge_trace_json(&fanned));
    assert_eq!(
        merge_provenance_json(&serial),
        merge_provenance_json(&fanned)
    );
}

#[test]
fn provenance_metrics_are_identical_on_both_paths() {
    // Provenance accumulates per-record inside the analyzer, so it is
    // the export most sensitive to the block restructuring.
    let art = run(&small(WorkloadKind::Pmake));
    let opts = AnalyzeOptions {
        provenance: true,
        ..AnalyzeOptions::default()
    };
    let reference = analyze_per_record(&art, opts.clone());
    let blocked = analyze_blocked(&art, opts, 1024);
    let render = |an: &oscar_core::TraceAnalysis| {
        oscar_core::observe::provenance_metrics(an, None).to_json()
    };
    assert_eq!(render(&blocked), render(&reference));
}

#[test]
fn query_results_are_identical_on_block_path_across_jobs() {
    // `query` runs fresh simulations through the SoA pipeline; the
    // grouped histogram must not depend on --jobs (and
    // `pushdown_agrees_with_materialized_trace` pins it to the
    // materialized per-record trace).
    let configs: Vec<ExperimentConfig> =
        vec![small(WorkloadKind::Pmake), small(WorkloadKind::Multpgm)];
    let spec = QuerySpec::parse(
        "records",
        &["mode=os".to_string()],
        Some("cpu,kind"),
        None,
        None,
    )
    .expect("spec parses");
    let render = |jobs: usize| -> Vec<String> {
        parallel_map(configs.clone(), jobs, |_, c| {
            run_query(&c, &spec).unwrap().table.to_json()
        })
    };
    assert_eq!(render(1), render(4));
}
