//! The repository benchmark.
//!
//! ```text
//! perfbench --workload paper-warm|replay|scale16-dir --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- ...`.
//! It sets the workload up [`SETUP_REPEATS`] times, then repeats the
//! workload's end-to-end operation for `S` seconds and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones (times per operation over the run); with
//! `--trace 1` they are the per-layer ones of the traced run
//! ([`traced`]). The line before it is the host and revision
//! fingerprint. Scratch files live under `.perfbench_run/` in the
//! working directory and are removed before exit. `NOTES.md` explains
//! the workloads and metrics.

mod sys;
mod traced;
mod workloads;

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use workloads::{OpOutput, Ready, Workload};

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (paper-warm | replay | scale16-dir)")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// This run's scratch directory under `.perfbench_run/`, removed on
/// drop. Every run gets a fresh one, so no checkpoint cache outlives
/// the run that filled it.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = PathBuf::from(".perfbench_run").join(format!("{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
        // Removes the parent only when no other run is using it.
        if let Some(parent) = self.0.parent() {
            fs::remove_dir(parent).ok();
        }
    }
}

/// Operations attempted and failed, with the correctness checks that
/// decide failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation. It fails if its output differs from
    /// `reference` or from the `committed` digest, or if it reports
    /// undecodable escapes or checkpoint-cache misses.
    pub fn record(&mut self, op: &OpOutput, reference: Option<&[u8]>, committed: Option<&str>) {
        let mut why = Vec::new();
        if reference.is_some_and(|r| r != op.bytes.as_slice()) {
            why.push("output differs from the set-up reference".to_string());
        }
        if let Some(d) = committed {
            let got = sys::digest(&op.bytes);
            if got != d {
                why.push(format!(
                    "output digest {got} differs from the committed {d}"
                ));
            }
        }
        if let Some(n) = op.undecodable.filter(|&n| n > 0) {
            why.push(format!("{n} undecodable escapes"));
        }
        if let Some(n) = op.checkpoint_misses.filter(|&n| n > 0) {
            why.push(format!("{n} checkpoint misses: a cold run was measured"));
        }
        self.attempted += 1;
        if !why.is_empty() {
            self.failed += 1;
            eprintln!("FAILED operation: {}", why.join("; "));
        }
    }

    /// Counts one check made outside an operation; failing it counts as
    /// a failed operation.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED check: {what}");
        }
    }
}

/// Wall seconds, process CPU seconds and peak resident set of one
/// operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Runs `f`, measuring it from outside.
pub fn measure<T>(f: impl FnOnce() -> T) -> Result<(T, Sample), String> {
    sys::reset_peak_rss()?;
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let peak_rss_mb = sys::peak_rss_mb()?;
    Ok((
        out,
        Sample {
            wall_s,
            cpu_s,
            peak_rss_mb,
        },
    ))
}

/// The median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The result line: `metrics` as `(name, value, unit)`.
pub fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                sys::jstr(name),
                sys::jstr(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Repeats the operation's parts in turn until `seconds` have passed
/// and every part has run at least once, checking every output.
/// Returns each part's samples with its record count.
fn timed_loop(
    ready: &Ready,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Vec<Vec<(Sample, u64)>>, String> {
    // A whole operation's output is checked against the committed
    // digest here; a replay trace's output is checked against its part
    // of the reference, whose digest set-up checked.
    let committed = if ready.parts() == 1 {
        ready.committed()
    } else {
        None
    };
    let t0 = Instant::now();
    let mut parts = vec![Vec::new(); ready.parts()];
    for i in (0..ready.parts()).cycle() {
        let (op, s) = measure(|| ready.run_part(i))?;
        let op = op?;
        tally.record(&op, Some(ready.part_reference(i)), committed);
        eprintln!(
            "part {i} op {}: {:.3} s wall, {:.3} s cpu, {:.1} MB peak, {} records",
            parts[i].len(),
            s.wall_s,
            s.cpu_s,
            s.peak_rss_mb,
            op.records
        );
        parts[i].push((s, op.records));
        if t0.elapsed() >= Duration::from_secs(seconds) && parts.iter().all(|p| !p.is_empty()) {
            break;
        }
    }
    Ok(parts)
}

/// The end-to-end run: set-up, then timed operations. Times are each
/// part's mean over the run, summed over the parts (see `NOTES.md`);
/// `peak_rss_mb` is the largest of the parts' medians.
fn end_to_end(args: &Args, dir: &RunDir) -> Result<String, String> {
    let mut tally = Tally::default();
    let ready = workloads::setup(args.workload, args.seed, &dir.0, &mut tally)?;
    eprintln!(
        "set-up: {:?} s; reference digest {}",
        ready.setup_s,
        sys::digest(&ready.reference)
    );
    let parts = timed_loop(&ready, args.seconds, &mut tally)?;
    let per_op = |f: fn(&Sample) -> f64| -> f64 {
        parts
            .iter()
            .map(|p| p.iter().map(|(s, _)| f(s)).sum::<f64>() / p.len() as f64)
            .sum()
    };
    let wall_s = per_op(|s| s.wall_s);
    let records: u64 = parts.iter().map(|p| p[0].1).sum();
    let peak_rss_mb = parts
        .iter()
        .map(|p| median(&p.iter().map(|(s, _)| s.peak_rss_mb).collect::<Vec<_>>()))
        .fold(0.0, f64::max);
    Ok(result_line(
        &tally,
        &[
            ("wall_s", wall_s, "s"),
            ("records_per_s", records as f64 / wall_s, "1/s"),
            ("cpu_s", per_op(|s| s.cpu_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("setup_s", median(&ready.setup_s), "s"),
        ],
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let result = RunDir::create().and_then(|dir| {
        println!(
            "{}",
            sys::fingerprint(args.workload.name(), args.seed, args.trace)
        );
        if args.trace {
            traced::run(&args, &dir)
        } else {
            end_to_end(&args, &dir)
        }
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
