//! Compiling and running [`QuerySpec`]s against the simulator: the
//! engine behind `oscar-reports query`.
//!
//! The spec language and the aggregation state live in dependency-free
//! `oscar-obs` ([`oscar_obs::query`]); this module supplies the rows and
//! the one execution path over them. Each source declares one static
//! table with an entry per field: its name, how its `--where` values
//! parse, whether and how it groups, whether `sum:`/`hist:` may read it,
//! and its projection from the source's row. [`compile`] checks a spec
//! against that table up front (so a typo fails fast, before any
//! simulation runs), and one fold runs every predicate once on the row
//! the source already produces, then builds the group key, reads the
//! value and feeds a [`GroupTable`].
//!
//! The rows are the analyzer's enriched [`QueryRow`] per monitor record
//! (streamed out of the analysis thread, so memory stays O(groups)
//! however long the trace), the kernel probes' [`LockSpan`]s rebased to
//! the measured window, the hot-line exhibit's [`HotlineRow`]s, and the
//! causal profiler's [`WaitEdge`]s paired with their lock names. The
//! whole path inherits the simulator's determinism: the same spec
//! renders byte-identical JSON for any `--jobs`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use oscar_obs::query::{parse_num, Agg, Filter, GroupTable, QuerySource, QuerySpec};
use oscar_obs::WaitEdge;
use oscar_os::{KernelRegion, LockFamily, LockPhase, LockSpan, Mode, OpClass};

use crate::analyze::QueryRow;
use crate::classify::ArchClass;
use crate::experiment::ExperimentConfig;
use crate::hotline::HotlineRow;
use crate::pipeline::{run_streaming, run_streaming_rows, StreamOptions};

const KINDS: [&str; 5] = ["read", "readex", "upgrade", "writeback", "escape"];
const MODES: [&str; 3] = ["os", "user", "idle"];
const FETCHES: [&str; 2] = ["instr", "data"];
const CLASSES: [&str; 6] = [
    "cold",
    "disp_os",
    "disp_os_same",
    "disp_ap",
    "sharing",
    "inval",
];
const PHASES: [&str; 2] = ["spin", "hold"];
const BOOLS: [&str; 2] = ["true", "false"];

/// Every kernel region, in declaration order (the enum has no `ALL`
/// const of its own).
const REGIONS: [KernelRegion; 17] = [
    KernelRegion::Text,
    KernelRegion::ProcTable,
    KernelRegion::Pfdat,
    KernelRegion::BufHeaders,
    KernelRegion::InodeTable,
    KernelRegion::RunQueue,
    KernelRegion::FreePgBuck,
    KernelRegion::Callout,
    KernelRegion::MiscData,
    KernelRegion::PageTables,
    KernelRegion::KernelStack,
    KernelRegion::Pcb,
    KernelRegion::Eframe,
    KernelRegion::URest,
    KernelRegion::BufData,
    KernelRegion::PipeBuf,
    KernelRegion::FramePool,
];

/// A vocabulary: label `i`, or `None` past the end.
type Labels = fn(usize) -> Option<&'static str>;

/// One field's value on one row.
#[derive(Clone, Copy)]
enum Cell<'r> {
    Num(u64),
    /// The vocabulary bits the row satisfies, and its group label.
    /// Bits 0 (the field does not apply to this row) match no
    /// predicate and group as `-`.
    Sym(u64, &'static str),
    Str(&'r str),
}

/// The [`Cell::Sym`] of vocabulary entry `i`.
fn sym(i: usize, label: &'static str) -> Cell<'static> {
    Cell::Sym(1 << i, label)
}

/// A field that does not apply to the row.
const NONE: Cell<'static> = Cell::Sym(0, "-");

/// A boolean as a two-entry vocabulary over [`BOOLS`], grouping under
/// the field's own labels.
fn flag(b: bool, yes: &'static str, no: &'static str) -> Cell<'static> {
    if b {
        sym(0, yes)
    } else {
        sym(1, no)
    }
}

/// The [`CLASSES`] bits a class satisfies, and its (most specific)
/// label. A same-epoch OS displacement is still an OS displacement, so
/// it matches both `disp_os` and `disp_os_same`.
fn class_cell(c: ArchClass) -> Cell<'static> {
    match c {
        ArchClass::Cold => sym(0, "cold"),
        ArchClass::DispOs { same_epoch: false } => sym(1, "disp_os"),
        ArchClass::DispOs { same_epoch: true } => Cell::Sym(2 | 4, "disp_os_same"),
        ArchClass::DispAp => sym(3, "disp_ap"),
        ArchClass::Sharing => sym(4, "sharing"),
        ArchClass::Inval => sym(5, "inval"),
    }
}

/// How a field's `--where` values parse and whether it groups.
enum Kind {
    /// A number: a value list or an inclusive range. Groups as
    /// `{prefix}{n}` under `Some(prefix)`; `None` marks a continuous
    /// field, which cannot group.
    Num(Option<&'static str>),
    /// A closed vocabulary, values ORed into a bitmask.
    Vocab(Labels),
    /// Strings matched by prefix (`--where lock=Ino` admits every
    /// instance).
    Prefix,
    /// Strings matched exactly.
    Exact,
    /// Exactly one of `true`, `false`.
    Bool,
}

/// One entry of a source's field table.
struct Field<R> {
    name: &'static str,
    kind: Kind,
    /// Whether `sum:`/`hist:` may read it.
    value: bool,
    get: fn(&R) -> Cell<'_>,
}

impl<R> Field<R> {
    const fn new(name: &'static str, kind: Kind, value: bool, get: fn(&R) -> Cell<'_>) -> Self {
        Field {
            name,
            kind,
            value,
            get,
        }
    }
}

/// A row source: its field table, in error-message order, and the
/// value-field list its aggregation error quotes.
struct Source<R: 'static> {
    fields: &'static [Field<R>],
    values: &'static str,
}

#[rustfmt::skip]
static RECORDS: Source<QueryRow> = Source {
    values: "time|addr",
    fields: &[
        Field::new("cpu", Kind::Num(Some("cpu")), false, |r| Cell::Num(r.cpu.into())),
        Field::new("kind", Kind::Vocab(|i| KINDS.get(i).copied()), false, |r| {
            let i = r.kind.code() as usize;
            sym(i, KINDS[i])
        }),
        Field::new("mode", Kind::Vocab(|i| MODES.get(i).copied()), false, |r| match r.mode {
            Mode::Kernel => sym(0, "os"),
            Mode::User => sym(1, "user"),
            Mode::Idle => sym(2, "idle"),
        }),
        Field::new("fetch", Kind::Vocab(|i| FETCHES.get(i).copied()), false, |r| {
            if r.instr { sym(0, "instr") } else { sym(1, "data") }
        }),
        Field::new("class", Kind::Vocab(|i| CLASSES.get(i).copied()), false, |r| {
            r.class.map_or(NONE, class_cell)
        }),
        Field::new("op", Kind::Vocab(|i| OpClass::ALL.get(i).map(|o| o.label())), false, |r| {
            r.op.map_or(NONE, |o| sym(o.code() as usize, o.label()))
        }),
        Field::new("region", Kind::Vocab(|i| REGIONS.get(i).map(|g| g.label())), false, |r| {
            r.region.map_or(NONE, |g| sym(g as usize, g.label()))
        }),
        Field::new("time", Kind::Num(None), true, |r| Cell::Num(r.time)),
        Field::new("addr", Kind::Num(None), true, |r| Cell::Num(r.paddr)),
    ],
};

/// Rows are spans rebased to the measured window (see [`run_compiled`]).
#[rustfmt::skip]
static LOCKS: Source<LockSpan> = Source {
    values: "dur|start",
    fields: &[
        Field::new("family", Kind::Vocab(|i| LockFamily::ALL.get(i).map(|f| f.label())), false, |s| {
            sym(s.lock.family as usize, s.lock.family.label())
        }),
        Field::new("instance", Kind::Num(Some("i")), false, |s| Cell::Num(s.lock.instance.into())),
        Field::new("cpu", Kind::Num(Some("cpu")), false, |s| Cell::Num(s.cpu.index() as u64)),
        Field::new("phase", Kind::Vocab(|i| PHASES.get(i).copied()), false, |s| match s.phase {
            LockPhase::Spin => sym(0, "spin"),
            LockPhase::Hold => sym(1, "hold"),
        }),
        Field::new("start", Kind::Num(None), true, |s| Cell::Num(s.start)),
        Field::new("dur", Kind::Num(None), true, |s| Cell::Num(s.end - s.start)),
    ],
};

#[rustfmt::skip]
static HOTLINES: Source<HotlineRow> = Source {
    values: "misses|invals|churn|sharers|score",
    fields: &[
        Field::new("symbol", Kind::Prefix, false, |h| Cell::Str(&h.symbol)),
        Field::new("region", Kind::Vocab(|i| REGIONS.get(i).map(|g| g.label())), false, |h| {
            sym(h.region as usize, h.region.label())
        }),
        Field::new("false_sharing", Kind::Bool, false, |h| {
            flag(h.false_sharing, "false_sharing", "true_sharing")
        }),
        Field::new("sharers", Kind::Num(None), true, |h| Cell::Num(h.sharers.into())),
        Field::new("misses", Kind::Num(None), true, |h| Cell::Num(h.total_misses())),
        Field::new("invals", Kind::Num(None), true, |h| Cell::Num(h.invals)),
        Field::new("churn", Kind::Num(None), true, |h| Cell::Num(h.churn)),
        Field::new("upgrades", Kind::Num(None), false, |h| Cell::Num(h.upgrades)),
        Field::new("score", Kind::Num(None), true, |h| Cell::Num(h.score)),
        Field::new("addr", Kind::Num(None), false, |h| Cell::Num(h.paddr)),
    ],
};

/// Rows are wait-for edges paired with their lock's name.
#[rustfmt::skip]
static WAITS: Source<(WaitEdge, String)> = Source {
    values: "duration",
    fields: &[
        Field::new("waiter", Kind::Num(Some("cpu")), false, |(e, _)| Cell::Num(e.waiter as u64)),
        Field::new("holder", Kind::Num(Some("cpu")), false, |(e, _)| Cell::Num(e.holder as u64)),
        Field::new("lock", Kind::Prefix, false, |(_, lock)| Cell::Str(lock)),
        Field::new("duration", Kind::Num(None), true, |(e, _)| Cell::Num(e.duration())),
        Field::new("holder_op", Kind::Exact, false, |(e, _)| Cell::Str(&e.holder_op)),
        Field::new("truncated", Kind::Bool, false, |(e, _)| {
            flag(e.truncated, "truncated", "complete")
        }),
    ],
};

/// Resolves `value` in a vocabulary to its index, or lists the
/// vocabulary in the error.
fn lookup(field: &str, value: &str, labels: Labels) -> Result<usize, String> {
    let all = || (0..).map_while(labels);
    all().position(|l| l == value).ok_or_else(|| {
        let all: Vec<&str> = all().collect();
        format!("unknown {field} `{value}` (one of: {})", all.join(", "))
    })
}

/// One compiled `--where` predicate.
#[derive(Debug, Clone)]
enum Test {
    Range(u64, u64),
    Nums(Vec<u64>),
    /// Matches rows whose [`Cell::Sym`] bits meet the mask.
    Mask(u64),
    Prefix(Vec<String>),
    Exact(Vec<String>),
}

impl Test {
    fn compile(kind: &Kind, f: &Filter) -> Result<Test, String> {
        let field = f.field();
        let values = match (kind, f) {
            (Kind::Num(_), Filter::Range { lo, hi, .. }) => return Ok(Test::Range(*lo, *hi)),
            (_, Filter::Range { .. }) => {
                return Err(format!("--where {field}: takes a value list, not a range"))
            }
            (_, Filter::OneOf { values, .. }) => values,
        };
        Ok(match kind {
            Kind::Num(_) => Test::Nums(
                values
                    .iter()
                    .map(|v| parse_num(v).map_err(|e| format!("--where {field}: {e}")))
                    .collect::<Result<_, _>>()?,
            ),
            Kind::Vocab(labels) => {
                let mut mask = 0;
                for v in values {
                    mask |= 1 << lookup(field, v, *labels)?;
                }
                Test::Mask(mask)
            }
            Kind::Prefix => Test::Prefix(values.clone()),
            Kind::Exact => Test::Exact(values.clone()),
            Kind::Bool if values.len() != 1 => {
                return Err(format!("--where {field}: needs exactly one of true, false"))
            }
            Kind::Bool => Test::Mask(1 << lookup(field, &values[0], |i| BOOLS.get(i).copied())?),
        })
    }

    fn matches(&self, cell: Cell<'_>) -> bool {
        match (self, cell) {
            (Test::Range(lo, hi), Cell::Num(n)) => (*lo..=*hi).contains(&n),
            (Test::Nums(set), Cell::Num(n)) => set.contains(&n),
            (Test::Mask(mask), Cell::Sym(bits, _)) => mask & bits != 0,
            (Test::Prefix(ps), Cell::Str(s)) => ps.iter().any(|p| s.starts_with(p.as_str())),
            (Test::Exact(xs), Cell::Str(s)) => xs.iter().any(|x| x == s),
            // Each kind compiles to the tests of its own cell type.
            _ => false,
        }
    }
}

/// A [`QuerySpec`] validated against its source's field table: the
/// predicates, group-key fields and value field as table indices.
/// Compile once (fail fast on typos), then run against any number of
/// configurations.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    source: QuerySource,
    agg: Agg,
    top: Option<usize>,
    /// Conjunction: repeated filters on a field intersect.
    preds: Vec<(usize, Test)>,
    group: Vec<usize>,
    value: Option<usize>,
}

/// Validates `spec` against its source's field and value vocabulary and
/// builds the execution plan. No simulation runs here.
pub fn compile(spec: &QuerySpec) -> Result<CompiledQuery, String> {
    match spec.source {
        QuerySource::Records => RECORDS.compile(spec),
        QuerySource::Locks => LOCKS.compile(spec),
        QuerySource::Hotlines => HOTLINES.compile(spec),
        QuerySource::Waits => WAITS.compile(spec),
    }
}

impl<R> Source<R> {
    fn field(&self, source: QuerySource, name: &str) -> Result<(usize, &Field<R>), String> {
        self.fields
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .ok_or_else(|| {
                let all: Vec<&str> = self.fields.iter().map(|f| f.name).collect();
                format!(
                    "unknown {} field `{name}` (one of: {})",
                    source.label(),
                    all.join(", ")
                )
            })
    }

    fn compile(&self, spec: &QuerySpec) -> Result<CompiledQuery, String> {
        let source = spec.source;
        let mut preds = Vec::new();
        for f in &spec.filters {
            let (i, field) = self.field(source, f.field())?;
            preds.push((i, Test::compile(&field.kind, f)?));
        }
        let mut group = Vec::new();
        for g in &spec.group_by {
            let (i, field) = self.field(source, g)?;
            if matches!(field.kind, Kind::Num(None)) {
                return Err(format!("cannot group by continuous field `{g}`"));
            }
            group.push(i);
        }
        let value = match spec.agg.value_field() {
            None => None,
            Some(v) => Some(
                self.fields
                    .iter()
                    .position(|f| f.value && f.name == v)
                    .ok_or_else(|| {
                        format!(
                            "{} aggregation needs value field {}, not `{v}`",
                            source.label(),
                            self.values
                        )
                    })?,
            ),
        };
        Ok(CompiledQuery {
            source,
            agg: spec.agg.clone(),
            top: spec.top,
            preds,
            group,
            value,
        })
    }
}

/// The one fold: a row that passes every predicate lands in its group
/// with its value.
struct Fold<R: 'static> {
    fields: &'static [Field<R>],
    query: CompiledQuery,
    table: GroupTable,
    key: String,
}

impl<R> Fold<R> {
    fn new(source: &'static Source<R>, query: &CompiledQuery) -> Self {
        Fold {
            fields: source.fields,
            query: query.clone(),
            table: GroupTable::new(query.agg.clone()).with_top(query.top),
            key: String::new(),
        }
    }

    fn row(&mut self, row: &R) {
        let cell = |i: usize| (self.fields[i].get)(row);
        if !self.query.preds.iter().all(|(i, t)| t.matches(cell(*i))) {
            return;
        }
        self.key.clear();
        for (n, &i) in self.query.group.iter().enumerate() {
            if n > 0 {
                self.key.push(' ');
            }
            match cell(i) {
                Cell::Num(v) => {
                    let prefix = match self.fields[i].kind {
                        Kind::Num(Some(p)) => p,
                        _ => "",
                    };
                    let _ = write!(self.key, "{prefix}{v}");
                }
                Cell::Sym(_, label) => self.key.push_str(label),
                Cell::Str(s) => self.key.push_str(s),
            }
        }
        if self.query.group.is_empty() {
            self.key.push_str("all");
        }
        let v = match self.query.value.map(cell) {
            Some(Cell::Num(v)) => v,
            _ => 0,
        };
        self.table.accept(&self.key, v);
    }

    fn all<'a>(mut self, rows: impl IntoIterator<Item = &'a R>) -> GroupTable {
        for r in rows {
            self.row(r);
        }
        self.table
    }
}

/// The result of one query over one run.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The aggregated groups.
    pub table: GroupTable,
    /// Monitor records the run produced — the row universe of the
    /// `records` source (a query with no filters matches exactly this
    /// many rows).
    pub trace_records: u64,
}

/// Runs `spec` against a fresh simulation of `config` and returns the
/// aggregated table. The `records` source folds rows as the analyzer
/// produces them (peak memory independent of trace length); the other
/// sources fold the run's lock spans, hot lines or wait-for edges.
pub fn run_query(config: &ExperimentConfig, spec: &QuerySpec) -> Result<QueryRun, String> {
    let compiled = compile(spec)?;
    run_compiled(config, &compiled)
}

/// [`run_query`] for an already-[`compile`]d query (so a multi-workload
/// driver validates once, before the first simulation).
pub fn run_compiled(config: &ExperimentConfig, query: &CompiledQuery) -> Result<QueryRun, String> {
    let mut opts = StreamOptions {
        online_sweeps: false,
        ..StreamOptions::default()
    };
    let (trace_records, table) = match query.source {
        QuerySource::Records => {
            let fold = Rc::new(RefCell::new(Fold::new(&RECORDS, query)));
            let sink = Rc::clone(&fold);
            let (art, _an) = run_streaming_rows(
                config,
                &opts,
                Box::new(move |row| sink.borrow_mut().row(row)),
            );
            let Ok(fold) = Rc::try_unwrap(fold) else {
                panic!("row sink must be dropped with the analyzer");
            };
            (art.trace_records, fold.into_inner().table)
        }
        QuerySource::Locks => {
            opts.observe = true;
            let (art, _an) = run_streaming(config, &opts);
            // `start` reads window-relative; `dur` stays end - start.
            let spans: Vec<LockSpan> = art
                .obs
                .iter()
                .flat_map(|o| &o.lock_spans)
                .map(|s| {
                    let start = s.start.saturating_sub(art.measure_start);
                    LockSpan {
                        start,
                        end: start + s.end.saturating_sub(s.start),
                        ..*s
                    }
                })
                .collect();
            (art.trace_records, Fold::new(&LOCKS, query).all(&spans))
        }
        QuerySource::Hotlines => {
            // Every shared line is a row, not just the export's top-K:
            // aggregations must see the full population.
            opts.hotlines = true;
            opts.hotlines_top = usize::MAX;
            let (art, an) = run_streaming(config, &opts);
            let rows = an.hotlines.iter().flat_map(|h| &h.top);
            (art.trace_records, Fold::new(&HOTLINES, query).all(rows))
        }
        QuerySource::Waits => {
            opts.observe = true;
            let (mut art, _an) = run_streaming(config, &opts);
            let obs = art.obs.take();
            let (edges, locks) = match obs.as_deref() {
                Some(o) => crate::causal::wait_edges_for_run(&art, o),
                None => (Vec::new(), Vec::new()),
            };
            let rows: Vec<(WaitEdge, String)> = edges
                .into_iter()
                .map(|e| {
                    let name = locks.get(e.lock as usize).map_or("-", String::as_str);
                    (e, name.to_string())
                })
                .collect();
            (art.trace_records, Fold::new(&WAITS, query).all(&rows))
        }
    };
    Ok(QueryRun {
        table,
        trace_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_machine::BusKind;

    fn spec(
        source: &str,
        wheres: &[&str],
        by: Option<&str>,
        agg: Option<&str>,
    ) -> Result<QuerySpec, String> {
        let ws: Vec<String> = wheres.iter().map(|s| s.to_string()).collect();
        QuerySpec::parse(source, &ws, by, agg, None)
    }

    fn row(time: u64, cpu: u8, class: Option<ArchClass>) -> QueryRow {
        QueryRow {
            time,
            cpu,
            kind: BusKind::Read,
            paddr: 0x1000,
            mode: Mode::Kernel,
            instr: false,
            class,
            op: None,
            region: None,
        }
    }

    /// Folds `rows` through a compiled records query.
    fn fold_records(wheres: &[&str], by: Option<&str>, rows: &[QueryRow]) -> GroupTable {
        let q = compile(&spec("records", wheres, by, None).unwrap()).unwrap();
        Fold::new(&RECORDS, &q).all(rows)
    }

    #[test]
    fn compile_validates_fields_and_values() {
        assert!(compile(&spec("records", &["cpu=0,2"], Some("kind,class"), None).unwrap()).is_ok());
        assert!(compile(&spec("records", &["bogus=1"], None, None).unwrap())
            .unwrap_err()
            .contains("unknown records field"));
        assert!(
            compile(&spec("records", &["class=warm"], None, None).unwrap())
                .unwrap_err()
                .contains("unknown class")
        );
        assert!(
            compile(&spec("records", &["kind=1..2"], None, None).unwrap())
                .unwrap_err()
                .contains("value list")
        );
        assert!(
            compile(&spec("locks", &["family=Nosuch"], None, None).unwrap())
                .unwrap_err()
                .contains("unknown family")
        );
    }

    #[test]
    fn compile_rejects_bad_grouping_and_values() {
        assert!(compile(&spec("records", &[], Some("time"), None).unwrap())
            .unwrap_err()
            .contains("continuous"));
        assert!(
            compile(&spec("records", &[], None, Some("sum:dur")).unwrap())
                .unwrap_err()
                .contains("time|addr")
        );
        assert!(
            compile(&spec("locks", &[], None, Some("hist:addr")).unwrap())
                .unwrap_err()
                .contains("dur|start")
        );
        assert!(
            compile(&spec("locks", &[], Some("family,phase"), Some("hist:dur")).unwrap()).is_ok()
        );
    }

    #[test]
    fn repeated_range_filters_intersect() {
        let rows: Vec<QueryRow> = (0..10).map(|i| row(i * 100, 0, None)).collect();
        let t = fold_records(&["time=100..500", "time=300..900"], None, &rows);
        assert_eq!(t.matched(), 3, "300, 400 and 500 pass both ranges");
        // Value lists intersect with ranges the same way.
        let t = fold_records(&["time=200,400,600", "time=300..900"], None, &rows);
        assert_eq!(t.matched(), 2);
    }

    #[test]
    fn every_predicate_runs_on_the_enriched_row() {
        let sharing = Some(ArchClass::Sharing);
        let rows = [
            row(150, 1, sharing),
            row(150, 1, Some(ArchClass::Cold)),
            row(150, 2, sharing),
            row(250, 1, sharing),
            row(150, 40, sharing),
        ];
        let t = fold_records(
            &["cpu=1", "time=100..200", "mode=os", "class=sharing"],
            None,
            &rows,
        );
        assert_eq!(t.matched(), 1);
        // CPUs past 31 are plain numbers: listed, ranged and grouped.
        let t = fold_records(&["cpu=40"], None, &rows);
        assert_eq!(t.matched(), 1);
        let t = fold_records(&["cpu=2..63"], Some("cpu"), &rows);
        assert_eq!(t.matched(), 2);
        assert!(t.to_json().contains("\"cpu40\""), "{}", t.to_json());
    }

    #[test]
    fn hotlines_vocab_errors_list_fields_and_values() {
        // A valid query compiles without running any simulation.
        assert!(compile(
            &spec(
                "hotlines",
                &["false_sharing=true", "region=process-table,pfdat"],
                Some("symbol,region"),
                Some("sum:invals"),
            )
            .unwrap()
        )
        .is_ok());
        // Unknown fields list the full field vocabulary, in order.
        let e = compile(&spec("hotlines", &["bogus=1"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("unknown hotlines field"), "{e}");
        assert!(
            e.contains(
                "symbol, region, false_sharing, sharers, misses, invals, churn, upgrades, \
                 score, addr"
            ),
            "{e}"
        );
        // Unknown values list the value vocabulary.
        let e = compile(&spec("hotlines", &["region=heap"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("unknown region"), "{e}");
        assert!(e.contains("run-queue"), "{e}");
        let e =
            compile(&spec("hotlines", &["false_sharing=maybe"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("one of: true, false"), "{e}");
        // Continuous fields cannot group; bad value fields list theirs.
        assert!(
            compile(&spec("hotlines", &[], Some("score"), None).unwrap())
                .unwrap_err()
                .contains("continuous")
        );
        assert!(
            compile(&spec("hotlines", &[], None, Some("sum:dur")).unwrap())
                .unwrap_err()
                .contains("misses|invals|churn|sharers|score")
        );
    }

    #[test]
    fn waits_vocab_compiles_and_rejects() {
        // A valid query compiles without running any simulation.
        assert!(compile(
            &spec(
                "waits",
                &["lock=Runqlk", "duration=100..", "truncated=false"],
                Some("lock,holder_op"),
                Some("sum:duration"),
            )
            .unwrap()
        )
        .is_ok());
        // Unknown fields list the full field vocabulary, in order.
        let e = compile(&spec("waits", &["bogus=1"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("unknown waits field"), "{e}");
        assert!(
            e.contains("waiter, holder, lock, duration, holder_op, truncated"),
            "{e}"
        );
        // Bad boolean and continuous-group errors match the other
        // sources' phrasing.
        let e = compile(&spec("waits", &["truncated=maybe"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("one of: true, false"), "{e}");
        let e =
            compile(&spec("waits", &["truncated=true,false"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("needs exactly one of true, false"), "{e}");
        assert!(
            compile(&spec("waits", &[], Some("duration"), None).unwrap())
                .unwrap_err()
                .contains("continuous")
        );
        assert!(compile(&spec("waits", &[], None, Some("sum:dur")).unwrap())
            .unwrap_err()
            .contains("value field duration"));
    }

    #[test]
    fn class_bits_make_disp_os_same_a_subset() {
        let rows = [
            row(0, 0, Some(ArchClass::DispOs { same_epoch: true })),
            row(0, 0, Some(ArchClass::DispOs { same_epoch: false })),
            row(0, 0, None),
        ];
        assert_eq!(fold_records(&["class=disp_os"], None, &rows).matched(), 2);
        assert_eq!(
            fold_records(&["class=disp_os_same"], None, &rows).matched(),
            1
        );
        // Groups take the most specific label; rows without a class
        // group as `-`.
        let j = fold_records(&[], Some("class"), &rows).to_json();
        for key in ["\"disp_os_same\"", "\"disp_os\"", "\"-\""] {
            assert!(j.contains(key), "{key} in {j}");
        }
    }

    /// Every vocabulary cell a row can project sets the bit of its own
    /// label, and every source's value-field list names exactly its
    /// value fields.
    #[test]
    fn tables_agree_with_their_vocabularies() {
        fn check<R>(src: &Source<R>, name: &str, r: &R) {
            let f = src.fields.iter().find(|f| f.name == name).unwrap();
            let Kind::Vocab(labels) = f.kind else {
                panic!("{name} is a vocabulary field");
            };
            let Cell::Sym(bits, label) = (f.get)(r) else {
                panic!("{name} projects symbols");
            };
            assert_eq!(labels(63 - bits.leading_zeros() as usize), Some(label));
        }
        let base = row(0, 0, None);
        for kind in [
            BusKind::Read,
            BusKind::ReadEx,
            BusKind::Upgrade,
            BusKind::WriteBack,
            BusKind::UncachedRead,
        ] {
            check(&RECORDS, "kind", &QueryRow { kind, ..base });
        }
        for mode in [Mode::Kernel, Mode::User, Mode::Idle] {
            check(&RECORDS, "mode", &QueryRow { mode, ..base });
        }
        for instr in [true, false] {
            check(&RECORDS, "fetch", &QueryRow { instr, ..base });
        }
        for op in OpClass::ALL {
            check(
                &RECORDS,
                "op",
                &QueryRow {
                    op: Some(op),
                    ..base
                },
            );
        }
        for region in REGIONS {
            let r = QueryRow {
                region: Some(region),
                ..base
            };
            check(&RECORDS, "region", &r);
        }
        for family in LockFamily::ALL {
            for phase in [LockPhase::Spin, LockPhase::Hold] {
                let s = LockSpan {
                    lock: oscar_os::LockId {
                        family,
                        instance: 0,
                    },
                    cpu: oscar_machine::CpuId(0),
                    phase,
                    start: 0,
                    end: 0,
                    truncated: false,
                };
                check(&LOCKS, "family", &s);
                check(&LOCKS, "phase", &s);
            }
        }

        fn values<R>(s: &Source<R>) -> (Vec<&'static str>, Vec<&'static str>) {
            let mut listed: Vec<&str> = s.values.split('|').collect();
            let mut flagged: Vec<&str> = s
                .fields
                .iter()
                .filter(|f| f.value)
                .map(|f| f.name)
                .collect();
            listed.sort_unstable();
            flagged.sort_unstable();
            (listed, flagged)
        }
        for (listed, flagged) in [
            values(&RECORDS),
            values(&LOCKS),
            values(&HOTLINES),
            values(&WAITS),
        ] {
            assert_eq!(listed, flagged);
        }
    }
}
