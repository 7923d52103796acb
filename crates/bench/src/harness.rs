//! The bench harness: one registry of rows, one snapshot schema
//! (`BENCH_13.json`) and one gate rule.
//!
//! Every [`Row`] has a name, the [`Layer`] it measures and an operation
//! closure. A sample runs the operation `ops` times, with `ops` chosen when
//! the snapshot is written so that one sample does at least
//! [`MIN_SAMPLE_MS`] of work; every time is milliseconds per sample, lower
//! is better. An operation may also report deterministic work counters
//! (`EvalStats`, `StoreStats` deltas, docgen chunks re-run, plan-cache
//! hits), which must repeat exactly from call to call.
//!
//! `paper_tables -- bench-json` measures every row and writes the snapshot;
//! `paper_tables -- bench-gate` re-runs the same rows against it. One rule
//! holds for every row: the fastest sample may be at most [`GATE_FACTOR`]
//! times the baseline's fastest sample (a row over that limit is re-measured
//! up to [`RETRIES`] times before it fails), every counter must equal its
//! baseline, and a row missing on either side or a different `host_cpus`
//! fails outright. Both commands run pinned to one CPU (`taskset -c 0`) so
//! the gate places its threads (callers, pool workers, service clients) as
//! the baseline did; an unpinned run on a multi-CPU host reports a
//! different `host_cpus`, which the gate refuses.

use crate::corpus::{deep_document, entity_document, wide_document, xmark_auction, XmarkScale};
use crate::scenario::{self, OpClass, ScenarioConfig, ScenarioReport};
use crate::{it_workload, Workload};
use awb::workload::{it_architecture, it_metamodel, production_scale, ItScale};
use awb::{xmlio, NodeRef, PropValue, Query};
use docgen::batch::{generate_batch_with, BatchJob, CompiledPipeline, GeneratorKind};
use docgen::xq::XqGenerator;
use docgen::{native, EditFootprint, GenInputs, IncrementalDoc, Template};
use qsvc::{Client, Service, ServiceConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use xmlstore::parser::ParseOptions;
use xmlstore::serializer::SerializeOptions;
use xmlstore::{NodeId, QName, Store, Sym};
use xquery::{Engine, EvalStats, StackPool};

/// The snapshot file `bench-json` writes and `bench-gate` reads.
pub const SNAPSHOT: &str = "BENCH_13.json";
/// A row fails when its fastest sample exceeds this multiple of the
/// baseline's fastest sample. Below 2, so a doubled row cannot pass.
pub const GATE_FACTOR: f64 = 1.5;
/// Extra measurements granted to a row over its limit. Scheduler noise
/// only ever inflates a timing, so a real regression stays over the limit
/// on every re-measure and noise does not.
pub const RETRIES: usize = 2;
/// The least work one sample does; microsecond operations are batched up
/// to it so timer granularity and wake-up jitter cannot dominate.
pub const MIN_SAMPLE_MS: f64 = 1.0;
const MIN_SAMPLES: usize = 5;
const MAX_SAMPLES: usize = 41;
/// Wall-clock time after which a row stops sampling (once it has
/// [`MIN_SAMPLES`]).
const SAMPLE_BUDGET_MS: f64 = 250.0;

const UNITS: &str = "milliseconds per sample (ops operations per sample), lower is better; \
     min/median/max over the samples after one warm-up call; counters are per operation and \
     must repeat exactly; recorded pinned to one CPU (taskset -c 0)";

/// The layer a row's time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Parse,
    Compile,
    Run,
    Serialize,
    Freeze,
    Refreeze,
    Index,
    Docgen,
    Service,
}

impl Layer {
    const ALL: [Layer; 9] = [
        Layer::Parse,
        Layer::Compile,
        Layer::Run,
        Layer::Serialize,
        Layer::Freeze,
        Layer::Refreeze,
        Layer::Index,
        Layer::Docgen,
        Layer::Service,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Parse => "parse",
            Layer::Compile => "compile",
            Layer::Run => "run",
            Layer::Serialize => "serialize",
            Layer::Freeze => "freeze",
            Layer::Refreeze => "refreeze",
            Layer::Index => "index",
            Layer::Docgen => "docgen",
            Layer::Service => "service",
        }
    }
}

/// What one operation cost and the work counters it reported.
struct Sample {
    ms: f64,
    counters: Vec<(&'static str, u64)>,
}

impl Sample {
    /// Times `f`; no counters.
    fn time(f: impl FnOnce()) -> Sample {
        Sample {
            ms: time_ms(f),
            counters: Vec::new(),
        }
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

type Op = Box<dyn FnMut() -> Sample>;

/// One registry row: its setup builds the state the operation runs on and
/// returns the operation, which times its own measured part.
struct Row {
    name: String,
    layer: Layer,
    setup: Box<dyn Fn() -> Op>,
}

impl Row {
    fn new<F>(name: impl Into<String>, layer: Layer, setup: impl Fn() -> F + 'static) -> Row
    where
        F: FnMut() -> Sample + 'static,
    {
        Row {
            name: name.into(),
            layer,
            setup: Box::new(move || Box::new(setup()) as Op),
        }
    }
}

/// One row of the snapshot.
#[derive(Debug, Clone, PartialEq)]
struct Measured {
    name: String,
    layer: Layer,
    ops: usize,
    samples: usize,
    min_ms: f64,
    median_ms: f64,
    max_ms: f64,
    counters: Vec<(String, u64)>,
}

/// Warms `op` up, then takes samples of `ops` calls each until the sample
/// budget is spent. Panics when the counters change between calls: a
/// counter the gate compares exactly must repeat exactly.
fn measure(row: &Row, op: &mut Op, ops: usize) -> Measured {
    op();
    let mut counters: Option<Vec<(&'static str, u64)>> = None;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MAX_SAMPLES
        && (samples.len() < MIN_SAMPLES || started.elapsed().as_secs_f64() * 1e3 < SAMPLE_BUDGET_MS)
    {
        let mut ms = 0.0;
        for _ in 0..ops {
            let s = op();
            ms += s.ms;
            match &counters {
                None => counters = Some(s.counters),
                Some(c) => assert_eq!(
                    c, &s.counters,
                    "{}: counters changed between calls",
                    row.name
                ),
            }
        }
        samples.push(ms);
    }
    samples.sort_by(f64::total_cmp);
    Measured {
        name: row.name.clone(),
        layer: row.layer,
        ops,
        samples: samples.len(),
        min_ms: samples[0],
        median_ms: samples[samples.len() / 2],
        max_ms: samples[samples.len() - 1],
        counters: counters
            .unwrap_or_default()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

/// The number of calls that makes one sample at least [`MIN_SAMPLE_MS`],
/// from the fastest call seen over a few milliseconds after a warm-up.
fn calibrate(op: &mut Op) -> usize {
    op();
    let (mut fastest, mut spent, mut calls) = (f64::INFINITY, 0.0, 0);
    while calls < 3 || spent < 5.0 * MIN_SAMPLE_MS {
        let ms = op().ms;
        fastest = fastest.min(ms);
        spent += ms;
        calls += 1;
    }
    (MIN_SAMPLE_MS / fastest.max(1e-9)).ceil() as usize
}

/// The CPUs this process may run on: 1 under `taskset -c 0`.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measures every row, calibrating its batch size, in two passes over the
/// registry and keeping each row's faster pass. A baseline recorded inside
/// one slow window (a burst from another tenant of the host) would let a
/// real regression pass; two windows seconds apart rarely are both slow.
/// Each pass sets the row up afresh, so its counters must also agree
/// across setups, as the gate's will.
fn snapshot(rows: &[Row]) -> Snapshot {
    let first: Vec<Measured> = rows
        .iter()
        .map(|row| {
            let mut op = (row.setup)();
            let ops = calibrate(&mut op);
            measure(row, &mut op, ops)
        })
        .collect();
    let rows = rows
        .iter()
        .zip(first)
        .map(|(row, a)| {
            let b = measure(row, &mut (row.setup)(), a.ops);
            assert_eq!(
                a.counters, b.counters,
                "{}: counters differ between two setups",
                row.name
            );
            let m = if b.min_ms < a.min_ms { b } else { a };
            println!(
                "  {:<30} {:<9} {:>5} ops {:>10.4} ms min {:>10.4} ms median",
                m.name,
                m.layer.name(),
                m.ops,
                m.min_ms,
                m.median_ms
            );
            m
        })
        .collect();
    Snapshot {
        host_cpus: host_cpus(),
        rows,
    }
}

/// Re-runs every row against `baseline` and returns one line per failure.
/// Each row runs with the baseline's batch size, so both sides time the
/// same work.
fn gate(rows: &[Row], baseline: &Snapshot, host_cpus: usize) -> Vec<String> {
    if host_cpus != baseline.host_cpus {
        return vec![format!(
            "host_cpus {host_cpus} differs from the baseline's {} (run pinned: taskset -c 0)",
            baseline.host_cpus
        )];
    }
    let mut failures: Vec<String> = baseline
        .rows
        .iter()
        .filter(|b| !rows.iter().any(|r| r.name == b.name))
        .map(|b| format!("{}: baseline row has no registry row", b.name))
        .collect();
    for row in rows {
        let Some(base) = baseline.rows.iter().find(|b| b.name == row.name) else {
            failures.push(format!("{}: registry row has no baseline row", row.name));
            continue;
        };
        if base.layer != row.layer {
            failures.push(format!(
                "{}: layer {} differs from the baseline's {}",
                row.name,
                row.layer.name(),
                base.layer.name()
            ));
            continue;
        }
        let limit = GATE_FACTOR * base.min_ms;
        let mut op = (row.setup)();
        let mut got = measure(row, &mut op, base.ops);
        let mut tries = 1;
        while got.min_ms > limit && tries <= RETRIES {
            got = measure(row, &mut op, base.ops);
            tries += 1;
        }
        let (verdict, failed) = judge(base, &got);
        failures.extend(failed);
        println!(
            "  {:<30} {:>10.4} ms  baseline {:>10.4}  x{:.2}  {verdict} ({tries} measurement(s))",
            row.name,
            got.min_ms,
            base.min_ms,
            got.min_ms / base.min_ms
        );
    }
    failures
}

/// The gate's verdict on one row measured against its baseline row: the
/// label it prints and one line per failure.
fn judge(base: &Measured, got: &Measured) -> (&'static str, Vec<String>) {
    let mut verdict = "ok";
    let mut failures = Vec::new();
    if got.min_ms > GATE_FACTOR * base.min_ms {
        verdict = "SLOWER";
        failures.push(format!(
            "{}: {:.4} ms > {GATE_FACTOR} x baseline {:.4} ms",
            got.name, got.min_ms, base.min_ms
        ));
    }
    if got.counters != base.counters {
        verdict = "COUNTERS";
        failures.push(format!(
            "{}: counters {:?} differ from the baseline's {:?}",
            got.name, got.counters, base.counters
        ));
    }
    (verdict, failures)
}

// ----------------------------------------------------------------------
// The snapshot: one schema, one row per line.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    host_cpus: usize,
    rows: Vec<Measured>,
}

impl Snapshot {
    fn render(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|m| {
                let counters: Vec<String> = m
                    .counters
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!(
                    "    {{\"name\": \"{}\", \"layer\": \"{}\", \"ops\": {}, \"samples\": {}, \
                     \"min_ms\": {:.4}, \"median_ms\": {:.4}, \"max_ms\": {:.4}, \
                     \"counters\": {{{}}}}}",
                    m.name,
                    m.layer.name(),
                    m.ops,
                    m.samples,
                    m.min_ms,
                    m.median_ms,
                    m.max_ms,
                    counters.join(", ")
                )
            })
            .collect();
        format!(
            "{{\n  \"units\": \"{UNITS}\",\n  \"host_cpus\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.host_cpus,
            rows.join(",\n")
        )
    }

    /// Reads what [`Snapshot::render`] writes.
    fn parse(text: &str) -> Result<Snapshot, String> {
        let mut host_cpus = None;
        let mut rows = Vec::new();
        for line in text.lines().map(str::trim) {
            if let Some(n) = line.strip_prefix("\"host_cpus\": ") {
                let n = n.trim_end_matches(',');
                host_cpus = Some(n.parse().map_err(|_| format!("bad host_cpus `{n}`"))?);
            } else if line.starts_with("{\"name\"") {
                rows.push(parse_measured(line.trim_end_matches(','))?);
            }
        }
        Ok(Snapshot {
            host_cpus: host_cpus.ok_or("snapshot has no host_cpus")?,
            rows,
        })
    }
}

enum Value {
    Str(String),
    Num(String),
    Obj(Vec<(String, Value)>),
}

fn parse_measured(line: &str) -> Result<Measured, String> {
    let mut rest = line;
    let fields = parse_object(&mut rest)?;
    if !rest.trim().is_empty() {
        return Err(format!("trailing text after row: {line}"));
    }
    let get = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or(format!("row lacks `{key}`: {line}"))
    };
    let text = |key: &str| match get(key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string: {line}")),
    };
    let num = |key: &str| match get(key)? {
        Value::Num(n) => Ok(n.clone()),
        _ => Err(format!("`{key}` is not a number: {line}")),
    };
    let int = |n: &str| n.parse::<u64>().map_err(|_| format!("bad integer `{n}`"));
    let ms = |key: &str| {
        let n = num(key)?;
        n.parse::<f64>().map_err(|_| format!("bad number `{n}`"))
    };
    let layer = text("layer")?;
    let Value::Obj(counters) = get("counters")? else {
        return Err(format!("`counters` is not an object: {line}"));
    };
    Ok(Measured {
        name: text("name")?,
        layer: Layer::ALL
            .into_iter()
            .find(|l| l.name() == layer)
            .ok_or(format!("unknown layer `{layer}`"))?,
        ops: int(&num("ops")?)? as usize,
        samples: int(&num("samples")?)? as usize,
        min_ms: ms("min_ms")?,
        median_ms: ms("median_ms")?,
        max_ms: ms("max_ms")?,
        counters: counters
            .iter()
            .map(|(k, v)| match v {
                Value::Num(n) => Ok((k.clone(), int(n)?)),
                _ => Err(format!("counter `{k}` is not a number")),
            })
            .collect::<Result<_, String>>()?,
    })
}

/// Parses one JSON object of strings (no escapes), numbers and nested
/// objects — the subset the snapshot uses — advancing `s` past it.
fn parse_object(s: &mut &str) -> Result<Vec<(String, Value)>, String> {
    fn eat(s: &mut &str, c: char) -> bool {
        *s = s.trim_start();
        match s.strip_prefix(c) {
            Some(rest) => {
                *s = rest;
                true
            }
            None => false,
        }
    }
    fn string(s: &mut &str) -> Result<String, String> {
        if !eat(s, '"') {
            return Err(format!("expected a string at `{s}`"));
        }
        let end = s.find('"').ok_or("unterminated string")?;
        let text = &s[..end];
        if text.contains('\\') {
            return Err(format!("escapes are not part of the schema: `{text}`"));
        }
        *s = &s[end + 1..];
        Ok(text.to_string())
    }
    if !eat(s, '{') {
        return Err(format!("expected an object at `{s}`"));
    }
    let mut fields = Vec::new();
    if eat(s, '}') {
        return Ok(fields);
    }
    loop {
        let key = string(s)?;
        if !eat(s, ':') {
            return Err(format!("expected `:` after `{key}`"));
        }
        *s = s.trim_start();
        let value = if s.starts_with('"') {
            Value::Str(string(s)?)
        } else if s.starts_with('{') {
            Value::Obj(parse_object(s)?)
        } else {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .unwrap_or(s.len());
            if end == 0 {
                return Err(format!("expected a value for `{key}`"));
            }
            let n = s[..end].to_string();
            *s = &s[end..];
            Value::Num(n)
        };
        fields.push((key, value));
        if eat(s, '}') {
            return Ok(fields);
        }
        if !eat(s, ',') {
            return Err(format!("expected `,` or `}}` at `{s}`"));
        }
    }
}

// ----------------------------------------------------------------------
// The commands.
// ----------------------------------------------------------------------

/// `paper_tables -- bench-json`: measures every registry row, checks the
/// claims the snapshot backs, and writes [`SNAPSHOT`].
pub fn bench_json() {
    println!("bench-json — writing {SNAPSHOT} (run it pinned: taskset -c 0)");
    let snapshot = snapshot(&registry());
    check_claims(&snapshot);
    std::fs::write(SNAPSHOT, snapshot.render()).expect("writing the snapshot");
    println!(
        "  wrote {SNAPSHOT}: {} rows, host_cpus {}",
        snapshot.rows.len(),
        snapshot.host_cpus
    );
}

/// `paper_tables -- bench-gate`: re-runs every registry row against
/// [`SNAPSHOT`]; false when any row fails.
pub fn bench_gate() -> bool {
    println!(
        "bench-gate — every row vs {SNAPSHOT}: fastest sample <= {GATE_FACTOR} x baseline, \
         counters equal"
    );
    let baseline = match std::fs::read_to_string(SNAPSHOT)
        .map_err(|e| e.to_string())
        .and_then(|text| Snapshot::parse(&text))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench-gate: cannot read {SNAPSHOT}: {e}");
            return false;
        }
    };
    let failures = gate(&registry(), &baseline, host_cpus());
    if failures.is_empty() {
        println!("  bench-gate passed: {} rows", baseline.rows.len());
        return true;
    }
    eprintln!("bench-gate: {} failure(s):", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    false
}

/// The claims the snapshot backs, asserted when it is written: the
/// incremental edit beats full regeneration 10x at n=800, the hot plan set
/// hits the plan cache, and the XMark corpus is byte-deterministic. (The
/// incremental document's byte-equality with a full run is asserted in the
/// edit rows' setup.)
fn check_claims(s: &Snapshot) {
    let row = |name: &str| {
        s.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("claim row {name} measured"))
    };
    let per_op = |name: &str| row(name).median_ms / row(name).ops as f64;
    let speedup = per_op("docgen_full_n800") / per_op("edit_incremental_n800");
    assert!(
        speedup >= 10.0,
        "edit-to-fresh-doc must be at least 10x faster than full regeneration at n=800, got {speedup:.1}x"
    );
    let counter = |name: &str| {
        row("qps_hot_plan")
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v as f64)
            .expect("plan-cache counter recorded")
    };
    let hit_rate = counter("plan_hits") / (counter("plan_hits") + counter("plan_misses"));
    assert!(
        hit_rate > 0.9,
        "hot-set plan hit rate {hit_rate:.3} is not above 0.9"
    );
    let scale = XmarkScale::about(XMARK_NODES);
    assert_eq!(
        xmark_auction(&scale, SEED),
        xmark_auction(&scale, SEED),
        "xmark generator must be byte-deterministic for a fixed seed"
    );
    println!("  claims hold: n=800 edit {speedup:.1}x faster than full regeneration, hot plan hit rate {hit_rate:.3}, xmark deterministic");
}

// ----------------------------------------------------------------------
// The registry.
// ----------------------------------------------------------------------

const SEED: u64 = 42;
/// XMark corpus size: parse and join are multi-millisecond.
const XMARK_NODES: usize = 20_000;
/// Hostile corpus sizes: just under the default depth cap, ~80k records
/// wide, and two thousand reference-dense items.
const DEEP: usize = 9_000;
const WIDE: usize = 40_000;
const ENTITY: usize = 2_000;
/// The mixed scenario the two scenario rows replay.
const SCENARIO: ScenarioConfig = ScenarioConfig {
    corpus_nodes: 8_000,
    ops: 120,
    seed: SEED,
};

/// Every row, in the order the snapshot lists them.
fn registry() -> Vec<Row> {
    let mut rows = vec![query_row(
        "e1_n800_xq_lowered",
        e1_model,
        e1_query().to_xquery(&it_metamodel()),
    )];
    for &(name, src) in AXIS_MICRO {
        rows.push(query_row(name, |e| context(e, axis_bench_doc()), src));
    }
    for &(name, src) in MICRO {
        rows.push(query_row(name, |_| None, src));
    }
    for &(name, src) in OBS_PROBES {
        rows.push(query_row(
            format!("obs_{name}"),
            |e| context(e, obs_doc()),
            src,
        ));
    }
    let xmark = |e: &mut Engine| context(e, xmark_corpus());
    rows.extend([
        query_row("xmark_point", xmark, scenario::point_queries()[0].clone()),
        query_row("xmark_join", xmark, scenario::JOIN_QUERY),
        query_row("xmark_stream_prefix", xmark, scenario::STREAM_QUERY),
        parse_row("xmark_parse", Layer::Parse, xmark_corpus),
        parse_row("hostile_deep_parse", Layer::Parse, || deep_document(DEEP)),
        parse_row("hostile_wide_parse", Layer::Parse, || wide_document(WIDE)),
        parse_row("hostile_entity_roundtrip", Layer::Serialize, || {
            entity_document(ENTITY)
        }),
        compile_e1_row(),
        Row::new("compile_docgen_pipeline", Layer::Compile, || {
            || {
                Sample::time(|| {
                    CompiledPipeline::standard().expect("docgen pipeline compiles");
                })
            }
        }),
        Row::new("edit_incremental_n800", Layer::Docgen, || {
            let mut bench = EditBench::new(it_workload(800, SEED));
            move || bench.incremental()
        }),
        Row::new("docgen_full_n800", Layer::Docgen, || {
            let mut bench = EditBench::new(it_workload(800, SEED));
            move || bench.full()
        }),
        Row::new("edit_incremental_100k", Layer::Docgen, || {
            let mut bench = EditBench::new(Workload {
                meta: it_metamodel(),
                model: it_architecture(production_scale(), SEED),
            });
            move || bench.incremental()
        }),
        docgen_batch_row(),
        docgen_xq_row(),
        index_repatch_row(),
        index_rebuild_row(),
        refreeze_row(),
        freeze_full_row(),
        qps_row("qps_hot_plan", qps_hot_picker),
        qps_row("qps_cold_plan", qps_cold_picker),
        qps_row("qps_mixed", qps_mixed_picker),
        scenario_row(
            "scenario_inproc_point",
            Layer::Run,
            scenario::run_in_process,
        ),
        scenario_row(
            "scenario_service_point",
            Layer::Service,
            scenario::run_service,
        ),
    ]);
    rows
}

/// The counter block of one evaluation, timing fields left out.
fn eval_counters(s: &EvalStats) -> Vec<(&'static str, u64)> {
    vec![
        ("index_hits", s.index_hits),
        ("index_misses", s.index_misses),
        ("join_builds", s.join_builds),
        ("join_probes", s.join_probes),
        ("join_fallbacks", s.join_fallbacks),
        ("cache_hits", s.cache_hits),
        ("cache_resets", s.cache_resets),
        ("streamed_existence", s.streamed_existence),
        ("items_allocated", s.items_allocated),
        ("items_streamed", s.items_streamed),
        ("cursor_early_exits", s.cursor_early_exits),
    ]
}

/// One compiled query evaluated over the context `setup` prepares; the
/// row carries the evaluation's `EvalStats` counters.
fn query_row(
    name: impl Into<String>,
    setup: fn(&mut Engine) -> Option<NodeId>,
    src: impl Into<String>,
) -> Row {
    let src = src.into();
    Row::new(name, Layer::Run, move || {
        let mut engine = Engine::new();
        let doc = setup(&mut engine);
        let q = engine.compile(&src).expect("bench query compiles");
        move || {
            let ms = time_ms(|| {
                engine.evaluate(&q, doc).expect("bench query runs");
            });
            Sample {
                ms,
                counters: eval_counters(engine.last_stats()),
            }
        }
    })
}

fn e1_query() -> Query {
    Query::from_type("user")
        .follow("likes")
        .follow_to("uses", "Program")
        .dedup()
        .sort_by_label()
}

/// Exports the E1 n=800 model into the engine as `awb-model`; the E1
/// query names its document, so there is no context node.
fn e1_model(engine: &mut Engine) -> Option<NodeId> {
    let w = it_workload(800, SEED);
    let doc = xmlio::export_to_store(&w.model, engine.store_mut());
    engine.register_document("awb-model", doc);
    None
}

/// Loads `xml` as the context document.
fn context(engine: &mut Engine, xml: String) -> Option<NodeId> {
    Some(engine.load_document(&xml).expect("bench document loads"))
}

/// Compiling the E1 query text: parse, optimise, lower.
fn compile_e1_row() -> Row {
    Row::new("compile_e1_query", Layer::Compile, || {
        let src = e1_query().to_xquery(&it_metamodel());
        let engine = Engine::new();
        move || {
            Sample::time(|| {
                engine.compile(&src).expect("E1 query compiles");
            })
        }
    })
}

/// Parsing a corpus into a fresh store (landing frozen); the serialize row
/// also writes it back out.
fn parse_row(name: &str, layer: Layer, xml: fn() -> String) -> Row {
    Row::new(name, layer, move || {
        let xml = xml();
        move || {
            Sample::time(|| {
                let mut store = Store::new();
                let doc = store
                    .parse_str(&xml, &ParseOptions::data_oriented())
                    .expect("bench corpus parses");
                if layer == Layer::Serialize {
                    store.serialize(doc, &SerializeOptions::default());
                }
            })
        }
    })
}

fn xmark_corpus() -> String {
    xmark_auction(&XmarkScale::about(XMARK_NODES), SEED)
}

/// Variable-heavy queries: the lowered runner resolves every `$v` by a
/// slot index.
const MICRO: &[(&str, &str)] = &[
    (
        "var_reads_in_loop",
        "let $a := 1 let $b := 2 let $c := 3 let $d := 4 let $e := 5 let $f := 6 let $g := 7 let $h := 8 \
         return sum(for $i in 1 to 5000 return $a + $b + $c + $d + $e + $f + $g + $h + $i)",
    ),
    (
        "shadowed_lets_in_loop",
        "sum(for $i in 1 to 3000 return (let $x := $i let $x := $x * 2 let $x := $x + 1 return $x))",
    ),
    (
        "recursive_user_function",
        "declare function local:fib($n) { if ($n le 1) then $n else local:fib($n - 1) + local:fib($n - 2) }; local:fib(16)",
    ),
    (
        "flwor_order_by",
        "sum(for $i in 1 to 2000 order by $i mod 7, $i descending return $i)",
    ),
];

/// Axis-heavy queries over [`axis_bench_doc`]: descendant name lookups,
/// attribute-equality predicates, deep ancestor chains, dedup/doc-order
/// sorts, and the cursor runtime's positional early exits — the paths the
/// structural indexes and the streaming runtime serve.
const AXIS_MICRO: &[(&str, &str)] = &[
    ("axis_descendant_name", "count(//item)"),
    ("axis_attr_eq_probe", "count(/root/item[@k = \"k7\"])"),
    (
        "axis_attr_eq_list",
        "count(/root/item[@k = (\"k3\", \"k11\", \"k40\")])",
    ),
    ("axis_deep_ancestor", "count(//leaf/ancestor::d)"),
    ("dedup_doc_order_union", "count(//item | //sub/..)"),
    (
        "order_by_large_seq",
        "count(for $i in //item order by string($i/@k) descending, $i/@g return $i)",
    ),
    ("stream_prefix", "//item[position() <= 5]"),
    ("stream_pick3", "(//item)[3]"),
    ("stream_subseq", "subsequence(//item, 2, 3)"),
];

/// Document backing [`AXIS_MICRO`]: a wide fan-out of attributed `item`
/// elements plus one 200-deep `d` chain ending in a marked `leaf`.
fn axis_bench_doc() -> String {
    let mut s = String::from("<root>");
    for i in 0..2000 {
        s.push_str(&format!(
            "<item k='k{}' g='g{}'><sub/></item>",
            i % 50,
            i % 7
        ));
    }
    for _ in 0..200 {
        s.push_str("<d>");
    }
    s.push_str("<leaf mark='x'/>");
    for _ in 0..200 {
        s.push_str("</d>");
    }
    s.push_str("</root>");
    s
}

/// The observability probes: one query per fast path the engine claims,
/// whose counter block proves the path ran.
const OBS_PROBES: &[(&str, &str)] = &[
    (
        "hash_join",
        "count(for $n in /root/item for $r in /root/item where $r/@k = $n/@k return 1)",
    ),
    ("index_range", "count(//item)"),
    ("attr_index_probe", "count(/root/item[@k = 'k3'])"),
    (
        "cache_once",
        "let $d := /root return for $i in (1, 2, 3) return ($i, string($d/item[1]/@k))",
    ),
    ("streamed_existence", "exists(/root/leaf)"),
    ("index_existence", "exists(//leaf)"),
    ("cursor_pick", "(//item)[3]"),
];

/// Document backing [`OBS_PROBES`]: enough attributed items for every
/// index path to fire, plus a `leaf` for the existence probes.
fn obs_doc() -> String {
    let mut s = String::from("<root>");
    for i in 0..100 {
        s.push_str(&format!("<item k='k{}' g='g{}'/>", i % 10, i % 4));
    }
    s.push_str("<leaf/></root>");
    s
}

// ----------------------------------------------------------------------
// Edit-to-fresh-doc rows.
// ----------------------------------------------------------------------

/// Subsystem sections in the edit template. Each section reads one
/// subsystem's programs, so a one-program edit dirties exactly one chunk.
const EDIT_SECTIONS: usize = 64;

/// The per-subsystem handbook template: a table of contents, then one
/// `<section>` per tagged subsystem looping over what it `has`. Sections
/// select their subsystem by property filter, not label search — a label
/// start scans the whole population, which (correctly) marks every chunk
/// dirty on any population edit and would leave nothing incremental.
fn edit_bench_template() -> Template {
    let mut t = String::from("<template><h1>Subsystem handbook</h1><table-of-contents/>");
    for i in 0..EDIT_SECTIONS {
        t.push_str(&format!(
            "<section heading=\"Subsystem {i}\"><for><query>\
             <start type=\"Subsystem\"/><filter-property name=\"sect\" equals=\"s{i}\"/>\
             <follow relation=\"has\" target-type=\"Program\"/><sort-by-label/></query>\
             <p><label/>: <value-of property=\"language\" default=\"undocumented\"/></p>\
             </for></section>"
        ));
    }
    t.push_str("</template>");
    Template::parse(&t).expect("edit bench template parses")
}

/// The handbook over one workload, kept fresh by `IncrementalDoc` while a
/// one-property edit on one program repeats.
struct EditBench {
    w: Workload,
    template: Template,
    target: NodeRef,
    doc: IncrementalDoc,
    serial: usize,
}

impl EditBench {
    /// Tags the first [`EDIT_SECTIONS`] subsystems for the template's
    /// filters, picks a program under one of them as the edit target, and
    /// checks the claim the rows rest on: after an edit the incremental
    /// document is local and byte-equal to a full `native::generate`.
    fn new(mut w: Workload) -> EditBench {
        let subsystems = w.model.nodes_of_type("Subsystem", &w.meta);
        assert!(
            subsystems.len() >= EDIT_SECTIONS,
            "corpus has only {} subsystems",
            subsystems.len()
        );
        for (i, &s) in subsystems.iter().take(EDIT_SECTIONS).enumerate() {
            w.model.set_prop(s, "sect", PropValue::Str(format!("s{i}")));
        }
        let target = subsystems
            .iter()
            .take(EDIT_SECTIONS)
            .flat_map(|&s| w.model.follow_forward(s, "has", &w.meta))
            .find(|&n| w.model.node_type(n) == "Program")
            .expect("a tagged subsystem has a program");
        let template = edit_bench_template();
        let doc = IncrementalDoc::generate(&GenInputs {
            model: &w.model,
            meta: &w.meta,
            template: &template,
        })
        .expect("edit bench generates");
        let mut bench = EditBench {
            w,
            template,
            target,
            doc,
            serial: 0,
        };
        let reran = bench.incremental().counters[0].1 as usize;
        let chunks = bench.doc.chunk_count();
        assert!(
            reran >= 1 && reran * 8 <= chunks,
            "the edit must stay local: {reran} of {chunks} chunks re-ran"
        );
        let fresh = native::generate(&bench.inputs()).expect("full run generates");
        assert_eq!(
            bench.doc.to_xml(),
            fresh.to_xml(),
            "incremental output diverged from full regeneration"
        );
        bench
    }

    fn inputs(&self) -> GenInputs<'_> {
        GenInputs {
            model: &self.w.model,
            meta: &self.w.meta,
            template: &self.template,
        }
    }

    /// Applies the next one-property edit to the model.
    fn touch(&mut self) {
        self.serial += 1;
        self.w.model.set_prop(
            self.target,
            "language",
            PropValue::Str(format!("lang-{}", self.serial)),
        );
    }

    /// Edit, then bring the document up to date through `apply_edit`.
    fn incremental(&mut self) -> Sample {
        self.touch();
        let footprint = EditFootprint::new().touch_node(self.target);
        let inputs = GenInputs {
            model: &self.w.model,
            meta: &self.w.meta,
            template: &self.template,
        };
        let mut reran = 0;
        let ms = time_ms(|| {
            reran = self
                .doc
                .apply_edit(&inputs, &footprint)
                .expect("edit applies");
        });
        Sample {
            ms,
            counters: vec![("chunks_reran", reran as u64)],
        }
    }

    /// Edit, then regenerate the document from scratch.
    fn full(&mut self) -> Sample {
        self.touch();
        let inputs = self.inputs();
        Sample::time(|| {
            native::generate(&inputs).expect("full run generates");
        })
    }
}

/// Eight small documents through `docgen::batch` on one worker, half
/// through the five-phase XQuery pipeline and half through the native
/// walker: the regenerate-a-document-set shape.
fn docgen_batch_row() -> Row {
    Row::new("docgen_mixed_batch", Layer::Docgen, || {
        let template = Template::parse(
            r#"<template><h1>Documents</h1><for nodes="all.Document"><p><label/> is at version <value-of property="version" default="?"/>.</p></for><table-of-omissions types="user"/></template>"#,
        )
        .expect("batch template parses");
        let workloads: Vec<Workload> = (0..8).map(|i| it_workload(60, 100 + i)).collect();
        let pipeline = CompiledPipeline::standard().expect("docgen pipeline compiles");
        let pool = StackPool::new(1, 256 * 1024 * 1024);
        move || {
            let jobs: Vec<BatchJob<'_>> = workloads
                .iter()
                .enumerate()
                .map(|(i, w)| BatchJob {
                    kind: if i % 2 == 0 {
                        GeneratorKind::Xquery
                    } else {
                        GeneratorKind::Native
                    },
                    inputs: GenInputs {
                        model: &w.model,
                        meta: &w.meta,
                        template: &template,
                    },
                })
                .collect();
            Sample::time(|| {
                for r in generate_batch_with(&jobs, &pipeline, &pool) {
                    r.expect("batch job generates");
                }
            })
        }
    })
}

/// The paper's workload where loop-invariant work shows: one
/// `SYSTEM_CONTEXT` document through the five-phase XQuery pipeline (engine
/// set-up included, as in perfbench `docgen_xq`) over a 124-node model.
/// Carries the run's `items_allocated` and `nodes_copied` and the plan's
/// `calls_hoisted` and `predicate_splits`.
fn docgen_xq_row() -> Row {
    Row::new("docgen_xq_n124", Layer::Docgen, || {
        let scale = ItScale::about(125);
        assert_eq!(scale.node_count(), 124);
        let w = Workload {
            meta: it_metamodel(),
            model: it_architecture(scale, SEED),
        };
        let template =
            Template::parse(lopsided::templates::SYSTEM_CONTEXT).expect("template parses");
        let pipeline = CompiledPipeline::standard().expect("docgen pipeline compiles");
        let (calls_hoisted, predicate_splits) = pipeline.queries().fold((0, 0), |(c, s), q| {
            (
                c + q.plan_stats.calls_hoisted as u64,
                s + q.plan_stats.predicate_splits as u64,
            )
        });
        move || {
            let inputs = GenInputs {
                model: &w.model,
                meta: &w.meta,
                template: &template,
            };
            let mut out = None;
            let ms = time_ms(|| {
                let mut generator =
                    XqGenerator::with_compiled(&inputs, &pipeline).expect("generator prepares");
                out = Some(generator.run().expect("document generates"));
            });
            let stats = out.expect("timed above").total_stats();
            Sample {
                ms,
                counters: vec![
                    ("items_allocated", stats.items_allocated),
                    ("nodes_copied", stats.nodes_copied),
                    ("calls_hoisted", calls_hoisted),
                    ("predicate_splits", predicate_splits),
                ],
            }
        }
    })
}

// ----------------------------------------------------------------------
// Store maintenance rows.
// ----------------------------------------------------------------------

/// The axis document in a store whose tree is thawed and whose live index
/// is built, plus the root and the `item` name the edit touches. These
/// rows measure the thawed substrate's index, so the parsed (frozen) tree
/// is thawed explicitly: edits of frozen trees stay frozen.
fn warm_index_store() -> (Store, NodeId, NodeId, Sym) {
    let mut s = Store::new();
    let doc = s
        .parse_str(&axis_bench_doc(), &ParseOptions::data_oriented())
        .expect("axis doc parses");
    s.thaw(doc);
    let root = s.child_elements(doc)[0];
    let item = QName::from("item").local_sym();
    // The first query builds the live index lazily; that counts neither as
    // a patch nor as a rebuild.
    edit_and_query(&mut s, doc, root, item);
    (s, doc, root, item)
}

/// A one-node structural edit plus an index-served query, undone again.
fn edit_and_query(s: &mut Store, doc: NodeId, root: NodeId, item: Sym) -> usize {
    let e = s.create_element("item").expect("element");
    s.insert_child(root, 0, e).expect("insert");
    let n = s.descendant_elements_by_local(doc, item).len();
    s.detach(e);
    n
}

/// The edit against the warm store: the live index is patched in place.
fn index_repatch_row() -> Row {
    Row::new("index_repatch", Layer::Index, || {
        let (mut s, doc, root, item) = warm_index_store();
        move || {
            let before = s.stats();
            let ms = time_ms(|| {
                edit_and_query(&mut s, doc, root, item);
            });
            let after = s.stats();
            Sample {
                ms,
                counters: vec![
                    (
                        "index_repatches",
                        after.index_repatches - before.index_repatches,
                    ),
                    (
                        "index_full_rebuilds",
                        after.index_full_rebuilds - before.index_full_rebuilds,
                    ),
                ],
            }
        }
    })
}

/// The same edit against a cold clone (no live index, no provenance): the
/// next query rebuilds the numbering and name index from scratch. The
/// clone happens outside the timed part.
fn index_rebuild_row() -> Row {
    Row::new("index_rebuild", Layer::Index, || {
        let (warm, doc, root, item) = warm_index_store();
        move || {
            let mut cold = warm.clone();
            Sample::time(|| {
                edit_and_query(&mut cold, doc, root, item);
            })
        }
    })
}

/// A wide flat document of ~60k records, frozen: at ~4k nodes the fixed
/// per-call cost would dominate both the in-place edit and the full freeze.
fn refreeze_store() -> (Store, NodeId, Vec<NodeId>) {
    let mut xml = String::from("<root>");
    for i in 0..20_000 {
        xml.push_str(&format!("<item k='k{}'><sub/></item>", i % 50));
    }
    xml.push_str("</root>");
    let mut s = Store::new();
    let doc = s
        .parse_str(&xml, &ParseOptions::data_oriented())
        .expect("refreeze doc parses");
    let items = s.child_elements(s.child_elements(doc)[0]);
    (s, doc, items)
}

/// A one-attribute edit of the frozen table plus the commit: the attribute
/// is new, so the edit splices one record into the table in place, and
/// `freeze` on the still-frozen tree has nothing to do. Removing the
/// attribute again afterwards is untimed.
fn refreeze_row() -> Row {
    Row::new("refreeze_incremental", Layer::Refreeze, || {
        let (mut s, doc, items) = refreeze_store();
        let item = items[items.len() / 2];
        let mut i = 0;
        move || {
            i += 1;
            let before = s.stats();
            let ms = time_ms(|| {
                s.set_attribute(item, "touched", format!("{i}"))
                    .expect("edit");
                s.freeze(doc).expect("commit");
            });
            let after = s.stats();
            s.remove_attribute(item, "touched");
            Sample {
                ms,
                counters: vec![
                    (
                        "records_shifted",
                        after.records_shifted - before.records_shifted,
                    ),
                    ("trees_thawed", after.trees_thawed - before.trees_thawed),
                ],
            }
        }
    })
}

/// The full freeze: the same document thawed explicitly (untimed), then
/// frozen again, which always rebuilds the whole table.
fn freeze_full_row() -> Row {
    Row::new("freeze_full", Layer::Freeze, || {
        let (mut s, doc, _) = refreeze_store();
        move || {
            s.thaw(doc);
            let before = s.stats();
            let ms = time_ms(|| {
                s.freeze(doc).expect("full freeze");
            });
            let after = s.stats();
            Sample {
                ms,
                counters: vec![
                    ("trees_frozen", after.trees_frozen - before.trees_frozen),
                    (
                        "records_shifted",
                        after.records_shifted - before.records_shifted,
                    ),
                ],
            }
        }
    })
}

// ----------------------------------------------------------------------
// Service rows: ms per fixed request round.
// ----------------------------------------------------------------------

/// Concurrent client connections per round.
const QPS_THREADS: usize = 4;
/// Requests each client issues per round.
const QPS_PER_THREAD: usize = 150;

/// Picks one request: `(is_explain, query text)` for `(thread, request)`.
type QpsPick = Box<dyn Fn(usize, usize) -> (bool, String) + Send + Sync>;

/// The hot set: eight distinct texts cycling, so after the warm-up every
/// request is a plan-cache hit.
fn qps_hot_set() -> Vec<String> {
    (0..8).map(|k| format!("count(//item) + {k}")).collect()
}

fn qps_hot_picker() -> QpsPick {
    let hot = qps_hot_set();
    Box::new(move |thread, i| (false, hot[(thread + i) % hot.len()].clone()))
}

/// A globally unique text per request: every request parses and compiles,
/// and past capacity evicts.
fn qps_cold_picker() -> QpsPick {
    let counter = AtomicUsize::new(0);
    Box::new(move |_, _| {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        (false, format!("count(//item) + {n} - {n}"))
    })
}

/// The service's realistic shape: of every 8 requests, 5 hot-set queries,
/// 2 cold compiles and 1 `EXPLAIN` of a hot text.
fn qps_mixed_picker() -> QpsPick {
    let hot = qps_hot_set();
    let cold = qps_cold_picker();
    Box::new(move |thread, i| match (thread + i) % 8 {
        0..=4 => (false, hot[(thread + i) % hot.len()].clone()),
        5 | 6 => cold(thread, i),
        _ => (true, hot[(thread + i) % hot.len()].clone()),
    })
}

/// A document small on purpose: the per-request cost is service overhead
/// (framing, plan lookup, mount resolution), not tree traversal.
fn qps_doc() -> String {
    let mut s = String::from("<doc>");
    for i in 0..16 {
        s.push_str(&format!("<item n=\"{i}\"/>"));
    }
    s.push_str("</doc>");
    s
}

/// One round: [`QPS_THREADS`] clients each issue [`QPS_PER_THREAD`]
/// requests (QUERY or EXPLAIN, per the picker).
fn qps_round(addr: SocketAddr, tenant: &str, pick: &QpsPick) {
    std::thread::scope(|scope| {
        for thread in 0..QPS_THREADS {
            scope.spawn(move || {
                let mut client = Client::connect(addr, Some(tenant)).expect("qps client");
                for i in 0..QPS_PER_THREAD {
                    let (is_explain, q) = pick(thread, i);
                    if is_explain {
                        client.explain(&q).expect("qps explain");
                    } else {
                        client.query("bench", &q).expect("qps query");
                    }
                }
                let _ = client.quit();
            });
        }
    });
}

/// A live service with the QPS document loaded; one sample is one round,
/// counting its plan-cache hits and misses.
fn qps_row(name: &'static str, picker: fn() -> QpsPick) -> Row {
    Row::new(name, Layer::Service, move || {
        let service = Service::spawn(ServiceConfig {
            eval_workers: 2,
            eval_stack_bytes: 32 * 1024 * 1024,
            ..Default::default()
        })
        .expect("qps service spawns");
        let mut admin = Client::connect(service.addr(), Some("bench-admin")).expect("admin");
        admin.load("bench", &qps_doc()).expect("qps document loads");
        let pick = picker();
        move || {
            // The loading connection stays open for the row's life.
            let _ = &admin;
            let (hits, misses, _, _) = service.plan_cache_counters();
            let ms = time_ms(|| qps_round(service.addr(), name, &pick));
            let (hits_after, misses_after, _, _) = service.plan_cache_counters();
            Sample {
                ms,
                counters: vec![
                    ("plan_hits", hits_after - hits),
                    ("plan_misses", misses_after - misses),
                ],
            }
        }
    })
}

/// The mixed scenario replayed whole; the sample is the summed latency of
/// its point lookups, which share the corpus (in-process) or the service
/// with the edits, joins and batches around them.
fn scenario_row(name: &str, layer: Layer, run: fn(&ScenarioConfig) -> ScenarioReport) -> Row {
    Row::new(name, layer, move || {
        move || {
            let report = run(&SCENARIO);
            let point = report.class(OpClass::Point);
            Sample {
                ms: point.total_ms,
                counters: vec![("ops", point.count as u64)],
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed arithmetic, opaque to the optimiser.
    fn spin() {
        let mut x = 0u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
    }

    /// A row spinning `rounds` times per call, reporting `work` as its one
    /// counter.
    fn spin_row(name: &str, rounds: usize, work: u64) -> Row {
        Row::new(name, Layer::Run, move || {
            move || {
                let ms = time_ms(|| (0..rounds).for_each(|_| spin()));
                Sample {
                    ms,
                    counters: vec![("work", work)],
                }
            }
        })
    }

    fn baseline() -> Snapshot {
        snapshot(&[spin_row("spin", 1, 7)])
    }

    #[test]
    fn an_identical_row_passes() {
        let base = baseline();
        assert_eq!(
            gate(&[spin_row("spin", 1, 7)], &base, base.host_cpus),
            Vec::<String>::new()
        );
    }

    /// The doubled row and its baseline are sampled alternately, so load
    /// from tests running alongside falls on both alike; each side keeps
    /// its fastest sample, as the gate does.
    #[test]
    fn a_row_doing_its_work_twice_fails() {
        let (single, doubled) = (spin_row("spin", 1, 7), spin_row("spin", 2, 7));
        let (mut base_op, mut doubled_op) = ((single.setup)(), (doubled.setup)());
        let ops = calibrate(&mut base_op);
        doubled_op();
        let mut fastest = [f64::INFINITY; 2];
        for _ in 0..MAX_SAMPLES {
            for (min, op) in fastest.iter_mut().zip([&mut base_op, &mut doubled_op]) {
                *min = min.min((0..ops).map(|_| op().ms).sum());
            }
        }
        let measured = |min_ms: f64| Measured {
            name: "spin".to_string(),
            layer: Layer::Run,
            ops,
            samples: MAX_SAMPLES,
            min_ms,
            median_ms: min_ms,
            max_ms: min_ms,
            counters: vec![("work".to_string(), 7)],
        };
        let (verdict, failures) = judge(&measured(fastest[0]), &measured(fastest[1]));
        assert_eq!(verdict, "SLOWER", "{failures:?}");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("x baseline"), "{failures:?}");
    }

    #[test]
    fn a_counter_mismatch_fails() {
        let base = baseline();
        let failures = gate(&[spin_row("spin", 1, 8)], &base, base.host_cpus);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("counters"), "{failures:?}");
    }

    #[test]
    fn a_row_missing_on_either_side_fails() {
        let base = baseline();
        let failures = gate(&[spin_row("other", 1, 7)], &base, base.host_cpus);
        assert_eq!(
            failures,
            [
                "spin: baseline row has no registry row",
                "other: registry row has no baseline row"
            ]
        );
    }

    #[test]
    fn a_host_cpus_mismatch_fails() {
        let base = baseline();
        let failures = gate(&[spin_row("spin", 1, 7)], &base, base.host_cpus + 1);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("host_cpus"), "{failures:?}");
    }

    #[test]
    fn the_committed_snapshot_round_trips_and_matches_the_registry() {
        let text = include_str!("../../../BENCH_13.json");
        let snapshot = Snapshot::parse(text).expect("BENCH_13.json parses");
        assert_eq!(snapshot.render(), text);
        let recorded: Vec<String> = snapshot.rows.into_iter().map(|r| r.name).collect();
        let registered: Vec<String> = registry().into_iter().map(|r| r.name).collect();
        assert_eq!(
            recorded, registered,
            "re-record BENCH_13.json after editing the registry"
        );
    }

    /// Runs every probe on one engine and returns its counter block per probe.
    fn obs_probe_rows() -> Vec<(&'static str, EvalStats)> {
        let mut engine = Engine::new();
        let doc = engine.load_document(&obs_doc()).expect("obs document");
        OBS_PROBES
            .iter()
            .map(|(name, src)| {
                let q = engine.compile(src).expect("obs probe compiles");
                engine.evaluate(&q, Some(doc)).expect("obs probe runs");
                (*name, *engine.last_stats())
            })
            .collect()
    }

    #[test]
    fn check_obs() {
        let rows = obs_probe_rows();
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .expect("probe row")
        };

        let join = get("hash_join");
        assert!(
            join.join_builds >= 1 && join.join_probes > 0,
            "hash join path did not count: {join:?}"
        );
        let range = get("index_range");
        assert!(
            range.index_hits > 0,
            "index-range path did not count: {range:?}"
        );
        let probe = get("attr_index_probe");
        assert!(
            probe.index_hits > 0,
            "attribute-index path did not count: {probe:?}"
        );
        let cache = get("cache_once");
        assert!(
            cache.cache_hits > 0,
            "CacheOnce path did not count: {cache:?}"
        );
        let stream = get("streamed_existence");
        assert!(
            stream.streamed_existence > 0,
            "streamed-existence path did not count: {stream:?}"
        );
        let index_existence = get("index_existence");
        assert!(
            index_existence.index_hits > 0,
            "index-existence path did not count: {index_existence:?}"
        );
        let pick = get("cursor_pick");
        assert!(
            pick.items_streamed > 0 && pick.cursor_early_exits > 0,
            "cursor-pick path did not stream or early-exit: {pick:?}"
        );
        for (name, stats) in &rows {
            println!("  {name:<20} {stats:?}");
        }

        // The cursor runtime: each streamed row's allocation ceiling is
        // pinned so the paths cannot quietly regress to materialising again
        // (BENCH_5/6 recorded 1000 allocations for the 100-tuple join probe;
        // the build side now streams its key extraction, and the
        // materialised prefix allocated 4208 items against a ceiling of 16).
        let axis_doc = axis_bench_doc();
        let obs = obs_doc();
        for (name, doc_xml, src, ceiling) in [
            (
                "stream_prefix",
                axis_doc.as_str(),
                "//item[position() <= 5]",
                16u64,
            ),
            ("stream_join", obs.as_str(), OBS_PROBES[0].1, 250),
        ] {
            let stats = stream_probe(doc_xml, src);
            assert!(
                stats.items_allocated <= ceiling,
                "{name}: streamed run blew its allocation ceiling ({} > {ceiling}): {stats:?}",
                stats.items_allocated
            );
            assert!(
                stats.items_streamed > 0,
                "{name}: streamed run did not count its pulls: {stats:?}"
            );
            println!(
                "  {name:<20} items_allocated {} (ceiling {ceiling}), {} pulled, {} early exit(s)",
                stats.items_allocated, stats.items_streamed, stats.cursor_early_exits
            );
        }

        // The store substrate must also count: parsed documents land in the
        // frozen arena, descendant sweeps are slice scans, snapshots are Arc
        // bumps, and adopt shares the records instead of copying nodes.
        let (stats, shared) = substrate_probe();
        assert!(
            stats.trees_frozen > 0,
            "parsed document did not land frozen: {stats:?}"
        );
        assert!(
            stats.arena_slice_scans > 0,
            "frozen descendant sweep did not count as a slice scan: {stats:?}"
        );
        assert_eq!(
            stats.tree_snapshots, 1,
            "snapshot() must count exactly once here: {stats:?}"
        );
        assert!(
            shared,
            "adopt must share the frozen records across stores (Arc identity)"
        );
        println!("  substrate {stats:?}, adopt shares records: {shared}");

        // Incremental maintenance. On a thawed tree, warm localized edits
        // must patch the live index in place (never rebuild), and the
        // whole-tree fallback must still fire on an oversized edit. On a
        // frozen tree, edits rewrite the table in place: no thaw, a commit
        // with nothing to do, and exact splice counts.
        {
            let mut s = xmlstore::Store::new();
            let doc = s
                .parse_str(&obs_doc(), &ParseOptions::data_oriented())
                .expect("obs doc parses");
            s.thaw(doc);
            let root = s.child_elements(doc)[0];
            let item = QName::from("item").local_sym();
            // The first query builds the live index lazily; that counts
            // neither as a patch nor as a rebuild.
            let probe = s.create_element("item").expect("element");
            s.insert_child(root, 0, probe).expect("insert");
            let n = s.descendant_elements_by_local(doc, item).len();
            s.detach(probe);
            let warm = s.stats();
            assert_eq!(
                warm.index_full_rebuilds, 0,
                "a lazy index build is not a rebuild: {warm:?}"
            );
            s.insert_child(root, 0, probe).expect("insert");
            assert_eq!(s.descendant_elements_by_local(doc, item).len(), n);
            s.detach(probe);
            let after = s.stats();
            assert!(
                after.index_repatches >= warm.index_repatches + 2,
                "warm localized edits must patch the live index: {after:?}"
            );
            assert_eq!(
                after.index_full_rebuilds, 0,
                "a localized edit must never discard the live index: {after:?}"
            );
            // Oversized edit: detaching the document element moves the whole
            // tree, where patching would cost more than rebuilding — the
            // fallback must fire exactly there.
            s.detach(root);
            s.append_child(doc, root).expect("reattach");
            let fallback = s.stats();
            assert!(
                fallback.index_full_rebuilds > 0,
                "the whole-tree fallback must stay available: {fallback:?}"
            );
            println!(
                "  incremental index: {} repatch(es), {} full rebuild(s) — fallback intact",
                fallback.index_repatches, fallback.index_full_rebuilds
            );

            // 303 records: the document, the root, 100 items with two
            // attributes each, and a leaf.
            let mut f = xmlstore::Store::new();
            let fdoc = f
                .parse_str(&obs_doc(), &ParseOptions::data_oriented())
                .expect("obs doc parses");
            let froot = f.child_elements(fdoc)[0];
            let first = f.child_elements(froot)[0];
            f.set_attribute(first, "k", "edited").expect("edit");
            assert_eq!(
                f.stats().records_shifted,
                0,
                "a value overwrite rewrites one record and moves none"
            );
            // Inserting before the first item: the root and the document
            // move their exits (2), the 301 records after the site move, and
            // the new record is written (1); detaching it moves them back.
            let probe = f.create_element("item").expect("element");
            f.insert_child(froot, 0, probe).expect("insert");
            assert_eq!(f.stats().records_shifted, 304, "insert splice");
            f.detach(probe);
            assert_eq!(f.stats().records_shifted, 608, "detach splice");
            let edited = f.stats();
            f.freeze(fdoc).expect("commit");
            assert!(f.is_frozen(fdoc) && f.is_frozen(probe));
            assert_eq!(f.stats(), edited, "a commit of an in-place edit is a no-op");
            assert_eq!((edited.trees_thawed, edited.trees_frozen), (0, 1));
            // The full rebuild still serves an explicitly thawed tree.
            f.thaw(fdoc);
            f.freeze(fdoc).expect("full freeze");
            assert_eq!(f.stats().trees_frozen, 2, "thaw then freeze rebuilds");
            println!(
                "  in-place edits: {} records shifted, no thaw, no-op commit",
                edited.records_shifted
            );
        }

        println!("  all observability counters check out");
    }

    /// Runs one query on a fresh engine and returns its counter block.
    fn stream_probe(doc_xml: &str, src: &str) -> EvalStats {
        let mut engine = Engine::new();
        let doc = engine
            .load_document(doc_xml)
            .expect("stream probe document");
        let q = engine.compile(src).expect("stream probe compiles");
        engine.evaluate(&q, Some(doc)).expect("stream probe runs");
        *engine.last_stats()
    }

    /// Exercises the frozen-arena lifecycle once on the obs document: a frozen
    /// descendant sweep, an O(1) snapshot, and a cross-store adopt. Returns the
    /// source store's substrate counters and whether the adopting store ended up
    /// sharing the same frozen records (Arc identity — the no-copy proof).
    fn substrate_probe() -> (xmlstore::StoreStats, bool) {
        let mut engine = Engine::new();
        let doc = engine
            .load_document(&obs_doc())
            .expect("substrate document");
        let q = engine.compile("count(//item)").expect("substrate probe");
        engine
            .evaluate(&q, Some(doc))
            .expect("substrate probe runs");
        let snap = engine
            .store()
            .snapshot(doc)
            .expect("parsed documents are frozen");
        let mut other = xmlstore::Store::new();
        let adopted = other.adopt(&snap).expect("adopt");
        let resnap = other.snapshot(adopted).expect("adopted trees stay frozen");
        let shared = xmlstore::TreeSnapshot::ptr_eq(&snap, &resnap);
        (engine.store().stats(), shared)
    }
}
