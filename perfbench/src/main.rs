//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <svc_query|docgen_xq|edit_mix> --seed <n> --seconds <s> --trace <0|1>
//!           [--double <query|evaluate|freeze|run>] [--trace-out <file>]
//! ```
//!
//! One workload per process. The seed fixes every generated input; the
//! program under test only ever sees those inputs. Every answer is checked
//! against an independent oracle outside the timed intervals.
//!
//! The last stdout line is the result: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics of an untraced run with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! The line before it is the full report: run metadata, workload-specific
//! metrics (`write_p50_ms`, `write_p90_ms`, `error_ratio`), the
//! informational p99/p99.9 tails and per-metric sample counts.
//!
//! `--double <call>` makes the benchmark call one layer's public function
//! twice where it would call it once — `Client::query` per svc op,
//! `Engine::evaluate` per edit-session read, `Store::freeze` per commit
//! (thaw and freeze again) or `XqGenerator::run` per document. The
//! sensitivity check uses it to show that a 2x slower layer moves the
//! end-to-end metric it is mapped to.
//!
//! The process pins itself to one CPU before any thread starts (see
//! [`cpu`]).

mod cpu;
mod docgen_xq;
mod edit_mix;
mod report;
mod svc_query;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use report::{beyond, median, num, percentile, ratio, sorted, string, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doubled {
    Query,
    Evaluate,
    Freeze,
    Run,
}

impl Doubled {
    fn parse(s: &str) -> Option<Doubled> {
        Some(match s {
            "query" => Doubled::Query,
            "evaluate" => Doubled::Evaluate,
            "freeze" => Doubled::Freeze,
            "run" => Doubled::Run,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Doubled::Query => "query",
            Doubled::Evaluate => "evaluate",
            Doubled::Freeze => "freeze",
            Doubled::Run => "run",
        }
    }
}

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub doubled: Option<Doubled>,
}

const WORKLOADS: [&str; 3] = ["svc_query", "docgen_xq", "edit_mix"];

/// The end-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`), with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run (`BENCHMARK.json` `per_layer`).
/// A layer a workload bypasses reports 0 and is listed under
/// `not_exercised` in the full report.
const PER_LAYER: [(&str, &str); 46] = [
    ("qsvc.queue_wait_us", "us"),
    ("qsvc.on_worker_us", "us"),
    ("qsvc.off_worker_us", "us"),
    ("qsvc.plan_hit_ratio", "ratio"),
    ("qsvc.plan_evictions", "count"),
    ("qsvc.doc_hit_ratio", "ratio"),
    ("qsvc.errors", "count"),
    ("qsvc.reply_bytes_per_op", "bytes"),
    ("xquery.compile_us", "us"),
    ("xquery.compile_share", "ratio"),
    ("xquery.run_us", "us"),
    ("xquery.serialize_us", "us"),
    ("xquery.items_allocated_per_op", "count"),
    ("xquery.items_streamed_per_op", "count"),
    ("xquery.index_hit_ratio", "ratio"),
    ("xquery.join_builds_per_op", "count"),
    ("xquery.join_fallback_ratio", "ratio"),
    ("xquery.cursor_early_exits_per_op", "count"),
    ("xquery.cache_hit_ratio", "ratio"),
    ("xquery.pool.queue_wait_us", "us"),
    ("xquery.pool.on_worker_us", "us"),
    ("xmlstore.parse_ms", "ms"),
    ("xmlstore.parse_mb_per_s", "MB/s"),
    ("xmlstore.edit_us", "us"),
    ("xmlstore.freeze_ms", "ms"),
    ("xmlstore.index_repatch_ratio", "ratio"),
    ("xmlstore.incremental_refreeze_ratio", "ratio"),
    ("xmlstore.thawed_read_share", "ratio"),
    ("xmlstore.slice_scans_per_read", "count"),
    ("docgen.prepare_ms", "ms"),
    ("docgen.phase.generate_ms", "ms"),
    ("docgen.phase.omissions_ms", "ms"),
    ("docgen.phase.toc_ms", "ms"),
    ("docgen.phase.markers_ms", "ms"),
    ("docgen.phase.strip_ms", "ms"),
    ("docgen.copy_kb_per_doc", "KB"),
    ("docgen.native_ms", "ms"),
    ("docgen.xq_over_native", "ratio"),
    ("docgen.incremental_ms", "ms"),
    ("docgen.chunks_rerun_ratio", "ratio"),
    ("awb.export_ms", "ms"),
    ("bench.trace_overhead.setup_s", "s"),
    ("bench.trace_overhead.ops_per_s", "ops/s"),
    ("bench.trace_overhead.p50_ms", "ms"),
    ("bench.trace_overhead.p90_ms", "ms"),
    ("bench.trace_overhead.peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    config: Config,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut doubled, mut trace_out) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--double" => {
                doubled =
                    Some(Doubled::parse(&value).ok_or("--double takes query|evaluate|freeze|run")?)
            }
            "--trace-out" => trace_out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: traced.unwrap_or(false),
            doubled,
        },
        trace_out,
    })
}

fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "svc_query" => svc_query::run(cfg),
        "docgen_xq" => docgen_xq::run(cfg),
        _ => edit_mix::run(cfg),
    }
}

/// The end-to-end figures of one outcome, `peak_rss_mb` as read now.
fn end_to_end(out: &Outcome) -> [f64; 5] {
    let reads = sorted(&out.reads_ms);
    [
        median(&out.setup_s),
        out.ops_per_s(),
        percentile(&reads, 50.0),
        percentile(&reads, 90.0),
        out.peak_rss_mb,
    ]
}

fn error_ratio(out: &Outcome) -> f64 {
    ratio(out.failures.total() as f64, out.attempted as f64)
}

/// `{"name": {"value": v, "unit": u}, ...}`
fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(*value),
                string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full report line: metadata, every end-to-end and workload metric
/// with its sample count, and the informational tails.
fn full_report(
    workload: &str,
    cfg: &Config,
    host_cpus: usize,
    pinned: Option<usize>,
    out: &Outcome,
    e2e: &[f64; 5],
    not_exercised: &[&str],
) -> String {
    let reads = sorted(&out.reads_ms);
    let writes = sorted(&out.writes_ms);
    let samples = |name: &str| match name {
        "setup_s" => out.setup_s.len(),
        "peak_rss_mb" => 1,
        "ops_per_s" => out.attempted as usize,
        _ => reads.len(),
    };
    let mut metrics: Vec<String> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), &v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                string(name),
                num(v),
                string(unit),
                samples(name)
            )
        })
        .collect();
    if !writes.is_empty() {
        for (name, p) in [("write_p50_ms", 50.0), ("write_p90_ms", 90.0)] {
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": \"ms\", \"samples\": {}, \"beyond\": {}}}",
                string(name),
                num(percentile(&writes, p)),
                writes.len(),
                beyond(&writes, p)
            ));
        }
    }
    metrics.push(format!(
        "\"error_ratio\": {{\"value\": {}, \"unit\": \"ratio\", \"samples\": {}}}",
        num(error_ratio(out)),
        out.attempted
    ));
    let mut info = Vec::new();
    for (label, sample, p) in [
        ("p99_ms", &reads, 99.0),
        ("p99.9_ms", &reads, 99.9),
        ("write_p99_ms", &writes, 99.0),
        ("write_p99.9_ms", &writes, 99.9),
    ] {
        if !sample.is_empty() {
            info.push(format!(
                "{}: {{\"value\": {}, \"unit\": \"ms\", \"samples\": {}, \"beyond\": {}}}",
                string(label),
                num(percentile(sample, p)),
                sample.len(),
                beyond(sample, p)
            ));
        }
    }
    let f = &out.failures;
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"double\": {}, \"host_cpus\": {}, \"pinned_cpu\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"metrics\": {{{}}}, \"informational\": {{{}}}, \
         \"failures\": {{\"err_frames\": {}, \"transport\": {}, \"panics\": {}, \"wrong\": {}}}, \
         \"not_exercised\": [{}]}}}}",
        string(workload),
        cfg.seed,
        cfg.seconds,
        cfg.traced,
        cfg.doubled.map_or("null".to_string(), |d| string(d.name())),
        host_cpus,
        pinned.map_or("null".to_string(), |c| c.to_string()),
        string(env!("PERFBENCH_RUSTC")),
        string(env!("PERFBENCH_GIT_COMMIT")),
        metrics.join(", "),
        info.join(", "),
        f.err_frames,
        f.transport,
        f.panics,
        f.wrong,
        not_exercised
            .iter()
            .map(|n| string(n))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before any thread exists: every thread inherits the mask.
    let pinned = cpu::pin_to_one();
    let workload = args.workload.as_str();
    let cfg = &args.config;

    // A traced run first measures an untraced half, then a traced half of
    // the same length: the difference is the tracing overhead.
    let untraced = if cfg.traced {
        let half = Config {
            seconds: cfg.seconds / 2.0,
            traced: false,
            ..*cfg
        };
        match run(workload, &half) {
            Ok(out) => Some((end_to_end(&out), out)),
            Err(e) => {
                eprintln!("perfbench: {workload} failed to run: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let measured = Config {
        seconds: if cfg.traced {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        },
        ..*cfg
    };
    let out = match run(workload, &measured) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload} failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let e2e = end_to_end(&out);

    let mut attempted = out.attempted;
    let mut failed = out.failures.total();
    let (metrics, not_exercised): (Vec<(&str, &str, f64)>, Vec<&str>) = match &untraced {
        None => (
            END_TO_END
                .iter()
                .zip(e2e)
                .map(|(&(n, u), v)| (n, u, v))
                .collect(),
            Vec::new(),
        ),
        Some((plain, plain_out)) => {
            attempted += plain_out.attempted;
            failed += plain_out.failures.total();
            let mut layers = out.layers.clone();
            for (i, (name, _)) in END_TO_END.iter().enumerate() {
                let key = PER_LAYER
                    .iter()
                    .find(|(n, _)| n.strip_prefix("bench.trace_overhead.") == Some(name))
                    .expect("an overhead metric per end-to-end metric")
                    .0;
                layers.push((key, e2e[i] - plain[i]));
            }
            let missing: Vec<&str> = PER_LAYER
                .iter()
                .map(|&(n, _)| n)
                .filter(|n| !layers.iter().any(|(l, _)| l == n))
                .collect();
            let metrics = PER_LAYER
                .iter()
                .map(|&(n, u)| {
                    (
                        n,
                        u,
                        layers.iter().find(|(l, _)| *l == n).map_or(0.0, |l| l.1),
                    )
                })
                .collect();
            (metrics, missing)
        }
    };
    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            out.trace.write_jsonl(&mut w)?;
            w.flush()
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {path}: {e}");
        }
    }
    println!(
        "{}",
        full_report(workload, cfg, host_cpus, pinned, &out, &e2e, &not_exercised)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
