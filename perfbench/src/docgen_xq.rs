//! `docgen_xq`: the paper's workload. One closed loop generates one
//! document per op with the XQuery pipeline (compiled once in set-up;
//! per op `XqGenerator::with_compiled`, then `run`) from the
//! `SYSTEM_CONTEXT` template over IT-architecture models of 20 to 60 nodes.
//!
//! Phase-1 run time grows about n^2.5, so a change to the `xquery` runner
//! or to docgen shows here. It bypasses `qsvc`, the plan cache and store
//! writes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use awb::workload::{it_architecture, it_metamodel, ItScale};
use awb::{Metamodel, Model};
use docgen::batch::CompiledPipeline;
use docgen::xq::XqGenerator;
use docgen::{native, normalized_equal, GenInputs, Template};
use lopsided::templates::SYSTEM_CONTEXT;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xmlstore::Store;
use xquery::EvalStats;

use crate::report::{ratio, Failures, Outcome, RssAt};
use crate::svc_query::{eval_layers, shuffle};
use crate::trace::Trace;
use crate::{Config, Doubled, SETUP_REPS};

/// Model sizes, each generated as often as the others: every size from 20
/// to 60 nodes, so the median and the 90th percentile fall among many
/// models rather than on one.
const MODEL_SIZES: std::ops::RangeInclusive<usize> = 20..=60;
/// Models per size, each from its own seed, so that one model's shape does
/// not decide a size's cost.
const VARIANTS: u64 = 4;
/// Queries in the standard pipeline: the generator and four copy phases.
const PIPELINE_QUERIES: f64 = 5.0;
/// Documents after which the peak RSS is read (one model cycle).
const RSS_DOCS: u64 = 164;

struct Setup {
    meta: Metamodel,
    models: Vec<Model>,
    template: Template,
    pipeline: CompiledPipeline,
}

/// Model generation, the template parse and the pipeline compile.
fn setup(seed: u64, trace: &mut Trace) -> Result<Setup, String> {
    let meta = it_metamodel();
    let models = MODEL_SIZES
        .flat_map(|n| {
            (0..VARIANTS).map(move |v| {
                it_architecture(
                    ItScale::about(n),
                    seed.wrapping_mul(31).wrapping_add(v * 1000 + n as u64),
                )
            })
        })
        .collect();
    let template = trace
        .span("xmlstore.parse", || Template::parse(SYSTEM_CONTEXT))
        .map_err(|e| format!("template: {e:?}"))?;
    let pipeline = trace
        .span("xquery.compile_pipeline", CompiledPipeline::standard)
        .map_err(|e| format!("pipeline: {e}"))?;
    Ok(Setup {
        meta,
        models,
        template,
        pipeline,
    })
}

/// Per-doc sums the traced run turns into layer metrics.
#[derive(Default)]
struct Tally {
    docs: u64,
    phase_ns: BTreeMap<&'static str, u64>,
    copy_bytes: u64,
    stats: EvalStats,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut trace = Trace::new(cfg.traced, epoch, 0);
    let mut setup_s = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t = Instant::now();
        let s = setup(cfg.seed, &mut trace)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    let inputs: Vec<GenInputs> = s
        .models
        .iter()
        .map(|model| GenInputs {
            model,
            meta: &s.meta,
            template: &s.template,
        })
        .collect();
    // The oracle: the native generator's document for every model.
    let expected = inputs
        .iter()
        .map(|i| native::generate(i).map(|o| o.to_xml()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("native oracle: {e}"))?;

    let runs = if cfg.doubled == Some(Doubled::Run) {
        2
    } else {
        1
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = Vec::new();
    let mut failures = Failures::default();
    let (mut reads_ms, mut done_s) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let rss = RssAt::new(RSS_DOCS);
    let mut paused_s = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() - paused_s < cfg.seconds {
        if order.is_empty() {
            // A fresh seeded permutation per cycle keeps every model equally
            // frequent whatever the seed.
            order = (0..s.models.len()).collect();
            shuffle(&mut order, &mut rng);
        }
        let m = order.pop().expect("refilled above");
        trace.next_op();
        let span = trace.enter("docgen.doc");
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut generator = trace.span("docgen.prepare", || {
                XqGenerator::with_compiled(&inputs[m], &s.pipeline)
            })?;
            let mut out = trace.span("docgen.run", || generator.run());
            for _ in 1..runs {
                out = trace.span("docgen.run", || generator.run());
            }
            out
        }));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        trace.exit(span);

        let checked = Instant::now();
        let ok = match result {
            Err(_) => {
                failures.panics += 1;
                false
            }
            Ok(Err(_)) => {
                failures.err_frames += 1;
                false
            }
            Ok(Ok(out)) if !normalized_equal(&expected[m], &out.xml) => {
                failures.wrong += 1;
                false
            }
            Ok(Ok(out)) => {
                if cfg.traced {
                    tally.docs += 1;
                    for r in &out.phase_reports {
                        *tally.phase_ns.entry(r.name).or_default() += r.wall_ns;
                    }
                    tally.copy_bytes += out.phase_sizes.iter().sum::<usize>() as u64;
                    tally.stats.merge(&out.total_stats());
                }
                true
            }
        };
        paused_s += checked.elapsed().as_secs_f64();
        reads_ms.push(if ok { ms } else { f64::INFINITY });
        if ok {
            done_s.push(start.elapsed().as_secs_f64() - paused_s);
        }
        rss.op();
    }
    let wall_s = start.elapsed().as_secs_f64() - paused_s;

    let mut layers = Vec::new();
    if cfg.traced {
        // Layer probes after the timed phase, once per model: the model
        // export alone, and the native generator on the same inputs.
        for i in &inputs {
            trace.span("awb.export", || {
                awb::xmlio::export_to_store(i.model, &mut Store::new())
            });
            let _ = trace.span("docgen.native", || native::generate(i));
        }
        let totals = trace.totals();
        let mean_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
        let docs = tally.docs as f64;
        let phase_ms = |name: &str| {
            ratio(
                tally.phase_ns.get(name).copied().unwrap_or(0) as f64 / 1e6,
                docs,
            )
        };
        let evals = docs * PIPELINE_QUERIES;
        let run_ns: u64 = tally.phase_ns.values().sum();
        let compile = totals
            .get("xquery.compile_pipeline")
            .copied()
            .unwrap_or_default();
        let parse = totals.get("xmlstore.parse").copied().unwrap_or_default();
        layers.extend([
            ("docgen.prepare_ms", mean_ms("docgen.prepare")),
            ("docgen.phase.generate_ms", phase_ms("generate")),
            ("docgen.phase.omissions_ms", phase_ms("omissions")),
            ("docgen.phase.toc_ms", phase_ms("toc")),
            ("docgen.phase.markers_ms", phase_ms("markers")),
            ("docgen.phase.strip_ms", phase_ms("strip")),
            (
                "docgen.copy_kb_per_doc",
                ratio(tally.copy_bytes as f64 / 1024.0, docs),
            ),
            ("docgen.native_ms", mean_ms("docgen.native")),
            (
                "docgen.xq_over_native",
                ratio(mean_ms("docgen.doc"), mean_ms("docgen.native")),
            ),
            ("awb.export_ms", mean_ms("awb.export")),
            ("xquery.compile_us", compile.mean_us() / PIPELINE_QUERIES),
            ("xquery.run_us", ratio(run_ns as f64 / 1e3, evals)),
            (
                "xquery.pool.queue_wait_us",
                ratio(tally.stats.queue_wait_ns as f64 / 1e3, evals),
            ),
            (
                "xquery.pool.on_worker_us",
                ratio(tally.stats.on_worker_ns as f64 / 1e3, evals),
            ),
            ("xmlstore.parse_ms", parse.mean_ms()),
            (
                "xmlstore.parse_mb_per_s",
                ratio(SYSTEM_CONTEXT.len() as f64 / 1e6, parse.mean_ms() / 1e3),
            ),
        ]);
        layers.extend(eval_layers(&tally.stats, docs));
    }
    Ok(Outcome {
        setup_s,
        wall_s,
        done_s,
        // One window per model cycle: every window generates the same
        // documents.
        window: s.models.len(),
        attempted: reads_ms.len() as u64,
        reads_ms,
        writes_ms: Vec::new(),
        failures,
        peak_rss_mb: rss.mb(),
        layers,
        trace,
    })
}
