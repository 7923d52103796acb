//! `edit_mix`: a single-thread editing session on one `Engine` holding the
//! XMark auction corpus.
//!
//! Writes are seeded attribute sets and small child inserts/detaches on
//! items, a commit (`Store::freeze`) every [`COMMIT_EVERY`] edits, and now
//! and then an AWB model edit carried into a 64-section handbook by
//! `IncrementalDoc::apply_edit`. Reads are point and path queries between
//! the edits, mostly served by the thawed substrate. It bypasses `qsvc` and
//! compile.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use awb::workload::{it_architecture, it_metamodel, xmark_auction, ItScale, XmarkScale};
use awb::{Metamodel, Model, NodeRef, PropValue};
use docgen::{native, EditFootprint, GenInputs, IncrementalDoc, Template};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlstore::{NodeId, Store};
use xquery::{CompiledQuery, Engine, EvalStats};

use crate::report::{ratio, Failures, Outcome, RssAt};
use crate::svc_query::{eval_layers, shuffle, CORPUS_NODES, REGIONS};
use crate::trace::Trace;
use crate::{Config, Doubled, SETUP_REPS};

/// Store edits per commit.
const COMMIT_EVERY: usize = 2;
/// Items the edits (and the item reads) land on.
const HOT_ITEMS: usize = 48;
/// People the point reads look up.
const HOT_PEOPLE: usize = 16;
/// Handbook model size and section count (one section per tagged subsystem).
const HANDBOOK_NODES: usize = 800;
const SECTIONS: usize = 64;
/// AWB model nodes the handbook edits touch.
const HANDBOOK_TARGETS: usize = 16;
/// Ops after which the peak RSS is read. The store keeps every node an
/// edit detached, so the session's footprint grows with the ops done.
const RSS_OPS: u64 = 10_000;
/// Ops per throughput window.
const WINDOW_OPS: usize = 4096;
/// One read in this many is re-checked against the reference walker.
const READ_CHECK_EVERY: u32 = 128;
/// One AWB edit in this many re-checks the whole handbook.
const DOC_CHECK_EVERY: u64 = 8;

struct Handbook {
    meta: Metamodel,
    model: Model,
    template: Template,
    targets: Vec<NodeRef>,
    doc: IncrementalDoc,
}

impl Handbook {
    fn inputs(&self) -> GenInputs<'_> {
        GenInputs {
            model: &self.model,
            meta: &self.meta,
            template: &self.template,
        }
    }

    /// Byte equality with a from-scratch native run over the current model.
    fn matches_fresh(&self) -> bool {
        native::generate(&self.inputs()).is_ok_and(|fresh| fresh.to_xml() == self.doc.to_xml())
    }
}

/// A table of contents, then one section per tagged subsystem listing the
/// programs it `has`. A one-program edit dirties one section.
fn handbook_template() -> Result<Template, String> {
    let mut t = String::from("<template><h1>Subsystem handbook</h1><table-of-contents/>");
    for i in 0..SECTIONS {
        t.push_str(&format!(
            "<section heading=\"Subsystem {i}\"><for><query>\
             <start type=\"Subsystem\"/><filter-property name=\"sect\" equals=\"s{i}\"/>\
             <follow relation=\"has\" target-type=\"Program\"/><sort-by-label/></query>\
             <p><label/>: <value-of property=\"language\" default=\"undocumented\"/></p>\
             </for></section>"
        ));
    }
    t.push_str("</template>");
    Template::parse(&t).map_err(|e| format!("handbook template: {e:?}"))
}

fn handbook(seed: u64, trace: &mut Trace) -> Result<Handbook, String> {
    let meta = it_metamodel();
    let mut model = it_architecture(ItScale::about(HANDBOOK_NODES), seed);
    let subsystems = model.nodes_of_type("Subsystem", &meta);
    if subsystems.len() < SECTIONS {
        return Err(format!("only {} subsystems", subsystems.len()));
    }
    for (i, &s) in subsystems.iter().take(SECTIONS).enumerate() {
        model.set_prop(s, "sect", PropValue::Str(format!("s{i}")));
    }
    let targets: Vec<NodeRef> = subsystems
        .iter()
        .take(SECTIONS)
        .flat_map(|&s| model.follow_forward(s, "has", &meta))
        .filter(|&n| model.node_type(n) == "Program")
        .take(HANDBOOK_TARGETS)
        .collect();
    if targets.is_empty() {
        return Err("no program under a tagged subsystem".to_string());
    }
    let template = handbook_template()?;
    let doc = trace
        .span("docgen.incremental_generate", || {
            IncrementalDoc::generate(&GenInputs {
                model: &model,
                meta: &meta,
                template: &template,
            })
        })
        .map_err(|e| format!("handbook: {e}"))?;
    Ok(Handbook {
        meta,
        model,
        template,
        targets,
        doc,
    })
}

struct Setup {
    engine: Engine,
    doc: NodeId,
    corpus_bytes: usize,
    reads: Vec<CompiledQuery>,
    items: Vec<NodeId>,
    handbook: Handbook,
}

/// Every `item` element of the corpus, keyed by its position in `@id`
/// order (`item0`, `item1`, ...).
fn items_by_id(store: &Store, doc: NodeId) -> Result<Vec<NodeId>, String> {
    let site = store.document_element(doc).ok_or("no document element")?;
    let regions = store
        .child_element_named(site, "regions")
        .ok_or("no regions")?;
    let mut items: Vec<(usize, NodeId)> = Vec::new();
    for region in store.child_elements(regions) {
        for item in store.child_elements_named(region, "item") {
            let id = store
                .attribute_value(item, "id")
                .and_then(|v| v.strip_prefix("item"))
                .and_then(|n| n.parse().ok())
                .ok_or("item without a numeric @id")?;
            items.push((id, item));
        }
    }
    items.sort_unstable();
    Ok(items.into_iter().map(|(_, n)| n).collect())
}

/// Corpus generation and load, read-query compile, and the handbook.
fn setup(seed: u64, trace: &mut Trace) -> Result<Setup, String> {
    let scale = XmarkScale::about(CORPUS_NODES);
    let corpus = xmark_auction(&scale, seed);
    let mut engine = Engine::new();
    let doc = trace
        .span("xmlstore.parse", || engine.load_document(&corpus))
        .map_err(|e| e.to_string())?;
    let all_items = items_by_id(engine.store(), doc)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hot: Vec<usize> = (0..all_items.len()).collect();
    shuffle(&mut hot, &mut rng);
    hot.truncate(HOT_ITEMS);
    let mut texts: Vec<String> = hot
        .iter()
        .map(|i| {
            let item = format!("/site/regions/*/item[@id = \"item{i}\"]");
            format!("concat(string({item}/@touched), \"/\", count({item}/note))")
        })
        .collect();
    texts.extend(
        (0..HOT_PEOPLE)
            .map(|_| rng.gen_range(0..scale.people))
            .map(|p| format!("string(/site/people/person[@id = \"person{p}\"]/name)")),
    );
    texts.extend(
        REGIONS
            .iter()
            .map(|r| format!("count(/site/regions/{r}/item/note)")),
    );
    let reads = texts
        .into_iter()
        .map(|text| {
            trace
                .span("xquery.compile", || engine.compile(&text))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let handbook = handbook(seed, trace)?;
    Ok(Setup {
        engine,
        doc,
        corpus_bytes: corpus.len(),
        reads,
        items: hot.iter().map(|&i| all_items[i]).collect(),
        handbook,
    })
}

#[derive(Clone, Copy)]
enum Edit {
    SetAttribute,
    Insert { at_per_mille: usize },
    Detach { pick: usize },
}

enum Op {
    Read(usize),
    Edit { item: usize, edit: Edit },
    Commit,
    Awb(usize),
}

fn apply_edit(
    store: &mut Store,
    item: NodeId,
    notes: &mut Vec<NodeId>,
    edit: Edit,
    serial: u64,
) -> Result<(), xmlstore::XmlError> {
    match edit {
        Edit::Detach { pick } if !notes.is_empty() => {
            let note = notes.swap_remove(pick % notes.len());
            store.detach(note);
        }
        Edit::SetAttribute => {
            store.set_attribute(item, "touched", serial.to_string())?;
        }
        Edit::Insert { at_per_mille } | Edit::Detach { pick: at_per_mille } => {
            let note = store.create_element("note")?;
            store.set_attribute(note, "serial", serial.to_string())?;
            let at = store.child_count(item) * (at_per_mille % 1000) / 1000;
            store.insert_child(item, at, note)?;
            notes.push(note);
        }
    }
    Ok(())
}

/// The reference walker's rendering of `q` on the engine's current store.
fn reference(engine: &mut Engine, q: &CompiledQuery, doc: NodeId) -> Option<String> {
    let seq = engine.evaluate_reference(q, Some(doc)).ok()?;
    Some(engine.display_sequence(&seq))
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
    let Setup {
        mut engine,
        doc,
        corpus_bytes,
        reads,
        items,
        mut handbook,
    } = ready.expect("at least one set-up");
    let chunks = handbook.doc.chunk_count() as f64;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xed17);
    let mut notes: Vec<Vec<NodeId>> = vec![Vec::new(); items.len()];
    let mut failures = Failures::default();
    let (mut reads_ms, mut writes_ms, mut done_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut serial, mut edits_since_commit, mut awb_edits) = (0u64, 0usize, 0u64);
    let (mut thawed_reads, mut chunks_rerun) = (0u64, 0usize);
    let mut eval = EvalStats::default();
    let store0 = engine.store().stats();
    let rss = RssAt::new(RSS_OPS);
    let mut paused_s = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() - paused_s < cfg.seconds {
        rss.op();
        serial += 1;
        let failed_before = failures.total();
        let op = if edits_since_commit == COMMIT_EVERY {
            Op::Commit
        } else {
            // Reads fall into three groups: after a read (fast), after an
            // edit (the index is patched first) and the first after a
            // commit (the fresh layout is indexed first). 70% reads and a
            // commit every 2 edits keep the groups near 68%, 12% and 20%
            // of reads, so p50 and p90 each land inside one group; among
            // writes, commits are a third, and p90 lands among them.
            match rng.gen_range(0..1000u32) {
                0..=699 => Op::Read(rng.gen_range(0..reads.len())),
                700..=979 => Op::Edit {
                    item: rng.gen_range(0..items.len()),
                    edit: match rng.gen_range(0..4u32) {
                        0 | 1 => Edit::SetAttribute,
                        2 => Edit::Insert {
                            at_per_mille: rng.gen_range(0..1000),
                        },
                        _ => Edit::Detach {
                            pick: rng.gen_range(0..1000),
                        },
                    },
                },
                _ => Op::Awb(rng.gen_range(0..handbook.targets.len())),
            }
        };
        let check = rng.gen_range(0..READ_CHECK_EVERY) == 0;
        trace.next_op();
        match op {
            Op::Read(r) => {
                let q = &reads[r];
                thawed_reads += u64::from(!engine.store().is_frozen(doc));
                let evaluations = if cfg.doubled == Some(Doubled::Evaluate) {
                    2
                } else {
                    1
                };
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut seq = trace.span("xquery.run", || engine.evaluate(q, Some(doc)));
                    for _ in 1..evaluations {
                        seq = trace.span("xquery.run", || engine.evaluate(q, Some(doc)));
                    }
                    seq.map(|seq| trace.span("xquery.serialize", || engine.display_sequence(&seq)))
                }));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let paused = Instant::now();
                eval.merge(engine.last_stats());
                let ok = match result {
                    Err(_) => {
                        failures.panics += 1;
                        false
                    }
                    Ok(Err(_)) => {
                        failures.err_frames += 1;
                        false
                    }
                    Ok(Ok(text))
                        if check
                            && reference(&mut engine, q, doc).as_deref() != Some(text.as_str()) =>
                    {
                        failures.wrong += 1;
                        false
                    }
                    Ok(Ok(_)) => true,
                };
                paused_s += paused.elapsed().as_secs_f64();
                reads_ms.push(if ok { ms } else { f64::INFINITY });
            }
            Op::Edit { item, edit } => {
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    trace.span("xmlstore.edit", || {
                        apply_edit(
                            engine.store_mut(),
                            items[item],
                            &mut notes[item],
                            edit,
                            serial,
                        )
                    })
                }));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                edits_since_commit += 1;
                writes_ms.push(match result {
                    Ok(Ok(())) => ms,
                    Ok(Err(_)) => {
                        failures.err_frames += 1;
                        f64::INFINITY
                    }
                    Err(_) => {
                        failures.panics += 1;
                        f64::INFINITY
                    }
                });
            }
            Op::Commit => {
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let store = engine.store_mut();
                    trace.span("xmlstore.freeze", || store.freeze(doc))?;
                    if cfg.doubled == Some(Doubled::Freeze) {
                        store.thaw(doc);
                        trace.span("xmlstore.freeze", || store.freeze(doc))?;
                    }
                    Ok::<_, xmlstore::XmlError>(())
                }));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                edits_since_commit = 0;
                writes_ms.push(match result {
                    Ok(Ok(())) => ms,
                    Ok(Err(_)) => {
                        failures.err_frames += 1;
                        f64::INFINITY
                    }
                    Err(_) => {
                        failures.panics += 1;
                        f64::INFINITY
                    }
                });
            }
            Op::Awb(target) => {
                awb_edits += 1;
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let node = handbook.targets[target];
                    trace.span("awb.edit", || {
                        handbook.model.set_prop(
                            node,
                            "language",
                            PropValue::Str(format!("lang-{serial}")),
                        )
                    });
                    let footprint = EditFootprint::new().touch_node(node);
                    let inputs = GenInputs {
                        model: &handbook.model,
                        meta: &handbook.meta,
                        template: &handbook.template,
                    };
                    trace.span("docgen.incremental", || {
                        handbook.doc.apply_edit(&inputs, &footprint)
                    })
                }));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let paused = Instant::now();
                let ok = match result {
                    Err(_) => {
                        failures.panics += 1;
                        false
                    }
                    Ok(Err(_)) => {
                        failures.err_frames += 1;
                        false
                    }
                    Ok(Ok(_)) if awb_edits % DOC_CHECK_EVERY == 0 && !handbook.matches_fresh() => {
                        failures.wrong += 1;
                        false
                    }
                    Ok(Ok(reran)) => {
                        chunks_rerun += reran;
                        true
                    }
                };
                paused_s += paused.elapsed().as_secs_f64();
                writes_ms.push(if ok { ms } else { f64::INFINITY });
            }
        }
        if failures.total() == failed_before {
            done_s.push(start.elapsed().as_secs_f64() - paused_s);
        }
    }
    let wall_s = start.elapsed().as_secs_f64() - paused_s;
    let store1 = engine.store().stats();

    // Final checkpoint: every read against the reference walker, and the
    // handbook against a fresh native run.
    for q in &reads {
        let fast = engine
            .evaluate(q, Some(doc))
            .map(|s| engine.display_sequence(&s))
            .ok();
        if fast.is_none() || fast != reference(&mut engine, q, doc) {
            failures.wrong += 1;
        }
    }
    if !handbook.matches_fresh() {
        failures.wrong += 1;
    }

    let mut layers = Vec::new();
    if cfg.traced {
        let totals = trace.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let n_reads = reads_ms.len() as f64;
        let parse = get("xmlstore.parse");
        let delta = |f: fn(&xmlstore::StoreStats) -> u64| (f(&store1) - f(&store0)) as f64;
        let repatches = delta(|s| s.index_repatches);
        layers.extend([
            ("xquery.compile_us", get("xquery.compile").mean_us()),
            ("xquery.run_us", get("xquery.run").mean_us()),
            ("xquery.serialize_us", get("xquery.serialize").mean_us()),
            (
                "xquery.pool.queue_wait_us",
                ratio(eval.queue_wait_ns as f64 / 1e3, n_reads),
            ),
            (
                "xquery.pool.on_worker_us",
                ratio(eval.on_worker_ns as f64 / 1e3, n_reads),
            ),
            ("xmlstore.parse_ms", parse.mean_ms()),
            (
                "xmlstore.parse_mb_per_s",
                ratio(corpus_bytes as f64 / 1e6, parse.mean_ms() / 1e3),
            ),
            ("xmlstore.edit_us", get("xmlstore.edit").mean_us()),
            ("xmlstore.freeze_ms", get("xmlstore.freeze").mean_ms()),
            (
                "xmlstore.index_repatch_ratio",
                ratio(repatches, repatches + delta(|s| s.index_full_rebuilds)),
            ),
            (
                "xmlstore.incremental_refreeze_ratio",
                ratio(
                    delta(|s| s.trees_refrozen_incremental),
                    delta(|s| s.trees_frozen),
                ),
            ),
            (
                "xmlstore.thawed_read_share",
                ratio(thawed_reads as f64, n_reads),
            ),
            (
                "xmlstore.slice_scans_per_read",
                ratio(delta(|s| s.arena_slice_scans), n_reads),
            ),
            ("docgen.incremental_ms", get("docgen.incremental").mean_ms()),
            (
                "docgen.chunks_rerun_ratio",
                ratio(chunks_rerun as f64, awb_edits as f64 * chunks),
            ),
        ]);
        layers.extend(eval_layers(&eval, n_reads));
    }
    Ok(Outcome {
        setup_s,
        wall_s,
        done_s,
        window: WINDOW_OPS,
        attempted: (reads_ms.len() + writes_ms.len()) as u64,
        reads_ms,
        writes_ms,
        failures,
        peak_rss_mb: rss.mb(),
        layers,
        trace,
    })
}
