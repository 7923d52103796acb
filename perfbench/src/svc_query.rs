//! `svc_query`: a closed loop of query clients against an in-process
//! `qsvc::Service` holding the XMark auction corpus.
//!
//! Every service layer is on the blocking path of an op: frame, plan cache
//! or compile, doc resolve, pool hop, run, serialize and reply. The mix is
//! Zipf-skewed `@id` point lookups over more distinct texts than the plan
//! cache holds, `subsequence` prefixes of varying length, the scenario join
//! and a few 3-query `BATCH`es. It bypasses docgen and store writes.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use awb::workload::{xmark_auction, XmarkScale};
use qsvc::{Client, ClientError, Service, ServiceConfig, TenantStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xquery::{Engine, EvalStats};

use crate::report::{ratio, Failures, Outcome, RssAt};
use crate::trace::Trace;
use crate::{Config, Doubled, SETUP_REPS};

/// Corpus size handed to `XmarkScale::about` (~308 KB of XML).
pub const CORPUS_NODES: usize = 20_000;
/// Closed-loop clients, one connection and one tenant each.
const CLIENTS: usize = 2;
/// Zipf exponent of the point-lookup popularity.
const ZIPF_S: f64 = 1.0;
pub const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
/// Longest `subsequence` prefix a stream op asks for.
const MAX_PREFIX: usize = 16;
const JOIN_QUERY: &str = "count(for $p in subsequence(/site/people/person, 1, 10) \
     for $a in /site/closed_auctions/closed_auction \
     where $a/buyer/@person = $p/@id return $a)";
/// Ops per throughput window.
const WINDOW_OPS: usize = 8192;
/// Ops (over both clients) after which the peak RSS is read.
const RSS_OPS: u64 = 20_000;
/// Ops the traced run replays in-process to time compile, run and
/// serialize separately.
const PROBE_OPS: usize = 2_000;

/// Every distinct query text the mix can send, and how the mix draws them.
struct Catalogue {
    texts: Vec<String>,
    /// Point-lookup text ids, most popular first (a seeded permutation).
    points: Vec<u32>,
    /// Cumulative Zipf weights over `points`.
    point_cdf: Vec<f64>,
    streams: Vec<u32>,
    join: u32,
}

impl Catalogue {
    fn new(scale: &XmarkScale, rng: &mut StdRng) -> Catalogue {
        let mut texts: Vec<String> = Vec::new();
        let mut family = |texts: &mut Vec<String>, n: usize, text: &dyn Fn(usize) -> String| {
            let mut ids: Vec<u32> = (0..n)
                .map(|i| {
                    texts.push(text(i));
                    (texts.len() - 1) as u32
                })
                .collect();
            shuffle(&mut ids, rng);
            ids
        };
        let families = [
            family(&mut texts, scale.people, &|p| {
                format!("string(/site/people/person[@id = \"person{p}\"]/name)")
            }),
            family(&mut texts, scale.people, &|p| {
                format!("/site/people/person[@id = \"person{p}\"]/emailaddress/text()")
            }),
            family(&mut texts, scale.items, &|i| {
                format!("string(/site/regions/*/item[@id = \"item{i}\"]/name)")
            }),
            family(&mut texts, scale.items, &|i| {
                format!("/site/regions/*/item[@id = \"item{i}\"]/quantity")
            }),
        ];
        // Popularity ranks go round-robin over the four query shapes, so
        // the seed picks which ids are hot but not which shapes.
        let longest = families.iter().map(Vec::len).max().unwrap_or(0);
        let points: Vec<u32> = (0..longest)
            .flat_map(|i| families.iter().filter_map(move |f| f.get(i).copied()))
            .collect();
        let mut acc = 0.0;
        let point_cdf = (1..=points.len())
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        let mut streams = Vec::new();
        for region in REGIONS {
            for k in 1..=MAX_PREFIX {
                texts.push(format!(
                    "subsequence(/site/regions/{region}/item, 1, {k})/name"
                ));
                streams.push((texts.len() - 1) as u32);
            }
        }
        texts.push(JOIN_QUERY.to_string());
        let join = (texts.len() - 1) as u32;
        Catalogue {
            texts,
            points,
            point_cdf,
            streams,
            join,
        }
    }

    fn point(&self, rng: &mut StdRng) -> u32 {
        let total = *self.point_cdf.last().expect("points exist");
        let u = rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64 * total;
        let rank = self.point_cdf.partition_point(|&c| c <= u);
        self.points[rank.min(self.points.len() - 1)]
    }

    fn stream(&self, rng: &mut StdRng) -> u32 {
        self.streams[rng.gen_range(0..self.streams.len())]
    }

    /// The op mix: 78% point lookups, 15% stream prefixes, 5% joins and 2%
    /// 3-query batches (a point, a stream prefix and another point). The
    /// slow classes stay well clear of 10% so that p90 does not sit on the
    /// boundary between two classes.
    fn next_op(&self, rng: &mut StdRng) -> Op {
        match rng.gen_range(0..100u32) {
            0..=77 => Op::Query(self.point(rng)),
            78..=92 => Op::Query(self.stream(rng)),
            93..=97 => Op::Query(self.join),
            _ => Op::Batch([self.point(rng), self.stream(rng), self.point(rng)]),
        }
    }
}

pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[derive(Clone, Copy)]
enum Op {
    Query(u32),
    Batch([u32; 3]),
}

impl Op {
    fn texts(&self) -> &[u32] {
        match self {
            Op::Query(t) => std::slice::from_ref(t),
            Op::Batch(ts) => ts,
        }
    }
}

fn hash_reply(reply: &str) -> u64 {
    let mut h = DefaultHasher::new();
    reply.hash(&mut h);
    h.finish()
}

struct Setup {
    service: Service,
    clients: Vec<Client>,
    corpus: String,
}

fn tenant(i: usize) -> String {
    format!("tenant-{i}")
}

/// Corpus generation, service spawn, client connects and the corpus `LOAD`.
fn setup(seed: u64, trace: &mut Trace) -> Result<Setup, String> {
    let corpus = xmark_auction(&XmarkScale::about(CORPUS_NODES), seed);
    let service = Service::spawn(ServiceConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let mut clients = (0..CLIENTS)
        .map(|i| Client::connect(service.addr(), Some(&tenant(i))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    trace
        .span("xmlstore.load", || clients[0].load("xmark", &corpus))
        .map_err(|e| format!("LOAD: {e}"))?;
    Ok(Setup {
        service,
        clients,
        corpus,
    })
}

/// What one client thread saw.
struct ClientRun {
    /// `(text id, reply hash)` per answered query, checked after the run.
    answers: Vec<(u32, u64)>,
    latencies_ms: Vec<f64>,
    /// Completion times of the answered ops, seconds after the start.
    done_s: Vec<f64>,
    queries: u64,
    reply_bytes: u64,
    failures: Failures,
    trace: Trace,
}

/// What every client thread shares.
struct Shared<'a> {
    addr: std::net::SocketAddr,
    cat: &'a Catalogue,
    cfg: &'a Config,
    /// Start and end of the timed phase, and the trace epoch.
    start: Instant,
    deadline: Instant,
    epoch: Instant,
    rss: &'a RssAt,
}

fn client_loop(mut client: Client, who: usize, sh: &Shared) -> ClientRun {
    let (cat, cfg) = (sh.cat, sh.cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9 * (who as u64 + 1)));
    let mut run = ClientRun {
        answers: Vec::new(),
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        queries: 0,
        reply_bytes: 0,
        failures: Failures::default(),
        trace: Trace::new(cfg.traced, sh.epoch, (who as u64) << 40),
    };
    let repeats = if cfg.doubled == Some(Doubled::Query) {
        2
    } else {
        1
    };
    while Instant::now() < sh.deadline {
        let op = cat.next_op(&mut rng);
        run.trace.next_op();
        let span = run.trace.enter(match op {
            Op::Query(_) => "qsvc.query",
            Op::Batch(_) => "qsvc.batch",
        });
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut replies = Vec::new();
            for _ in 0..repeats {
                replies = match op {
                    Op::Query(id) => vec![client.query("xmark", &cat.texts[id as usize])],
                    Op::Batch(ids) => {
                        let texts: Vec<&str> = ids
                            .iter()
                            .map(|&id| cat.texts[id as usize].as_str())
                            .collect();
                        match client.batch("xmark", &texts) {
                            Ok(slots) => slots
                                .into_iter()
                                .map(|s| s.map_err(ClientError::Service))
                                .collect(),
                            Err(e) => vec![Err(e)],
                        }
                    }
                };
            }
            replies
        }));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        run.trace.exit(span);
        run.queries += op.texts().len() as u64;
        let mut failed = true;
        match result {
            Err(_) => run.failures.panics += 1,
            Ok(replies) => match replies.iter().find_map(|r| r.as_ref().err()) {
                Some(ClientError::Service(_)) => run.failures.err_frames += 1,
                Some(ClientError::Io(_)) => {
                    run.failures.transport += 1;
                    // The connection is gone; later ops go through a new one.
                    match Client::connect(sh.addr, Some(&tenant(who))) {
                        Ok(c) => client = c,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
                None => {
                    failed = false;
                    for (&id, reply) in op.texts().iter().zip(replies) {
                        let reply = reply.expect("no error slots");
                        run.reply_bytes += reply.len() as u64;
                        run.answers.push((id, hash_reply(&reply)));
                    }
                }
            },
        }
        run.latencies_ms
            .push(if failed { f64::INFINITY } else { ms });
        if !failed {
            run.done_s.push(sh.start.elapsed().as_secs_f64());
        }
        sh.rss.op();
    }
    let _ = client.quit();
    run
}

fn tenant_totals(service: &Service) -> TenantStats {
    let mut total = TenantStats::default();
    for i in 0..CLIENTS {
        if let Some(t) = service.tenant_stats(&tenant(i)) {
            total.queries += t.queries;
            total.errors += t.errors;
            total.plan_hits += t.plan_hits;
            total.plan_misses += t.plan_misses;
            total.eval.merge(&t.eval);
        }
    }
    total
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut trace = Trace::new(cfg.traced, epoch, 1 << 48);
    let mut setup_s = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        // Drop (and so shut down) the previous repetition's service first.
        drop(ready.take());
        let t = Instant::now();
        let s = setup(cfg.seed, &mut trace)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let Setup {
        service,
        clients,
        corpus,
    } = ready.expect("at least one set-up");
    let load_ms = trace
        .totals()
        .get("xmlstore.load")
        .map_or(0.0, |t| t.mean_ms());

    // The oracle: every distinct text answered by the reference walker on
    // an engine of its own, before the clock starts.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cat = Catalogue::new(&XmarkScale::about(CORPUS_NODES), &mut rng);
    let expected = oracle(&corpus, &cat)?;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let rss = RssAt::new(RSS_OPS);
    let shared = Shared {
        addr: service.addr(),
        cat: &cat,
        cfg,
        start,
        deadline,
        epoch,
        rss: &rss,
    };
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(who, client)| {
                let shared = &shared;
                s.spawn(move || client_loop(client, who, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch their own panics"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    // The service is fresh and set-up sent it no query, so its totals are
    // the timed phase's.
    let (hits, misses, evictions, _) = service.plan_cache_counters();
    let (doc_hits, doc_misses, ..) = service.doc_cache_counters();
    let tenants = tenant_totals(&service);

    let mut failures = Failures::default();
    let (mut reads_ms, mut done_s) = (Vec::new(), Vec::new());
    let (mut queries, mut reply_bytes) = (0u64, 0u64);
    for r in &runs {
        failures.add(&r.failures);
        reads_ms.extend_from_slice(&r.latencies_ms);
        done_s.extend_from_slice(&r.done_s);
        queries += r.queries;
        reply_bytes += r.reply_bytes;
        failures.wrong += r
            .answers
            .iter()
            .filter(|&&(id, h)| expected[id as usize] != h)
            .count() as u64;
    }
    let attempted = reads_ms.len() as u64;
    done_s.sort_by(f64::total_cmp);

    let mut layers = Vec::new();
    if cfg.traced {
        let eval = tenants.eval;
        let served = tenants.queries as f64;
        let round_trip_us: f64 = reads_ms.iter().filter(|x| x.is_finite()).sum::<f64>() * 1e3;
        let queue_us = ratio(eval.queue_wait_ns as f64 / 1e3, served);
        let worker_us = ratio(eval.on_worker_ns as f64 / 1e3, served);
        let ids: Vec<u32> = runs[0]
            .answers
            .iter()
            .map(|&(id, _)| id)
            .take(PROBE_OPS)
            .collect();
        let probe = probe(&corpus, &cat, &ids, &mut trace)?;
        layers.extend([
            ("qsvc.queue_wait_us", queue_us),
            ("qsvc.on_worker_us", worker_us),
            (
                "qsvc.off_worker_us",
                ratio(round_trip_us, served) - queue_us - worker_us,
            ),
            (
                "qsvc.plan_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            ("qsvc.plan_evictions", evictions as f64),
            (
                "qsvc.doc_hit_ratio",
                ratio(doc_hits as f64, (doc_hits + doc_misses) as f64),
            ),
            ("qsvc.errors", tenants.errors as f64),
            (
                "qsvc.reply_bytes_per_op",
                ratio(reply_bytes as f64, attempted as f64),
            ),
            (
                "xquery.compile_share",
                ratio(misses as f64 * probe.compile_us, round_trip_us),
            ),
            ("xmlstore.parse_ms", load_ms),
            (
                "xmlstore.parse_mb_per_s",
                ratio(corpus.len() as f64 / 1e6, load_ms / 1e3),
            ),
        ]);
        layers.extend(eval_layers(&eval, served));
        layers.extend(probe.layers);
    }
    debug_assert_eq!(queries, tenants.queries);
    let mut all = trace;
    for r in runs {
        all.absorb(r.trace);
    }
    Ok(Outcome {
        setup_s,
        wall_s,
        done_s,
        window: WINDOW_OPS,
        reads_ms,
        writes_ms: Vec::new(),
        attempted,
        failures,
        peak_rss_mb: rss.mb(),
        layers,
        trace: all,
    })
}

/// Reference-walker answers (as reply hashes) for every catalogue text.
fn oracle(corpus: &str, cat: &Catalogue) -> Result<Vec<u64>, String> {
    let mut engine = Engine::new();
    let doc = engine.load_document(corpus).map_err(|e| e.to_string())?;
    cat.texts
        .iter()
        .map(|text| {
            let q = engine.compile(text).map_err(|e| format!("{text}: {e}"))?;
            let seq = engine
                .evaluate_reference(&q, Some(doc))
                .map_err(|e| format!("{text}: {e}"))?;
            Ok(hash_reply(&engine.display_sequence(&seq)))
        })
        .collect()
}

/// The `xquery` counter metrics from an `EvalStats` total over `ops` ops.
pub fn eval_layers(s: &EvalStats, ops: f64) -> Vec<(&'static str, f64)> {
    vec![
        (
            "xquery.items_allocated_per_op",
            ratio(s.items_allocated as f64, ops),
        ),
        (
            "xquery.items_streamed_per_op",
            ratio(s.items_streamed as f64, ops),
        ),
        (
            "xquery.index_hit_ratio",
            ratio(s.index_hits as f64, (s.index_hits + s.index_misses) as f64),
        ),
        (
            "xquery.join_builds_per_op",
            ratio(s.join_builds as f64, ops),
        ),
        (
            "xquery.join_fallback_ratio",
            ratio(
                s.join_fallbacks as f64,
                (s.join_probes + s.join_fallbacks) as f64,
            ),
        ),
        (
            "xquery.cursor_early_exits_per_op",
            ratio(s.cursor_early_exits as f64, ops),
        ),
        (
            "xquery.cache_hit_ratio",
            ratio(s.cache_hits as f64, (s.cache_hits + s.cache_resets) as f64),
        ),
    ]
}

struct Probe {
    compile_us: f64,
    layers: Vec<(&'static str, f64)>,
}

/// Replays `ids` in-process, timing `Engine::compile`, `Engine::evaluate`
/// and `Engine::display_sequence` separately: the split the service does
/// not report from outside.
fn probe(corpus: &str, cat: &Catalogue, ids: &[u32], trace: &mut Trace) -> Result<Probe, String> {
    let mut engine = Engine::new();
    let doc = engine.load_document(corpus).map_err(|e| e.to_string())?;
    let scans0 = engine.store().stats().arena_slice_scans;
    let mut pool = EvalStats::default();
    for &id in ids {
        trace.next_op();
        let text = &cat.texts[id as usize];
        let q = trace
            .span("xquery.compile", || engine.compile(text))
            .map_err(|e| e.to_string())?;
        let seq = trace
            .span("xquery.run", || engine.evaluate(&q, Some(doc)))
            .map_err(|e| e.to_string())?;
        pool.merge(engine.last_stats());
        trace.span("xquery.serialize", || engine.display_sequence(&seq));
    }
    let n = ids.len() as f64;
    let scans = engine.store().stats().arena_slice_scans - scans0;
    let totals = trace.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    Ok(Probe {
        compile_us: mean("xquery.compile"),
        layers: vec![
            ("xquery.compile_us", mean("xquery.compile")),
            ("xquery.run_us", mean("xquery.run")),
            ("xquery.serialize_us", mean("xquery.serialize")),
            (
                "xquery.pool.queue_wait_us",
                ratio(pool.queue_wait_ns as f64 / 1e3, n),
            ),
            (
                "xquery.pool.on_worker_us",
                ratio(pool.on_worker_ns as f64 / 1e3, n),
            ),
            ("xmlstore.slice_scans_per_read", ratio(scans as f64, n)),
        ],
    })
}
