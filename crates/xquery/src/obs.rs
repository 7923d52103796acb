//! Observability: per-query runtime counters, the pluggable trace sink,
//! and the `explain()` plan renderer.
//!
//! The paper's sharpest operational complaint is that Galax's optimiser
//! silently deleted `fn:trace` calls — the author was debugging a black
//! box. This engine has since grown four layers of its own (lower → lopt →
//! run → pool) whose rewrites fire invisibly, so this module makes every
//! one of them observable:
//!
//! * [`EvalStats`] — a per-query counter block filled in by the runner as
//!   it executes. One evaluation runs on exactly one pool worker, so the
//!   counters are plain `u64`s threaded by `&mut` — lock-free by
//!   construction, merged into [`Engine::last_stats`](crate::Engine) when
//!   the evaluation completes.
//! * [`TraceSink`] / [`TraceEvent`] — `fn:trace` becomes a routed side
//!   effect instead of a bare string push. Events carry the query position
//!   and the traced value, and survive every *runtime* pass by
//!   construction: the lopt hoister caches only pure calls (never
//!   `fn:trace`, nor a user function that can reach it), the hash join
//!   refuses operands containing calls, and the cursor admits no predicate
//!   but a positional literal — so the only thing that can delete a trace
//!   is the paper-faithful quirks-mode AST optimiser, which is itself under
//!   test.
//! * [`explain`] — renders the lowered-and-optimised [`Program`] as an
//!   annotated plan tree: which `for` clause got the hash-join mark (and
//!   why a candidate `where` was refused), which subexpressions were
//!   hoisted into `CacheOnce` cells, which predicate prefixes were split
//!   into cells of their own, which calls stream or answer from the
//!   store's indexes.

use crate::ast::Axis;
use crate::lopt::{self, PlanStats};
use crate::lower::{LExpr, LFlworClause, Program};
use std::collections::HashMap;

// ----------------------------------------------------------------------
// Per-query counters
// ----------------------------------------------------------------------

/// Counters for one evaluation through the lowered runner. All counts are
/// deterministic for a given (program, store) pair — the differential and
/// proptest suites pin that they are invariant across worker counts — while
/// the two `*_ns` fields are wall-clock measurements and are excluded from
/// those comparisons (see [`EvalStats::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Index-backed fast paths taken: fused `//name` / `//@name` steps,
    /// the `count(//name)` range answer, and fused `[@attr = v]` probes
    /// served by the attribute-value index.
    pub index_hits: u64,
    /// Gated index fast paths that bailed to the generic scan (non-string
    /// comparand, non-singleton scope node, …).
    pub index_misses: u64,
    /// Hash tables built for the FLWOR join (at most one per distinct
    /// final-clause sequence per FLWOR evaluation).
    pub join_builds: u64,
    /// Tuples answered by probing a join table.
    pub join_probes: u64,
    /// Tuples that fell back to the plain scan (non-string key or probe
    /// atoms made the table unusable).
    pub join_fallbacks: u64,
    /// `CacheOnce` reads served from an already-filled cell.
    pub cache_hits: u64,
    /// `CacheOnce` cells cleared by a `for` clause (entry and per-tuple
    /// resets combined).
    pub cache_resets: u64,
    /// `exists`/`empty`/`boolean`/`not` calls (and `where`/`if`/`and`/`or`/
    /// `satisfies` positions) answered by the first pull of a path cursor
    /// instead of materialising the path.
    pub streamed_existence: u64,
    /// Items appended to materialised sequences by the runner: FLWOR tuple
    /// output, per-step path results (descendant expansions, step maps,
    /// fused index answers). The number the cursor runtime exists to drive
    /// down — `check-obs` pins the streamed/materialised ratio.
    pub items_allocated: u64,
    /// Items emitted by a streaming path cursor — pulled one at a time by a
    /// consumer instead of being appended to an intermediate sequence.
    pub items_streamed: u64,
    /// Cursors abandoned before exhaustion: a prefix consumer, quantifier,
    /// positional filter, or existential compare decided it needed no more
    /// items while the walk still had frames left.
    pub cursor_early_exits: u64,
    /// Nodes deep-copied into constructed content (attributes included).
    /// Each constructor copies its content, so nesting re-copies it once
    /// per level: the cost no other counter shows.
    pub nodes_copied: u64,
    /// Nanoseconds the evaluation job waited in the pool queue before a
    /// worker picked it up. Zero when run inline on a worker.
    pub queue_wait_ns: u64,
    /// Nanoseconds the job spent running on its worker.
    pub on_worker_ns: u64,
}

impl EvalStats {
    /// Field-wise sum, for aggregating per-job stats over a batch.
    pub fn merge(&mut self, other: &EvalStats) {
        self.index_hits += other.index_hits;
        self.index_misses += other.index_misses;
        self.join_builds += other.join_builds;
        self.join_probes += other.join_probes;
        self.join_fallbacks += other.join_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_resets += other.cache_resets;
        self.streamed_existence += other.streamed_existence;
        self.items_allocated += other.items_allocated;
        self.items_streamed += other.items_streamed;
        self.cursor_early_exits += other.cursor_early_exits;
        self.nodes_copied += other.nodes_copied;
        self.queue_wait_ns += other.queue_wait_ns;
        self.on_worker_ns += other.on_worker_ns;
    }

    /// The deterministic counters only — timing zeroed — for comparisons
    /// that must hold across worker counts and machines.
    pub fn counters(&self) -> EvalStats {
        EvalStats {
            queue_wait_ns: 0,
            on_worker_ns: 0,
            ..*self
        }
    }
}

/// Time one pool job spent queued and running, as measured by the pool
/// itself (see [`StackPool::run_timed`](crate::StackPool)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolTiming {
    pub queue_wait_ns: u64,
    pub on_worker_ns: u64,
}

// ----------------------------------------------------------------------
// Trace sink
// ----------------------------------------------------------------------

/// One `fn:trace` firing (or a pipeline-phase report routed through the
/// same channel): the label is every argument but the last, the value is
/// the last argument — the early-Galax contract where `trace` returns its
/// final argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// All arguments before the last, rendered and space-joined (empty for
    /// a one-argument `trace`).
    pub label: String,
    /// The last argument, rendered — the value `trace` returned.
    pub value: String,
    /// 1-based line/column of the `trace` call (or `(0, 0)` for synthetic
    /// events such as docgen phase reports).
    pub position: (u32, u32),
}

impl TraceEvent {
    /// The exact string the pre-sink engine pushed for this event: all
    /// arguments space-joined. The legacy `Engine::take_trace` API is
    /// reconstructed from this, byte for byte.
    pub fn legacy_line(&self) -> String {
        if self.label.is_empty() {
            self.value.clone()
        } else {
            format!("{} {}", self.label, self.value)
        }
    }
}

/// Where trace events go. The engine always records events internally (for
/// `take_trace`/`take_trace_events`); an extra sink installed with
/// [`Engine::set_trace_sink`](crate::Engine) sees every event as it fires —
/// a live debugger, a log forwarder, a test probe.
///
/// `Send + Sync` is required because the engine (which owns the sink) is
/// itself shared with pool worker threads; the sink is still only ever
/// driven by one evaluation at a time, through `&mut`.
pub trait TraceSink: Send + Sync {
    fn event(&mut self, event: TraceEvent);
}

impl TraceSink for Vec<TraceEvent> {
    fn event(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

// ----------------------------------------------------------------------
// explain()
// ----------------------------------------------------------------------

/// How a synthetic `CacheOnce` slot is reset, recovered from the `for`
/// clauses that own it.
#[derive(Clone, Copy)]
enum ResetKind {
    Entry,
    Iter,
}

/// Renders the lowered-and-optimised program as an annotated plan tree.
///
/// Every lopt rewrite is visible: `for` clauses carry their hash-join mark
/// (or the reason the mark was refused when the `where` looked like a
/// candidate), `CacheOnce` cells say whether they are loop-invariant
/// hoists or per-tuple caches, and each predicate-split cell says how many
/// leading predicates it holds and how it resets. Each `path` node says
/// how the runner will evaluate it, and that depends on its consumer
/// ([`PathUse`]): the same `//a/b` is pulled by a cursor under `exists`,
/// `count`, a `for` binding or an `if` condition, and materialised by the
/// step loop (its `//` step answered from the name index) anywhere else.
pub fn explain(program: &Program, plan_stats: &PlanStats) -> String {
    let mut resets = HashMap::new();
    collect_resets(&program.body, &mut resets);
    for f in &program.functions {
        collect_resets(&f.body, &mut resets);
    }
    for g in &program.globals {
        collect_resets(&g.expr, &mut resets);
    }
    let mut out = format!(
        "plan: {} hash join(s), {} invariant hoist(s), {} per-tuple cache(s), {} streamable binding(s), \
         {} call(s) hoisted, {} predicate split(s)\n",
        plan_stats.hash_joins,
        plan_stats.hoisted_invariant,
        plan_stats.cached_per_tuple,
        plan_stats.streamable_bindings,
        plan_stats.calls_hoisted,
        plan_stats.predicate_splits
    );
    let cx = ExplainCx {
        program,
        resets: &resets,
    };
    for f in &program.functions {
        out.push_str(&format!("function {}:\n", f.name));
        render(&f.body, 1, PathUse::Value, &cx, &mut out);
    }
    for g in &program.globals {
        out.push_str(&format!("global ${}:\n", g.name));
        render(&g.expr, 1, PathUse::Value, &cx, &mut out);
    }
    render(&program.body, 0, PathUse::Value, &cx, &mut out);
    out
}

struct ExplainCx<'a> {
    program: &'a Program,
    resets: &'a HashMap<u32, ResetKind>,
}

/// How the runner consumes a `path` node. The node's parent decides it
/// ([`path_uses`]), mirroring the consumer gates in `run.rs`.
#[derive(Clone, Copy)]
enum PathUse {
    /// Evaluated for its value by the step loop.
    Value,
    /// Existence or effective boolean value: `exists`/`empty`/`boolean`/
    /// `not`, and the `if`, `where`, `and`/`or` and `satisfies` positions.
    Exists,
    /// The argument of `count`.
    Count,
    /// Pulled through a cursor by its consumer when the path streams; the
    /// text says what the consumer does with the pulls.
    Pulled(&'static str),
}

const STREAMED_BINDING: &str = "streamed binding: tuples pulled from a cursor";

/// The children of `e` that its runner arm consumes as something other than
/// a plain value; every other child is [`PathUse::Value`].
fn path_uses(e: &LExpr) -> Vec<(&LExpr, PathUse)> {
    use crate::functions::Builtin as B;
    match e {
        LExpr::If(c, ..) => vec![(&**c, PathUse::Exists)],
        LExpr::And(l, r) | LExpr::Or(l, r) => {
            vec![(&**l, PathUse::Exists), (&**r, PathUse::Exists)]
        }
        LExpr::Quantified {
            bindings,
            satisfies,
            ..
        } => bindings
            .iter()
            .map(|(_, seq)| (seq, PathUse::Pulled(STREAMED_BINDING)))
            .chain([(&**satisfies, PathUse::Exists)])
            .collect(),
        // The runner streams the left operand when it is a path, and the
        // right one only when the left is not a path.
        LExpr::GeneralCmp(_, l, r) => {
            let side = if matches!(**l, LExpr::Path { .. }) {
                l
            } else {
                r
            };
            vec![(
                &**side,
                PathUse::Pulled("streamed comparison: pulls stop at the first hit"),
            )]
        }
        LExpr::Filter(base, predicates) => match predicates.as_slice() {
            [p] if crate::cursor::positional_predicate(p).is_some() => vec![(
                &**base,
                PathUse::Pulled("streamed filter: pulls stop past the last wanted position"),
            )],
            _ => Vec::new(),
        },
        LExpr::CallBuiltin { builtin, args, .. } => {
            let literal = |i: usize| {
                args.get(i)
                    .is_some_and(|a| crate::run::int_literal(a).is_some())
            };
            let use_ = match builtin {
                B::Exists | B::Empty | B::Boolean | B::Not => PathUse::Exists,
                B::Count => PathUse::Count,
                B::Subsequence if literal(1) && (args.len() == 2 || literal(2)) => {
                    PathUse::Pulled("streamed subsequence: stops pulling past the window")
                }
                B::Remove | B::InsertBefore if literal(1) => {
                    PathUse::Pulled("streamed splice: one pass, no intermediate sequence")
                }
                _ => return Vec::new(),
            };
            args.iter().take(1).map(|a| (a, use_)).collect()
        }
        _ => Vec::new(),
    }
}

/// The annotation of a `path` node under `use_`: the consumer's cursor or
/// index answer when its gate admits the steps, else what the step loop
/// does with them.
fn path_annotation(steps: &[crate::lower::LPathStep], use_: PathUse) -> Option<&'static str> {
    let index = crate::run::lone_index_step(steps).is_some();
    let plan = crate::cursor::classify_steps(steps);
    let streams = plan.is_some();
    Some(match use_ {
        PathUse::Exists if index => "index existence: answered from the per-tree name index",
        PathUse::Count if index => "index-range count: answered from the per-tree name index",
        PathUse::Exists if streams => {
            "streamed existence: first cursor pull answers, no materialisation"
        }
        PathUse::Count if streams => {
            "streamed count: items pulled and discarded, never materialised"
        }
        PathUse::Pulled(text) if streams => text,
        _ if plan.is_some_and(|p| p.has_positional()) => {
            "streamed path: pull cursor with positional early-exit"
        }
        _ if steps
            .iter()
            .any(|s| s.double_slash && crate::run::fused_double_slash_step(&s.expr).is_some()) =>
        {
            "`//` step answered from the per-tree name index"
        }
        _ => return None,
    })
}

fn collect_resets(e: &LExpr, map: &mut HashMap<u32, ResetKind>) {
    if let LExpr::Flwor { clauses, .. } = e {
        for c in clauses {
            if let LFlworClause::For {
                reset_entry,
                reset_iter,
                ..
            } = c
            {
                for s in reset_entry {
                    map.insert(*s, ResetKind::Entry);
                }
                for s in reset_iter {
                    map.insert(*s, ResetKind::Iter);
                }
            }
        }
    }
    lopt::for_each_child_ref(e, &mut |c| collect_resets(c, map));
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn line(depth: usize, text: &str, out: &mut String) {
    indent(depth, out);
    out.push_str(text);
    out.push('\n');
}

fn axis_name(axis: Axis) -> String {
    format!("{axis:?}").to_lowercase()
}

/// One-line label for a node; annotations are appended by the caller.
fn label(e: &LExpr, cx: &ExplainCx) -> String {
    match e {
        LExpr::Literal(a) => format!("literal {}", a.to_text()),
        LExpr::LocalRef(s) => format!("local $#{s}"),
        LExpr::GlobalRef(name, _) => format!("global ${name}"),
        LExpr::ContextItem(_) => "context-item".to_string(),
        LExpr::Root(_) => "root (/)".to_string(),
        LExpr::Comma(_) => "sequence (,)".to_string(),
        LExpr::Range(..) => "range (to)".to_string(),
        LExpr::Arith(op, ..) => format!("arith {op:?}"),
        LExpr::Neg(_) => "negate".to_string(),
        LExpr::GeneralCmp(op, ..) => format!("general-compare {op:?}"),
        LExpr::ValueCmp(op, ..) => format!("value-compare {op:?}"),
        LExpr::NodeCmp(op, ..) => format!("node-compare {op:?}"),
        LExpr::SetExpr(op, ..) => format!("set {op:?}"),
        LExpr::And(..) => "and".to_string(),
        LExpr::Or(..) => "or".to_string(),
        LExpr::If(..) => "if".to_string(),
        LExpr::Flwor { .. } => "flwor".to_string(),
        LExpr::Quantified { quantifier, .. } => format!("quantified {quantifier:?}"),
        LExpr::AxisStep { axis, test, .. } => {
            format!("step {}::{}", axis_name(*axis), test.display_name())
        }
        LExpr::Path { .. } => "path".to_string(),
        LExpr::Filter(..) => "filter".to_string(),
        LExpr::CallBuiltin { builtin, .. } => format!("fn:{}", builtin.name()),
        LExpr::CallUser { index, .. } => {
            let name = &cx.program.functions[*index as usize].name;
            format!("call {name}")
        }
        LExpr::CallUnknown { name, .. } => format!("call {name} (unresolved)"),
        LExpr::DirectElement { name, .. } => format!("element <{name}>"),
        LExpr::CompElement { .. } => "computed element".to_string(),
        LExpr::CompAttribute { .. } => "computed attribute".to_string(),
        LExpr::CompText(_) => "computed text".to_string(),
        LExpr::CompComment(_) => "computed comment".to_string(),
        LExpr::TryCatch { .. } => "try/catch".to_string(),
        LExpr::TypeSwitch { .. } => "typeswitch".to_string(),
        LExpr::InstanceOf(..) => "instance-of".to_string(),
        LExpr::CastAs(..) => "cast".to_string(),
        LExpr::CastableAs(..) => "castable".to_string(),
        LExpr::CacheOnce { slot, .. } => format!("cache-once @{slot}"),
        LExpr::PrefixCells { .. } => "predicate split".to_string(),
    }
}

/// Runtime-rewrite annotations for a node consumed as `use_`, mirroring the
/// exact gates the runner applies (see `run.rs`): the annotation appears
/// iff the fast path will actually be attempted.
fn annotations(e: &LExpr, use_: PathUse, cx: &ExplainCx) -> Vec<String> {
    let mut out = Vec::new();
    match e {
        LExpr::CacheOnce { slot, .. } => match cx.resets.get(slot) {
            Some(ResetKind::Entry) => {
                out.push("hoisted loop-invariant: refills once per loop entry".to_string())
            }
            Some(ResetKind::Iter) => {
                out.push("common subexpression: one evaluation per tuple".to_string())
            }
            None => out.push("cached once per evaluation".to_string()),
        },
        LExpr::PrefixCells { cells, .. } => {
            for c in cells {
                let reset = match cx.resets.get(&c.slot) {
                    Some(ResetKind::Entry) => "hoisted loop-invariant, refills once per loop entry",
                    Some(ResetKind::Iter) => "one evaluation per tuple",
                    None => "cached once per evaluation",
                };
                out.push(format!(
                    "split cell @{} after {} predicate(s): {reset}",
                    c.slot, c.len
                ));
            }
        }
        LExpr::Path { steps, .. } => out.extend(path_annotation(steps, use_).map(String::from)),
        LExpr::AxisStep {
            axis,
            test,
            predicates,
            ..
        } if crate::run::is_fused_attr_eq(*axis, test, predicates) => {
            out.push("[@attr = v] probe against the attribute-value index".to_string());
        }
        _ => {}
    }
    out
}

fn render(e: &LExpr, depth: usize, use_: PathUse, cx: &ExplainCx, out: &mut String) {
    render_with(e, depth, use_, &path_uses(e), cx, out);
}

/// [`render`] with the children's uses given by the caller.
fn render_with(
    e: &LExpr,
    depth: usize,
    use_: PathUse,
    child_uses: &[(&LExpr, PathUse)],
    cx: &ExplainCx,
    out: &mut String,
) {
    let mut text = label(e, cx);
    for a in annotations(e, use_, cx) {
        text.push_str("  [");
        text.push_str(&a);
        text.push(']');
    }
    line(depth, &text, out);
    if let LExpr::Flwor {
        clauses,
        where_,
        order_by,
        return_,
    } = e
    {
        let fallback = lopt::join_fallback_reason(clauses, where_);
        for c in clauses {
            match c {
                LFlworClause::For {
                    var,
                    at,
                    seq,
                    reset_entry,
                    reset_iter,
                    join,
                } => {
                    let mut head = format!("for $#{var}");
                    if let Some(at) = at {
                        head.push_str(&format!(" at $#{at}"));
                    }
                    if let Some(side) = join {
                        head.push_str(&format!(
                            "  [hash join: build side; key = {side:?} operand of `where`]"
                        ));
                    }
                    if !reset_entry.is_empty() {
                        head.push_str(&format!(
                            "  [clears {} invariant cache(s) on entry]",
                            reset_entry.len()
                        ));
                    }
                    if !reset_iter.is_empty() {
                        head.push_str(&format!(
                            "  [clears {} per-tuple cache(s) each binding]",
                            reset_iter.len()
                        ));
                    }
                    line(depth + 1, &head, out);
                    // A join's build side is materialised whole for its table.
                    let use_ = match join {
                        Some(_) => PathUse::Value,
                        None => PathUse::Pulled(STREAMED_BINDING),
                    };
                    render(seq, depth + 2, use_, cx, out);
                }
                LFlworClause::Let {
                    var, name, expr, ..
                } => {
                    line(depth + 1, &format!("let $#{var} (${name})"), out);
                    render(expr, depth + 2, PathUse::Value, cx, out);
                }
            }
        }
        if let Some(w) = where_ {
            let joined = clauses
                .iter()
                .any(|c| matches!(c, LFlworClause::For { join: Some(_), .. }));
            let mut head = "where".to_string();
            if joined {
                head.push_str("  [equality subsumed by the hash join]");
            } else if let Some(reason) = fallback {
                head.push_str(&format!("  [hash join not applied: {reason}]"));
            }
            line(depth + 1, &head, out);
            if joined {
                // The join evaluates both operands as keys, for their value.
                render_with(w, depth + 2, PathUse::Exists, &[], cx, out);
            } else {
                render(w, depth + 2, PathUse::Exists, cx, out);
            }
        }
        for spec in order_by {
            line(depth + 1, "order-by", out);
            render(&spec.key, depth + 2, PathUse::Value, cx, out);
        }
        line(depth + 1, "return", out);
        render(return_, depth + 2, PathUse::Value, cx, out);
        return;
    }
    lopt::for_each_child_ref(e, &mut |c| {
        let use_ = child_uses
            .iter()
            .find(|(child, _)| std::ptr::eq(*child, c))
            .map_or(PathUse::Value, |&(_, u)| u);
        render(c, depth + 1, use_, cx, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn legacy_line_reconstruction() {
        let e = TraceEvent {
            label: "x=".to_string(),
            value: "5".to_string(),
            position: (1, 10),
        };
        assert_eq!(e.legacy_line(), "x= 5");
        let one_arg = TraceEvent {
            label: String::new(),
            value: "5".to_string(),
            position: (1, 1),
        };
        assert_eq!(one_arg.legacy_line(), "5");
    }

    #[test]
    fn counters_strip_timing() {
        let mut a = EvalStats {
            join_builds: 1,
            queue_wait_ns: 999,
            on_worker_ns: 123,
            ..Default::default()
        };
        let b = EvalStats {
            join_builds: 1,
            queue_wait_ns: 5,
            on_worker_ns: 6,
            ..Default::default()
        };
        assert_ne!(a, b);
        assert_eq!(a.counters(), b.counters());
        a.merge(&b);
        assert_eq!(a.join_builds, 2);
        assert_eq!(a.queue_wait_ns, 1004);
    }

    #[test]
    fn nodes_copied_charges_each_constructor_level() {
        // Each level copies the subtree built below it: 0 + 1 + ... + 1999.
        let mut e = Engine::new();
        let nested = e
            .compile(
                "declare function local:nest($n) { \
                 if ($n = 0) then () else <e>{local:nest($n - 1)}</e> }; \
                 local:nest(2000)",
            )
            .unwrap();
        e.evaluate(&nested, None).unwrap();
        assert_eq!(e.last_stats().nodes_copied, 1999 * 2000 / 2);
        assert_eq!(e.last_stats().items_allocated, 0);
        // Flat children are copied once each into their parent.
        let flat = e
            .compile("<r>{for $i in 1 to 2000 return <e/>}</r>")
            .unwrap();
        e.evaluate(&flat, None).unwrap();
        assert_eq!(e.last_stats().nodes_copied, 2000);
    }

    #[test]
    fn explain_marks_the_hash_join_and_the_hoist() {
        let e = Engine::new();
        let q = e
            .compile(
                "let $d := <r><a id='1'/><a id='2'/></r> \
                 return for $n in $d/a for $r in $d/a where $r/@id = $n/@id return $r",
            )
            .unwrap();
        let plan = e.explain(&q);
        assert!(plan.contains("hash join: build side"), "{plan}");
        assert!(
            plan.contains("equality subsumed by the hash join"),
            "{plan}"
        );
    }

    #[test]
    fn explain_names_the_refusal_reason() {
        // string($r) is a call: the join gate refuses it, and the plan says so.
        let e = Engine::new();
        let q = e
            .compile("for $n in (1, 2) for $r in (3, 4) where string($r) = $n return $r")
            .unwrap();
        let plan = e.explain(&q);
        assert!(plan.contains("hash join not applied"), "{plan}");
    }

    #[test]
    fn explain_annotations_follow_each_consumer() {
        // A path's annotation is decided by its consumer, and it must name
        // the route the runner takes: each row is explained AND run, and the
        // plan claims the name index iff the run counted an index hit, a
        // stream iff it pulled items, and existence iff the first pull
        // answered one.
        const DOC: &str = "<r><a><b>1</b><b>2</b></a><a><b>3</b></a><c k='v'/></r>";
        let rows: &[(&str, &[&str], &[&str])] = &[
            // (query, marks present, marks absent)
            ("exists(//a/b)", &["streamed existence"], &["`//` step"]),
            ("count(//a/b)", &["streamed count"], &["`//` step"]),
            (
                "for $i in //a/b return $i",
                &["streamed binding"],
                &["`//` step"],
            ),
            (
                "if (//a/b) then 1 else 0",
                &["streamed existence"],
                &["`//` step"],
            ),
            (
                "for $x in //a where $x/b return 1",
                &["streamed binding", "streamed existence"],
                &["name index"],
            ),
            (
                "some $x in //a satisfies $x/b",
                &["streamed binding", "streamed existence"],
                &["name index"],
            ),
            (
                "//a/b and //c",
                &["streamed existence", "index existence"],
                &["`//` step"],
            ),
            ("not(//c)", &["index existence"], &["streamed"]),
            ("count(//b)", &["index-range count"], &["streamed"]),
            ("//a/b", &["`//` step"], &["streamed"]),
            ("//a/b[2]", &["streamed path"], &["`//` step"]),
            ("(//a/b)[2]", &["streamed filter"], &["`//` step"]),
            (
                "subsequence(//a/b, 1, 1)",
                &["streamed subsequence"],
                &["`//` step"],
            ),
            ("//a/b = '2'", &["streamed comparison"], &["`//` step"]),
            (
                "for $n in /r/a for $m in /r/a where $m/b = $n/b return $m",
                &["hash join: build side", "streamed binding"],
                &["streamed comparison"],
            ),
        ];
        for &(src, present, absent) in rows {
            let mut e = Engine::new();
            let doc = e.load_document(DOC).unwrap();
            let q = e.compile(src).unwrap();
            let plan = e.explain(&q);
            for mark in present {
                assert!(plan.contains(mark), "{src}: missing {mark:?}\n{plan}");
            }
            for mark in absent {
                assert!(!plan.contains(mark), "{src}: claims {mark:?}\n{plan}");
            }
            e.evaluate(&q, Some(doc)).unwrap();
            let stats = *e.last_stats();
            for (claim, ran) in [
                ("per-tree name index", stats.index_hits > 0),
                ("streamed", stats.items_streamed > 0),
                ("streamed existence", stats.streamed_existence > 0),
            ] {
                assert_eq!(
                    plan.contains(claim),
                    ran,
                    "{src}: plan and run disagree on {claim:?}: {stats:?}\n{plan}"
                );
            }
        }
    }
}
