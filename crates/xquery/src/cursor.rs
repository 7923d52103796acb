//! The pull-based cursor runtime: streaming evaluation of qualifying path
//! expressions, one item per `next()` call, no intermediate sequences.
//!
//! This module is the one protocol the runner ([`crate::run`]) evaluates
//! whole consumer positions against: `for $x in PATH` pulls bindings,
//! `count(PATH)` pulls and discards, `subsequence(PATH, 2, 3)` and
//! `(//item)[3]` stop pulling as soon as the prefix they need is out,
//! `PATH = v` stops at the first comparison hit, and existence
//! (`exists`/`empty`/`boolean`/`not(PATH)`, and a path in a `where`, `if`,
//! `and`/`or` or `satisfies` position) is answered by the first pull.
//!
//! ## Which paths stream
//!
//! [`classify_steps`] admits exactly the chains whose streamed emission
//! order is provably the materialised result, with no dedup pass:
//!
//! * every non-final step is a predicate-free **child-axis** step
//!   (`a`, `//a`);
//! * the final step is a child- or attribute-axis step (`b`, `//b`, `@b`,
//!   `//@b`) that is predicate-free or carries **one positional predicate**
//!   recognised by [`positional_predicate`] (`[3]`, `[position() <= 5]`,
//!   `[5 >= position()]`, …);
//! * the start expression evaluates to a single node (checked at runtime
//!   by the runner; other starts finish on the generic evaluator).
//!
//! Child and attribute steps have a unique origin per result node (its
//! parent / its owner element), so a pre-order walk from the single start
//! node visits every candidate exactly once, in document order — the
//! streamed output needs neither the `dedup_sorted` pass nor a buffer.
//! Reverse axes, `self`/`parent` steps, general predicates, and multi-node
//! starts all fall back to the materialised evaluator; consumers that need
//! a whole sequence at once (sorting, set operations, general `=` against
//! a multi-item side) call [`PathCursor::materialize`].
//!
//! ## The step NFA
//!
//! A `//`-step may consume context nodes at any depth, so one tree node can
//! be "in the context" of several steps at once (`//a//a`). Each DFS frame
//! carries a bitset `avail` whose bit *j* means "steps[j] may consume
//! children (or attributes) of this node": bit 0 is seeded at the start
//! node, a child that matches steps[j] contributes bit *j+1* to its own
//! frame, and bits whose step is a `//` abbreviation are inherited down the
//! stack unchanged. A child is *emitted* when it matches the final step —
//! at most once per visit, hence at most once overall.
//!
//! ## Observable-semantics contract
//!
//! The admitted steps cannot raise and cannot trace: axis steps over nodes
//! are infallible, and a positional predicate is a literal or a
//! `position()` comparison over singleton integers — also infallible. The
//! start expression is always evaluated eagerly by the runner (its errors
//! and traces are the path's own and must fire in source order), so
//! `next()` itself is infallible and effect-free: interleaving pulls with
//! consumer work (a FLWOR `return`, a quantifier body) is unobservable, and
//! abandoning a cursor early changes no output, no error, and no trace.
//! The differential corpus pins this under every engine config against the
//! tree walker ([`crate::eval`]), which never streams. The runner's
//! materialised step loop is only the fallback for chains this module
//! rejects.

use crate::ast::{Axis, CmpOp};
use crate::functions::Builtin;
use crate::lower::{LExpr, LNodeTest, LPathStep};
use crate::obs::EvalStats;
use crate::run::node_test_matches;
use crate::value::{Atomic, Item, Sequence};
use xmlstore::{NodeId, NodeKind, Store};

/// Positional bounds stay far below 2^53 so the generic predicate rule
/// (`predicate_outcome` compares positions as `f64`) and the streamed
/// counter comparison (exact `i64`) cannot disagree on any reachable
/// position.
const MAX_POS_LITERAL: i64 = 1 << 50;

/// More steps than `avail` has bits; no real query gets close.
const MAX_STEPS: usize = 48;

/// One step of a classified streamable chain.
struct PlanStep<'p> {
    test: &'p LNodeTest,
    double_slash: bool,
}

/// A step chain admitted for streaming: the per-step node tests, whether
/// the final step runs on the attribute axis, and its positional predicate
/// (as a comparison the per-origin match counter is checked against).
pub(crate) struct StreamPlan<'p> {
    steps: Vec<PlanStep<'p>>,
    attr_final: bool,
    pos: Option<(CmpOp, i64)>,
}

impl StreamPlan<'_> {
    /// Does the final step carry a positional predicate (and so early-exit
    /// inside each origin's candidate list)?
    pub(crate) fn has_positional(&self) -> bool {
        self.pos.is_some()
    }
}

/// Per-step streamability, computed once at lowering time and stored on
/// [`LPathStep::streamable`]: could this step appear *somewhere* in a
/// streamable chain? [`classify_steps`] re-checks the position-dependent
/// constraints (only the final step may sit on the attribute axis or carry
/// the positional predicate), so the flag is a cheap hint that can never
/// admit a chain the authoritative classification rejects.
pub(crate) fn step_streamable(expr: &LExpr) -> bool {
    let LExpr::AxisStep {
        axis, predicates, ..
    } = expr
    else {
        return false;
    };
    match axis {
        Axis::Child | Axis::Attribute => {}
        _ => return false,
    }
    match predicates.as_slice() {
        [] => true,
        [p] => positional_predicate(p).is_some(),
        _ => false,
    }
}

/// The positional predicates the cursor understands, normalised to
/// `position() OP n`: a bare integer literal (`[3]` means `position() = 3`)
/// or a general/value comparison between a zero-argument `position()` call
/// and an integer literal, either way round (`[5 >= position()]` flips to
/// `position() <= 5`). Everything the shapes admit is an infallible,
/// trace-free singleton comparison, so evaluating it as a counter check is
/// unobservable.
pub(crate) fn positional_predicate(pred: &LExpr) -> Option<(CmpOp, i64)> {
    fn int_literal(e: &LExpr) -> Option<i64> {
        match e {
            LExpr::Literal(Atomic::Int(n)) if n.abs() <= MAX_POS_LITERAL => Some(*n),
            _ => None,
        }
    }
    fn is_position_call(e: &LExpr) -> bool {
        matches!(
            e,
            LExpr::CallBuiltin {
                builtin: Builtin::Position,
                args,
                ..
            } if args.is_empty()
        )
    }
    fn flip(op: CmpOp) -> CmpOp {
        match op {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
    match pred {
        LExpr::Literal(Atomic::Int(n)) if n.abs() <= MAX_POS_LITERAL => Some((CmpOp::Eq, *n)),
        LExpr::GeneralCmp(op, l, r) | LExpr::ValueCmp(op, l, r) => {
            if is_position_call(l) {
                int_literal(r).map(|n| (*op, n))
            } else if is_position_call(r) {
                int_literal(l).map(|n| (flip(*op), n))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Admits a step chain for streaming, or `None` for the materialised
/// evaluator. This is the authoritative gate — the runner, the
/// `explain()` annotations, and the lopt plan stats all call it, so the
/// plan a user reads matches what the runner does.
pub(crate) fn classify_steps(steps: &[LPathStep]) -> Option<StreamPlan<'_>> {
    if steps.is_empty() || steps.len() > MAX_STEPS {
        return None;
    }
    if !steps.iter().all(|s| s.streamable) {
        return None;
    }
    let (last, init) = steps.split_last().expect("non-empty");
    let mut plan = Vec::with_capacity(steps.len());
    for s in init {
        let LExpr::AxisStep {
            axis: Axis::Child,
            test,
            predicates,
            ..
        } = &s.expr
        else {
            return None;
        };
        if !predicates.is_empty() {
            return None;
        }
        plan.push(PlanStep {
            test,
            double_slash: s.double_slash,
        });
    }
    let LExpr::AxisStep {
        axis,
        test,
        predicates,
        ..
    } = &last.expr
    else {
        return None;
    };
    let attr_final = match axis {
        Axis::Child => false,
        Axis::Attribute => true,
        _ => return None,
    };
    let pos = match predicates.as_slice() {
        [] => None,
        [p] => Some(positional_predicate(p)?),
        _ => return None,
    };
    plan.push(PlanStep {
        test,
        double_slash: last.double_slash,
    });
    Some(StreamPlan {
        steps: plan,
        attr_final,
        pos,
    })
}

/// One pre-order DFS frame: a node whose children (and, for an
/// attribute-final chain, attributes) are still being scanned. Only the
/// node id and scan positions are held — child and attribute slices are
/// re-fetched from the store per pull (an O(1) arena lookup on both
/// substrates), so no borrow outlives a `next()` call and the cursor
/// survives store growth from constructors running between pulls.
struct DfsFrame {
    node: NodeId,
    /// Bit `j` set: `steps[j]` may consume children/attributes of `node`.
    avail: u64,
    next_child: u32,
    next_attr: u32,
    attrs_done: bool,
    /// Final-step matches seen among this frame's candidates — the
    /// per-origin `position()` the positional predicate is checked against.
    matched: i64,
}

impl DfsFrame {
    fn new(node: NodeId, avail: u64) -> DfsFrame {
        DfsFrame {
            node,
            avail,
            next_child: 0,
            next_attr: 0,
            attrs_done: false,
            matched: 0,
        }
    }
}

/// A pull-based cursor over one streamable path from one start node.
/// `next()` emits result nodes in document order, each exactly once;
/// [`materialize`](PathCursor::materialize) drains into a sequence for
/// consumers that need everything, [`finish_early`](PathCursor::finish_early)
/// records an abandoned (non-exhausted) walk in the stats.
pub(crate) struct PathCursor<'p> {
    plan: StreamPlan<'p>,
    /// Bit `j` set: `steps[j]` is a `//` abbreviation, so its context bit
    /// is inherited by every frame below the one that owns it.
    ds_mask: u64,
    /// `1 << (k - 1)`: the context bit the final step consumes.
    final_bit: u64,
    stack: Vec<DfsFrame>,
}

impl<'p> PathCursor<'p> {
    pub(crate) fn new(plan: StreamPlan<'p>, start: NodeId) -> PathCursor<'p> {
        let mut ds_mask = 0u64;
        for (j, s) in plan.steps.iter().enumerate() {
            if s.double_slash {
                ds_mask |= 1 << j;
            }
        }
        let final_bit = 1u64 << (plan.steps.len() - 1);
        PathCursor {
            plan,
            ds_mask,
            final_bit,
            stack: vec![DfsFrame::new(start, 1)],
        }
    }

    /// Does the per-origin match counter satisfy the positional predicate?
    fn pos_ok(&self, cnt: i64) -> bool {
        match self.plan.pos {
            None => true,
            Some((op, n)) => match op {
                CmpOp::Eq => cnt == n,
                CmpOp::Ne => cnt != n,
                CmpOp::Lt => cnt < n,
                CmpOp::Le => cnt <= n,
                CmpOp::Gt => cnt > n,
                CmpOp::Ge => cnt >= n,
            },
        }
    }

    /// The next result node in document order, or `None` when the walk is
    /// exhausted. Infallible and effect-free — see the module contract.
    pub(crate) fn next(&mut self, store: &Store, stats: &mut EvalStats) -> Option<Item> {
        let k = self.plan.steps.len();
        let child_steps = if self.plan.attr_final { k - 1 } else { k };
        loop {
            let top = self.stack.len().checked_sub(1)?;
            // Attribute phase first: an element's attributes precede its
            // children in document order.
            if self.plan.attr_final && !self.stack[top].attrs_done {
                if self.stack[top].avail & self.final_bit != 0 {
                    loop {
                        let (node, i) = {
                            let f = &self.stack[top];
                            (f.node, f.next_attr as usize)
                        };
                        let Some(&a) = store.nth_attribute(node, i) else {
                            break;
                        };
                        self.stack[top].next_attr += 1;
                        let test = self.plan.steps[k - 1].test;
                        if node_test_matches(test, Axis::Attribute, a, store) {
                            self.stack[top].matched += 1;
                            if self.pos_ok(self.stack[top].matched) {
                                stats.items_streamed += 1;
                                return Some(Item::Node(a));
                            }
                        }
                    }
                }
                self.stack[top].attrs_done = true;
            }
            let (node, avail, i) = {
                let f = &self.stack[top];
                (f.node, f.avail, f.next_child as usize)
            };
            let Some(&c) = store.nth_child(node, i) else {
                self.stack.pop();
                continue;
            };
            self.stack[top].next_child += 1;
            let mut child_avail = avail & self.ds_mask;
            let mut emits = false;
            for (j, step) in self.plan.steps[..child_steps].iter().enumerate() {
                if avail & (1 << j) != 0 && node_test_matches(step.test, Axis::Child, c, store) {
                    if j + 1 == k {
                        emits = true;
                    } else {
                        child_avail |= 1 << (j + 1);
                    }
                }
            }
            let mut out = None;
            if emits {
                self.stack[top].matched += 1;
                if self.pos_ok(self.stack[top].matched) {
                    out = Some(Item::Node(c));
                }
            }
            // Descend only where some step can still consume: push before
            // returning so the emitted node's subtree is scanned next
            // (pre-order = document order).
            if child_avail != 0 && matches!(store.kind(c), NodeKind::Element(_)) {
                self.stack.push(DfsFrame::new(c, child_avail));
            }
            if let Some(item) = out {
                stats.items_streamed += 1;
                return Some(item);
            }
        }
    }

    /// Drains the remaining walk into a sequence — the escape hatch for
    /// consumers that need the whole result at once.
    pub(crate) fn materialize(&mut self, store: &Store, stats: &mut EvalStats) -> Sequence {
        let mut out = Sequence::empty();
        while let Some(item) = self.next(store, stats) {
            out.push(item);
        }
        out
    }

    /// Records an abandoned walk: the consumer decided it needs no more
    /// items while the cursor still had frames to scan. Deterministic for a
    /// given (program, store) pair, so it is safe to compare across worker
    /// counts like every other counter.
    pub(crate) fn finish_early(&self, stats: &mut EvalStats) {
        if !self.stack.is_empty() {
            stats.cursor_early_exits += 1;
        }
    }
}
