//! The lowered-plan optimisation pass: loop-invariant hoisting,
//! common-subexpression caching and predicate-prefix splitting over FLWOR
//! regions.
//!
//! This runs between [`crate::lower`] and [`crate::run`], after the
//! paper-faithful AST optimizer has already done its (quirks-aware) work —
//! the module the tree-walking reference evaluator executes is never
//! touched, so the differential suite can hold the two paths observably
//! identical with the pass on and off.
//!
//! ## What it does
//!
//! Within each FLWOR that has at least one `for` clause, repeated or
//! loop-invariant subexpressions are wrapped in [`LExpr::CacheOnce`] cells
//! backed by synthetic frame slots appended past the source program's
//! locals. A cell evaluates its body on first *read* — in source position,
//! so an expression that raises still raises exactly when the unhoisted
//! program would — and is cleared by the `for` clause recorded in its
//! reset list ([`LFlworClause::For`]):
//!
//! * **entry reset** at the first `for` clause after every binding the
//!   subexpression depends on: the value is invariant across that loop, so
//!   it refills at most once per (re-)entry of the loop. This is classic
//!   loop-invariant code motion, done lazily.
//! * **iteration reset** at the innermost `for` clause, for subexpressions
//!   that depend on the current tuple but occur more than once downstream
//!   (`where` plus `order by`, say): one evaluation per tuple.
//!
//! A predicate list whose leading predicates are cacheable but whose later
//! ones are not — `$model/relation[f(@type, $rel)][@source = $r/@id]`
//! inside a loop over `$r` — forms no cacheable subtree. For such a path
//! step or filter, each cacheable prefix `P1..Pj` is priced like a subtree
//! and, when chosen, becomes a cell of an [`LExpr::PrefixCells`] node with
//! the same reset discipline: it holds the items that survive `P1..Pj`, and
//! a read applies only the residual predicates. Predicates apply one at a
//! time over the whole candidate list, so this is exact; a path step's
//! cells serve only a step run for a single context node, and any other
//! context size evaluates the step unsplit. Nested loops each keep their
//! own cell on the same list, the outer holding the shorter prefix.
//!
//! ## What may be cached
//!
//! Only subtrees that are deterministic given the frame:
//!
//! * **Pure calls.** A builtin other than `fn:trace` (in every mode — the
//!   walker runs whatever trace the AST optimizer kept), and a user
//!   function whose body calls no `fn:trace`, constructs no node, calls
//!   nothing unresolved and calls only pure functions. User purity is a
//!   fixpoint over the call graph, so recursive functions qualify. A call
//!   may raise: cells store values only, so a raising call raises again on
//!   every read, as unhoisted. Builtins that read the focus implicitly
//!   (`position()`, `last()`, zero-argument `string()` and friends) qualify
//!   only where a predicate or step rebinds the focus. Purity is computed
//!   once per program, and only when some FLWOR region holds a call.
//! * **No node constructors**: constructors create fresh node identities
//!   per evaluation, and a constructor elsewhere can never invalidate a
//!   cached *existing* node sequence because construction deep-copies
//!   content instead of mutating trees.
//! * **No binder constructs, and no use of the *outer* focus** — a path's
//!   own steps and predicates rebind focus internally and are fine.
//!   References to slots bound by nested binder constructs are excluded by
//!   poisoning during the scan: sibling scopes reuse slot numbers, so a
//!   nested `for $c` can shadow the number of an outer `let` and a naive
//!   slot check would lie.
//!
//! The hash-join gate ([`mark_hash_join`]) still refuses every call.

use crate::ast::{Axis, CmpOp};
use crate::lower::{
    JoinSide, LExpr, LFlworClause, LNodeTest, LOrderSpec, LPathStep, PrefixCell, Program,
};
use crate::value::Atomic;
use std::collections::{BTreeMap, HashMap};

/// What the pass did, for inspection and benchmarks (the differential
/// corpus asserts results are identical whether these are zero or not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// `CacheOnce` cells reset at loop entry (loop-invariant hoists).
    pub hoisted_invariant: usize,
    /// `CacheOnce` cells reset per tuple (common-subexpression caches).
    pub cached_per_tuple: usize,
    /// Final `for` clauses whose `where` equality was marked for the
    /// runtime hash join (see [`LFlworClause::For::join`]).
    pub hash_joins: usize,
    /// `for` clauses whose binding sequence is a bare streamable path —
    /// the runner pulls their tuples from a cursor instead of materialising
    /// the sequence (unless the clause was claimed by the hash join, whose
    /// table build wants the whole sequence). Counted here, after the join
    /// mark, so the plan header reflects the final dispatch.
    pub streamable_bindings: usize,
    /// Cells of either kind (whole-subtree or predicate-prefix) whose
    /// cached expression calls a pure builtin or user function.
    pub calls_hoisted: usize,
    /// Predicate-prefix cells ([`LExpr::PrefixCells`]): a pure, invariant
    /// leading run of a step's or filter's predicates, cached apart from
    /// the residual predicates that follow it. Also counted in
    /// `hoisted_invariant` or `cached_per_tuple` by their reset.
    pub predicate_splits: usize,
}

/// Runs the pass over every executable body in the program, growing each
/// body's frame by the synthetic slots it allocates.
pub fn optimize_program(program: &mut Program) -> PlanStats {
    let mut stats = PlanStats::default();
    // Calls become cacheable only where purity is known. The analysis is
    // skipped when no loop could hoist a call, which keeps FLWOR-free
    // point queries at their old compile cost.
    let pure_fns = holds_flwor_call(program).then(|| pure_functions(program));
    let pure_fns = pure_fns.as_deref();
    for f in &mut program.functions {
        let mut alloc = SlotAlloc { frame: f.frame };
        walk(&mut f.body, &mut alloc, pure_fns, &mut stats);
        f.frame = alloc.frame;
    }
    for g in &mut program.globals {
        let mut alloc = SlotAlloc { frame: g.frame };
        walk(&mut g.expr, &mut alloc, pure_fns, &mut stats);
        g.frame = alloc.frame;
    }
    let mut alloc = SlotAlloc {
        frame: program.body_frame,
    };
    walk(&mut program.body, &mut alloc, pure_fns, &mut stats);
    program.body_frame = alloc.frame;
    stats
}

/// Does some FLWOR with a `for` clause, in any body, contain a call?
fn holds_flwor_call(program: &Program) -> bool {
    fn search(e: &LExpr) -> bool {
        match e {
            LExpr::Flwor { clauses, .. }
                if clauses
                    .iter()
                    .any(|c| matches!(c, LFlworClause::For { .. })) =>
            {
                has_call(e)
            }
            _ => {
                let mut found = false;
                for_each_child_ref(e, &mut |c| found = found || search(c));
                found
            }
        }
    }
    program.functions.iter().any(|f| search(&f.body))
        || program.globals.iter().any(|g| search(&g.expr))
        || search(&program.body)
}

/// Does the subtree call a builtin or user function anywhere?
fn has_call(e: &LExpr) -> bool {
    if matches!(e, LExpr::CallBuiltin { .. } | LExpr::CallUser { .. }) {
        return true;
    }
    let mut found = false;
    for_each_child_ref(e, &mut |c| found = found || has_call(c));
    found
}

/// Which user functions are pure, by index: their bodies call no
/// `fn:trace`, construct no node, call nothing unresolved, and call only
/// pure functions. Impurity spreads from the bodies that hold it to their
/// callers, transitively, so a recursive function is pure unless some
/// function it can reach is not. A body never sees its caller's focus
/// (frames are closure-free), so focus reads inside it are deterministic
/// errors, not impurities.
fn pure_functions(program: &Program) -> Vec<bool> {
    /// Records `e`'s callees and reports whether it is impure by itself.
    fn scan(e: &LExpr, callees: &mut Vec<usize>) -> bool {
        let own = match e {
            LExpr::CallBuiltin { builtin, .. } => !builtin.is_pure(),
            LExpr::CallUser { index, .. } => {
                callees.push(*index as usize);
                false
            }
            LExpr::CallUnknown { .. }
            | LExpr::DirectElement { .. }
            | LExpr::CompElement { .. }
            | LExpr::CompAttribute { .. }
            | LExpr::CompText(_)
            | LExpr::CompComment(_) => true,
            _ => false,
        };
        let mut impure = own;
        for_each_child_ref(e, &mut |c| impure |= scan(c, callees));
        impure
    }
    let n = program.functions.len();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pure = vec![true; n];
    let mut impure = Vec::new();
    for (i, f) in program.functions.iter().enumerate() {
        let mut callees = Vec::new();
        if scan(&f.body, &mut callees) {
            pure[i] = false;
            impure.push(i);
        }
        for c in callees {
            callers[c].push(i);
        }
    }
    while let Some(f) = impure.pop() {
        for &caller in &callers[f] {
            if pure[caller] {
                pure[caller] = false;
                impure.push(caller);
            }
        }
    }
    pure
}

/// Allocates synthetic slots past the lowered frame of one executable body.
struct SlotAlloc {
    frame: usize,
}

impl SlotAlloc {
    fn alloc(&mut self) -> u32 {
        let slot = self.frame as u32;
        self.frame += 1;
        slot
    }
}

/// Top-down walk: hoist within a FLWOR before descending, so outer regions
/// see the pristine tree. A `CacheOnce` body holds no FLWOR (binder
/// constructs are never cacheable); residual predicates under
/// [`LExpr::PrefixCells`] may, and are reached like any other child.
fn walk(e: &mut LExpr, alloc: &mut SlotAlloc, pure_fns: Option<&[bool]>, stats: &mut PlanStats) {
    if let LExpr::Flwor {
        clauses,
        where_,
        order_by,
        return_,
    } = e
    {
        hoist_flwor(clauses, where_, order_by, return_, alloc, pure_fns, stats);
        mark_hash_join(clauses, where_, stats);
        for c in clauses.iter() {
            if let LFlworClause::For {
                seq: LExpr::Path { steps, .. },
                join: None,
                ..
            } = c
            {
                if crate::cursor::classify_steps(steps).is_some() {
                    stats.streamable_bindings += 1;
                }
            }
        }
    }
    for_each_child(e, &mut |c| walk(c, alloc, pure_fns, stats));
}

/// Marks the `for … where KEY($v) = PROBE` join pattern on a FLWOR's final
/// `for` clause. The runtime turns the O(tuples × items) scan into one
/// table build plus per-tuple probes; all it needs from the plan is which
/// `where` operand is the key side.
///
/// The gates keep the rewrite invisible:
/// * both operands must be [`join_simple`] — deterministic given the frame,
///   no calls (no `trace` side effects), no constructors, no binders, no
///   outer focus — so evaluating the key side once per item and the probe
///   side once per tuple (instead of both per pair) changes no observable
///   behaviour but the order work happens in, and error order is restored
///   by the runtime's build discipline;
/// * exactly one operand mentions the clause's variable (the key side);
/// * the key side reads no *other* slot bound by this FLWOR's clauses —
///   the table is reused across tuples, so its keys may depend only on the
///   item and on bindings that cannot change between tuples;
/// * no positional `at` binding (filtered iteration would still need the
///   original positions; not worth the bookkeeping).
fn mark_hash_join(
    clauses: &mut [LFlworClause],
    where_: &Option<Box<LExpr>>,
    stats: &mut PlanStats,
) {
    let Some(w) = where_ else { return };
    let LExpr::GeneralCmp(CmpOp::Eq, left, right) = &**w else {
        return;
    };
    let mut clause_bound: Vec<u32> = Vec::new();
    for c in clauses.iter() {
        match c {
            LFlworClause::For { var, at, .. } => {
                clause_bound.push(*var);
                if let Some(at) = at {
                    clause_bound.push(*at);
                }
            }
            LFlworClause::Let { var, .. } => clause_bound.push(*var),
        }
    }
    let Some(LFlworClause::For {
        var,
        at: None,
        join,
        ..
    }) = clauses.last_mut()
    else {
        return;
    };
    if !join_simple(left) || !join_simple(right) {
        return;
    }
    let slots_of = |e: &LExpr| {
        let mut slots = Vec::new();
        join_slots(e, &mut |s| slots.push(s));
        slots
    };
    let (ls, rs) = (slots_of(left), slots_of(right));
    let side = match (ls.contains(var), rs.contains(var)) {
        (true, false) => JoinSide::Left,
        (false, true) => JoinSide::Right,
        _ => return,
    };
    let key_slots = if side == JoinSide::Left { &ls } else { &rs };
    if key_slots
        .iter()
        .any(|s| s != var && clause_bound.contains(s))
    {
        return;
    }
    *join = Some(side);
    stats.hash_joins += 1;
}

/// Read-only twin of [`mark_hash_join`]'s gate chain, for [`crate::obs`]:
/// given a FLWOR that was *not* marked, names the first gate that refused
/// the rewrite — or `None` when the `where` never looked like a join
/// candidate (not an `=` general comparison) so there is nothing to
/// explain. Must mirror the gates above exactly; the explain tests pin
/// that a refused candidate gets a reason.
pub(crate) fn join_fallback_reason(
    clauses: &[LFlworClause],
    where_: &Option<Box<LExpr>>,
) -> Option<&'static str> {
    let w = where_.as_ref()?;
    let LExpr::GeneralCmp(CmpOp::Eq, left, right) = &**w else {
        return None;
    };
    let mut clause_bound: Vec<u32> = Vec::new();
    for c in clauses.iter() {
        match c {
            LFlworClause::For { var, at, .. } => {
                clause_bound.push(*var);
                if let Some(at) = at {
                    clause_bound.push(*at);
                }
            }
            LFlworClause::Let { var, .. } => clause_bound.push(*var),
        }
    }
    let Some(LFlworClause::For { var, at, .. }) = clauses.last() else {
        return Some("final clause is a `let`, not a `for`");
    };
    if at.is_some() {
        return Some("final `for` clause has a positional `at` binding");
    }
    if !join_simple(left) || !join_simple(right) {
        return Some(
            "a `where` operand is not join-simple (calls, constructors, binders, or outer focus)",
        );
    }
    let slots_of = |e: &LExpr| {
        let mut slots = Vec::new();
        join_slots(e, &mut |s| slots.push(s));
        slots
    };
    let (ls, rs) = (slots_of(left), slots_of(right));
    let side =
        match (ls.contains(var), rs.contains(var)) {
            (true, false) => JoinSide::Left,
            (false, true) => JoinSide::Right,
            _ => return Some(
                "the final `for` variable appears on both sides (or neither side) of the equality",
            ),
        };
    let key_slots = if side == JoinSide::Left { &ls } else { &rs };
    if key_slots
        .iter()
        .any(|s| s != var && clause_bound.contains(s))
    {
        return Some("the key side reads another clause-bound variable");
    }
    None
}

/// Like [`cacheable`] with no poison and no focus, but looking *through*
/// cache cells: a `where` operand that hoisting already wrapped is still a
/// deterministic frame-only expression underneath.
fn join_simple(e: &LExpr) -> bool {
    match e {
        LExpr::CacheOnce { expr, .. } => join_simple(expr),
        _ => cacheable(e, &[], false, None),
    }
}

/// [`collect_slots`] through cache cells (whose own synthetic slot is a
/// cache address, not a variable read).
fn join_slots(e: &LExpr, f: &mut impl FnMut(u32)) {
    if let LExpr::CacheOnce { expr, .. } = e {
        join_slots(expr, f);
    } else {
        collect_slots(e, f);
    }
}

/// Calls `f` on every direct child expression of `e`.
fn for_each_child(e: &mut LExpr, f: &mut impl FnMut(&mut LExpr)) {
    match e {
        LExpr::Literal(_)
        | LExpr::LocalRef(_)
        | LExpr::GlobalRef(..)
        | LExpr::ContextItem(_)
        | LExpr::Root(_) => {}
        LExpr::Comma(parts) => parts.iter_mut().for_each(f),
        LExpr::Range(a, b)
        | LExpr::Arith(_, a, b)
        | LExpr::GeneralCmp(_, a, b)
        | LExpr::ValueCmp(_, a, b)
        | LExpr::NodeCmp(_, a, b)
        | LExpr::SetExpr(_, a, b)
        | LExpr::And(a, b)
        | LExpr::Or(a, b) => {
            f(a);
            f(b);
        }
        LExpr::Neg(a)
        | LExpr::CompText(a)
        | LExpr::CompComment(a)
        | LExpr::InstanceOf(a, _)
        | LExpr::CastAs(a, _, _)
        | LExpr::CastableAs(a, _)
        | LExpr::CacheOnce { expr: a, .. }
        | LExpr::PrefixCells { inner: a, .. } => f(a),
        LExpr::If(c, t, e2) => {
            f(c);
            f(t);
            f(e2);
        }
        LExpr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => {
            for clause in clauses {
                match clause {
                    LFlworClause::For { seq, .. } => f(seq),
                    LFlworClause::Let { expr, .. } => f(expr),
                }
            }
            if let Some(w) = where_ {
                f(w);
            }
            for spec in order_by {
                f(&mut spec.key);
            }
            f(return_);
        }
        LExpr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            for (_, seq) in bindings {
                f(seq);
            }
            f(satisfies);
        }
        LExpr::AxisStep { predicates, .. } => predicates.iter_mut().for_each(f),
        LExpr::Path { start, steps } => {
            f(start);
            for s in steps {
                f(&mut s.expr);
            }
        }
        LExpr::Filter(base, preds) => {
            f(base);
            preds.iter_mut().for_each(f);
        }
        LExpr::CallBuiltin { args, .. }
        | LExpr::CallUser { args, .. }
        | LExpr::CallUnknown { args, .. } => args.iter_mut().for_each(f),
        LExpr::DirectElement { attrs, content, .. } => {
            for (_, parts) in attrs {
                for part in parts {
                    if let crate::lower::LAttrPart::Enclosed(e2) = part {
                        f(e2);
                    }
                }
            }
            for part in content {
                match part {
                    crate::lower::LContentPart::Enclosed(e2)
                    | crate::lower::LContentPart::Node(e2) => f(e2),
                    crate::lower::LContentPart::Literal(_) => {}
                }
            }
        }
        LExpr::CompElement { name, content, .. } => {
            if let crate::lower::LConstructorName::Computed(n) = name {
                f(n);
            }
            if let Some(c) = content {
                f(c);
            }
        }
        LExpr::CompAttribute { name, value, .. } => {
            if let crate::lower::LConstructorName::Computed(n) = name {
                f(n);
            }
            if let Some(v) = value {
                f(v);
            }
        }
        LExpr::TryCatch { try_, catch, .. } => {
            f(try_);
            f(catch);
        }
        LExpr::TypeSwitch {
            operand,
            cases,
            default,
            ..
        } => {
            f(operand);
            for case in cases {
                f(&mut case.body);
            }
            f(default);
        }
    }
}

// ----------------------------------------------------------------------
// Per-FLWOR hoisting
// ----------------------------------------------------------------------

/// One candidate subexpression, grouped by structural key.
struct Cand {
    /// Largest clause index binding a slot the subtree reads, if any.
    dep: Option<usize>,
    /// Smallest/largest position among occurrences; clause exprs use their
    /// clause index, `where`/`order by`/`return` use `usize::MAX`.
    min_pos: usize,
    max_pos: usize,
    count: usize,
    /// Does the cached expression call a (pure) function?
    calls: bool,
    /// A predicate prefix ([`LExpr::PrefixCells`]) rather than a subtree.
    split: bool,
}

/// A chosen cache: the synthetic slot, the `for` clause that resets it, and
/// whether the reset is on entry or per iteration. `used` records whether
/// the rewrite phase actually installed a cell for it — a key whose only
/// occurrences are embedded inside some larger rewritten candidate never
/// materialises, and neither should its reset or its stats line.
struct Decision {
    slot: u32,
    clause_idx: usize,
    is_entry: bool,
    used: bool,
    calls: bool,
    split: bool,
}

struct HoistPass<'p> {
    /// This FLWOR's clause binders, slot → clause index. Within the
    /// scanned region (and outside poisoned subtrees) a slot number means
    /// exactly one binder: clause scopes nest without popping.
    binder_clause: HashMap<u32, usize>,
    /// Slots bound by binder constructs *nested inside* the region —
    /// references to them disqualify a subtree (the number may be reused
    /// and the binding changes within one tuple).
    poison: Vec<u32>,
    cands: BTreeMap<String, Cand>,
    /// Filled between the collect and rewrite scans.
    decisions: BTreeMap<String, Decision>,
    rewriting: bool,
    /// Pure user functions by index; `None` admits no call at all.
    pure_fns: Option<&'p [bool]>,
    /// This FLWOR's `for` clause indices, in order.
    for_indices: Vec<usize>,
    /// Occurrence weights per [`shape_hash`], counted by the collect scan
    /// (see [`HoistPass::key`]).
    shapes: HashMap<u64, usize>,
}

fn hoist_flwor(
    clauses: &mut [LFlworClause],
    where_: &mut Option<Box<LExpr>>,
    order_by: &mut [LOrderSpec],
    return_: &mut LExpr,
    alloc: &mut SlotAlloc,
    pure_fns: Option<&[bool]>,
    stats: &mut PlanStats,
) {
    let for_indices: Vec<usize> = clauses
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, LFlworClause::For { .. }))
        .map(|(i, _)| i)
        .collect();
    // No loop, nothing re-evaluates: every clause runs once per entry.
    let Some((&f0, &last_for)) = for_indices.first().zip(for_indices.last()) else {
        return;
    };

    let mut binder_clause = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        match c {
            LFlworClause::For { var, at, .. } => {
                binder_clause.insert(*var, i);
                if let Some(at) = at {
                    binder_clause.insert(*at, i);
                }
            }
            LFlworClause::Let { var, .. } => {
                binder_clause.insert(*var, i);
            }
        }
    }

    let mut pass = HoistPass {
        binder_clause,
        poison: Vec::new(),
        cands: BTreeMap::new(),
        decisions: BTreeMap::new(),
        rewriting: false,
        pure_fns,
        for_indices,
        shapes: HashMap::new(),
    };
    pass.scan_region(clauses, where_, order_by, return_, f0);

    // Pick a reset point per key. An entry target must lie at or before
    // every occurrence (`j <= min_pos`): a cache read positioned before its
    // reset clause would refill with the previous outer binding and then be
    // served stale. It must also have a read strictly inside the loop
    // (`max_pos > j`) — a value only read while producing clause `j`'s own
    // sequence is already evaluated once per entry, and a cell would be
    // pure overhead. The per-tuple fallback requires all reads after the
    // innermost `for`, and at least two of them to pay for the cell. Only
    // occurrences [`HoistPass::key`] admits were priced, and only they are
    // rewritten.
    let keys: Vec<String> = pass.cands.keys().cloned().collect();
    for key in keys {
        let cand = &pass.cands[&key];
        let target = match pass.entry_target(cand.dep) {
            Some(j) if j <= cand.min_pos && cand.max_pos > j => Some((j, true)),
            _ if cand.min_pos > last_for && cand.count >= 2 => Some((last_for, false)),
            _ => None,
        };
        let Some((clause_idx, is_entry)) = target else {
            continue;
        };
        let (calls, split) = (cand.calls, cand.split);
        pass.decisions.insert(
            key,
            Decision {
                slot: alloc.alloc(),
                clause_idx,
                is_entry,
                used: false,
                calls,
                split,
            },
        );
    }
    if pass.decisions.is_empty() {
        return;
    }

    pass.rewriting = true;
    pass.scan_region(clauses, where_, order_by, return_, f0);

    for d in pass.decisions.values().filter(|d| d.used) {
        let LFlworClause::For {
            reset_entry,
            reset_iter,
            ..
        } = &mut clauses[d.clause_idx]
        else {
            unreachable!("reset targets are for clauses");
        };
        if d.is_entry {
            reset_entry.push(d.slot);
            stats.hoisted_invariant += 1;
        } else {
            reset_iter.push(d.slot);
            stats.cached_per_tuple += 1;
        }
        stats.calls_hoisted += usize::from(d.calls);
        stats.predicate_splits += usize::from(d.split);
    }
}

impl HoistPass<'_> {
    /// One deterministic traversal of the region, used for both the collect
    /// and the rewrite phase — the two must visit identically or a decision
    /// could rewrite a site the collect never priced. The region starts at
    /// the first `for`: earlier `let`s run once per entry, before any reset
    /// point, so they can neither host nor read a cache.
    fn scan_region(
        &mut self,
        clauses: &mut [LFlworClause],
        where_: &mut Option<Box<LExpr>>,
        order_by: &mut [LOrderSpec],
        return_: &mut LExpr,
        f0: usize,
    ) {
        for (i, clause) in clauses.iter_mut().enumerate().skip(f0) {
            match clause {
                LFlworClause::For { seq, .. } => self.visit(seq, i),
                LFlworClause::Let { expr, .. } => self.visit(expr, i),
            }
        }
        if let Some(w) = where_ {
            self.visit(w, usize::MAX);
        }
        for spec in order_by.iter_mut() {
            self.visit(&mut spec.key, usize::MAX);
        }
        self.visit(return_, usize::MAX);
    }

    fn visit(&mut self, e: &mut LExpr, pos: usize) {
        let key = if cacheable(e, &self.poison, false, self.pure_fns) && worth_caching(e) {
            let dep = self.max_dep(&[e]);
            self.key(dep, pos, || shape_hash([&*e]), || format!("{e:?}"))
                .map(|key| (key, dep))
        } else {
            None
        };
        if let Some((key, dep)) = key {
            if self.rewriting {
                if let Some(d) = self.decisions.get_mut(&key) {
                    d.used = true;
                    let slot = d.slot;
                    let inner = std::mem::replace(e, LExpr::LocalRef(0));
                    *e = LExpr::CacheOnce {
                        slot,
                        expr: Box::new(inner),
                    };
                    return;
                }
            } else {
                self.price(key, dep, pos, has_call(e), false);
                // Keep descending: an occurrence of a *smaller* candidate
                // embedded in this one must be priced too, or rewriting the
                // small key elsewhere could miss this site's position.
            }
        }
        self.split_prefixes(e, pos);
        self.visit_children(e, pos);
    }

    /// The `for` clause whose entry would reset a cell depending on
    /// clause `dep`: the first one after it.
    fn entry_target(&self, dep: Option<usize>) -> Option<usize> {
        self.for_indices
            .iter()
            .copied()
            .find(|&j| dep.is_none_or(|d| j > d))
    }

    /// The structural key of an occurrence that a cell may serve, or `None`
    /// without rendering it. The Debug rendering is the key: lowered
    /// expressions contain only interned symbols, resolved slots and
    /// literals, so equal renderings mean equal evaluation.
    ///
    /// A cell may serve only reads after its reset: at or after the entry
    /// target, or — with none — in `where`/`order by`/`return`. Rendering
    /// is the pass's main cost, so it waits until a cell would pay:
    /// * a read inside the entry target's loop pays on its own;
    /// * a read in the target clause's own sequence runs once per entry
    ///   anyway, and pays only by sharing a cell some read inside pays for;
    /// * a per-tuple read pays only when its key repeats.
    ///
    /// The collect scan counts occurrences per [`shape_hash`] (a paying
    /// entry read counts as two) and renders a per-tuple shape from its
    /// second occurrence on (that one is priced for both); the rewrite scan
    /// renders every occurrence of a shape counted twice. A collision of
    /// two shapes can only add a cell that serves a single read, never a
    /// wrong value.
    fn key(
        &mut self,
        dep: Option<usize>,
        pos: usize,
        hash: impl FnOnce() -> u64,
        render: impl FnOnce() -> String,
    ) -> Option<String> {
        let weight = match self.entry_target(dep) {
            Some(j) if pos > j => 2,
            Some(j) if pos == j => 0,
            None if pos == usize::MAX => 1,
            _ => return None,
        };
        let h = hash();
        if self.rewriting {
            return (self.shapes.get(&h) >= Some(&2)).then(render);
        }
        let seen = self.shapes.entry(h).or_insert(0);
        *seen += weight;
        (weight > 0 && *seen >= 2).then(render)
    }

    /// Records one occurrence of a candidate key (two for the first
    /// rendered occurrence of a per-tuple shape, see [`HoistPass::key`]).
    fn price(&mut self, key: String, dep: Option<usize>, pos: usize, calls: bool, split: bool) {
        let per_tuple = self.entry_target(dep).is_none();
        let cand = self.cands.entry(key).or_insert(Cand {
            dep,
            min_pos: pos,
            max_pos: pos,
            count: 0,
            calls,
            split,
        });
        cand.count += if per_tuple && cand.count == 0 { 2 } else { 1 };
        cand.min_pos = cand.min_pos.min(pos);
        cand.max_pos = cand.max_pos.max(pos);
    }

    /// Prices (collect) or installs (rewrite) predicate-prefix cells on the
    /// [`split_sites`] of `e`. Every prefix `P1..Pj` short of the whole
    /// list that is cacheable together with what it filters is a candidate
    /// of its own, keyed apart from whole subtrees. Each decided prefix
    /// gets a cell, so the loops of one region can each keep the longest
    /// prefix that is invariant across them; a prefix an enclosing region
    /// already holds a cell for is skipped.
    fn split_prefixes(&mut self, e: &mut LExpr, pos: usize) {
        let mut installs: Vec<(Option<usize>, Vec<PrefixCell>)> = Vec::new();
        for site in split_sites(e) {
            if !cacheable(site.source, &self.poison, false, self.pure_fns)
                || !site
                    .init
                    .iter()
                    .all(|s| step_cacheable(s, &self.poison, self.pure_fns))
            {
                continue;
            }
            let mut install = Vec::new();
            for len in 1..site.predicates.len() {
                if !cacheable(&site.predicates[len - 1], &self.poison, true, self.pure_fns) {
                    break;
                }
                if site.cells.iter().any(|c| c.len == len) {
                    continue;
                }
                let prefix = &site.predicates[..len];
                let parts: Vec<&LExpr> = std::iter::once(site.source)
                    .chain(site.init.iter().map(|s| &s.expr))
                    .chain(prefix)
                    .collect();
                let dep = self.max_dep(&parts);
                let render = || {
                    format!(
                        "split {:?} {:?} {:?} {prefix:?}",
                        site.source, site.init, site.step
                    )
                };
                let Some(key) = self.key(dep, pos, || shape_hash(parts.iter().copied()), render)
                else {
                    continue;
                };
                if self.rewriting {
                    if let Some(d) = self.decisions.get_mut(&key) {
                        d.used = true;
                        install.push(PrefixCell { len, slot: d.slot });
                    }
                } else {
                    let calls = parts.iter().any(|p| has_call(p));
                    self.price(key, dep, pos, calls, true);
                }
            }
            if !install.is_empty() {
                installs.push((site.step_index, install));
            }
        }
        for (step_index, install) in installs {
            let target = match (&mut *e, step_index) {
                (LExpr::Path { steps, .. }, Some(k)) => &mut steps[k].expr,
                (other, _) => other,
            };
            if !matches!(target, LExpr::PrefixCells { .. }) {
                let inner = std::mem::replace(target, LExpr::LocalRef(0));
                *target = LExpr::PrefixCells {
                    cells: Vec::new(),
                    inner: Box::new(inner),
                };
            }
            let LExpr::PrefixCells { cells, .. } = target else {
                unreachable!("wrapped above");
            };
            cells.extend(install);
            cells.sort_by_key(|c| c.len);
        }
    }

    /// Recurse with poison tracking for nested binder constructs; the
    /// shape mirrors the lowerer's scoping (a clause's expression is
    /// lowered before its binder comes into scope).
    fn visit_children(&mut self, e: &mut LExpr, pos: usize) {
        match e {
            LExpr::Flwor {
                clauses,
                where_,
                order_by,
                return_,
            } => {
                let mark = self.poison.len();
                for clause in clauses.iter_mut() {
                    match clause {
                        LFlworClause::For { var, at, seq, .. } => {
                            self.visit(seq, pos);
                            self.poison.push(*var);
                            if let Some(at) = at {
                                self.poison.push(*at);
                            }
                        }
                        LFlworClause::Let { var, expr, .. } => {
                            self.visit(expr, pos);
                            self.poison.push(*var);
                        }
                    }
                }
                if let Some(w) = where_ {
                    self.visit(w, pos);
                }
                for spec in order_by.iter_mut() {
                    self.visit(&mut spec.key, pos);
                }
                self.visit(return_, pos);
                self.poison.truncate(mark);
            }
            LExpr::Quantified {
                bindings,
                satisfies,
                ..
            } => {
                let mark = self.poison.len();
                for (slot, seq) in bindings.iter_mut() {
                    self.visit(seq, pos);
                    self.poison.push(*slot);
                }
                self.visit(satisfies, pos);
                self.poison.truncate(mark);
            }
            LExpr::TryCatch { try_, var, catch } => {
                self.visit(try_, pos);
                let mark = self.poison.len();
                if let Some(v) = var {
                    self.poison.push(*v);
                }
                self.visit(catch, pos);
                self.poison.truncate(mark);
            }
            LExpr::TypeSwitch {
                operand,
                cases,
                default_var,
                default,
            } => {
                self.visit(operand, pos);
                for case in cases.iter_mut() {
                    let mark = self.poison.len();
                    if let Some(v) = case.var {
                        self.poison.push(v);
                    }
                    self.visit(&mut case.body, pos);
                    self.poison.truncate(mark);
                }
                let mark = self.poison.len();
                if let Some(v) = default_var {
                    self.poison.push(*v);
                }
                self.visit(default, pos);
                self.poison.truncate(mark);
            }
            // Cells are transparent: their inner node was priced (or
            // rewritten) as the site itself, so only its children remain.
            LExpr::PrefixCells { inner, .. } => self.visit_children(inner, pos),
            _ => for_each_child(e, &mut |c| self.visit(c, pos)),
        }
    }

    /// Largest clause index binding a slot the (cacheable) parts read.
    fn max_dep(&self, parts: &[&LExpr]) -> Option<usize> {
        let mut dep: Option<usize> = None;
        for e in parts {
            collect_slots(e, &mut |slot| {
                if let Some(&idx) = self.binder_clause.get(&slot) {
                    dep = Some(dep.map_or(idx, |d| d.max(idx)));
                }
            });
        }
        dep
    }
}

/// A cheap structural hash over `parts`: equal for equal keys (it reads
/// only what their rendering shows — kinds, slots, names, operators,
/// literals and source positions), so it can pre-group occurrences before
/// any is rendered.
fn shape_hash<'e>(parts: impl IntoIterator<Item = &'e LExpr>) -> u64 {
    use std::hash::{Hash, Hasher};
    use std::mem::discriminant;
    fn feed(e: &LExpr, h: &mut std::hash::DefaultHasher) {
        discriminant(e).hash(h);
        match e {
            LExpr::Literal(a) => {
                discriminant(a).hash(h);
                match a {
                    Atomic::Str(s) | Atomic::Untyped(s) => s.hash(h),
                    Atomic::Int(n) => n.hash(h),
                    Atomic::Dbl(d) => d.to_bits().hash(h),
                    Atomic::Bool(b) => b.hash(h),
                }
            }
            LExpr::LocalRef(slot) => slot.hash(h),
            LExpr::GlobalRef(name, position) => (name, position).hash(h),
            LExpr::ContextItem(position) | LExpr::Root(position) => position.hash(h),
            LExpr::Arith(op, ..) => discriminant(op).hash(h),
            LExpr::GeneralCmp(op, ..) | LExpr::ValueCmp(op, ..) => discriminant(op).hash(h),
            LExpr::NodeCmp(op, ..) => discriminant(op).hash(h),
            LExpr::SetExpr(op, ..) => discriminant(op).hash(h),
            LExpr::AxisStep {
                axis,
                test,
                position,
                ..
            } => {
                (discriminant(axis), discriminant(test), position).hash(h);
                if let LNodeTest::Name(q)
                | LNodeTest::Element(Some(q))
                | LNodeTest::AttributeTest(Some(q)) = test
                {
                    q.hash(h);
                }
            }
            LExpr::CallBuiltin {
                builtin, position, ..
            } => (builtin, position).hash(h),
            LExpr::CallUser {
                index, position, ..
            } => (index, position).hash(h),
            LExpr::CastAs(_, _, position) => position.hash(h),
            _ => {}
        }
        for_each_child_ref(e, &mut |c| feed(c, h));
    }
    let mut h = std::hash::DefaultHasher::new();
    for e in parts {
        feed(e, &mut h);
    }
    h.finish()
}

/// A predicate list a prefix split may cut, with what it filters.
struct SplitSite<'e> {
    /// Where the candidates come from: a path's start or a filter's base.
    source: &'e LExpr,
    /// A path's steps before the predicated one; empty for a filter.
    init: &'e [LPathStep],
    /// The predicated step's index, axis and node test; `None` for a filter.
    step_index: Option<usize>,
    step: Option<(Axis, &'e LNodeTest)>,
    predicates: &'e [LExpr],
    /// Cells an enclosing region already installed on this list.
    cells: &'e [PrefixCell],
}

/// The split sites of `e`: each step of a path carrying two or more
/// predicates, or a filter with two or more (through cells an enclosing
/// region installed). A step after `//` is refused: its context is every
/// descendant, never the single node its cells could serve.
fn split_sites(e: &LExpr) -> Vec<SplitSite<'_>> {
    fn strip(e: &LExpr) -> (&[PrefixCell], &LExpr) {
        match e {
            LExpr::PrefixCells { cells, inner } => (cells, inner),
            _ => (&[], e),
        }
    }
    match e {
        LExpr::Path { start, steps } => steps
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.double_slash)
            .filter_map(|(k, s)| {
                let (cells, inner) = strip(&s.expr);
                match inner {
                    LExpr::AxisStep {
                        axis,
                        test,
                        predicates,
                        ..
                    } if predicates.len() >= 2 => Some(SplitSite {
                        source: start,
                        init: &steps[..k],
                        step_index: Some(k),
                        step: Some((*axis, test)),
                        predicates,
                        cells,
                    }),
                    _ => None,
                }
            })
            .collect(),
        LExpr::Filter(..) | LExpr::PrefixCells { .. } => match strip(e) {
            (cells, LExpr::Filter(base, predicates)) if predicates.len() >= 2 => vec![SplitSite {
                source: base,
                init: &[],
                step_index: None,
                step: None,
                predicates,
                cells,
            }],
            _ => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// Is this subtree deterministic given the frame, and so safe to memoize?
/// `focus_ok` is true inside path-step and filter predicates, where the
/// focus is (re)bound by the containing expression itself. `pure_fns`
/// admits calls: a pure builtin (one that reads the focus only where
/// `focus_ok` holds) or a user function it marks pure; `None` admits none.
fn cacheable(e: &LExpr, poison: &[u32], focus_ok: bool, pure_fns: Option<&[bool]>) -> bool {
    match e {
        LExpr::Literal(_) | LExpr::GlobalRef(..) => true,
        LExpr::LocalRef(slot) => !poison.contains(slot),
        LExpr::ContextItem(_) | LExpr::Root(_) => focus_ok,
        LExpr::AxisStep { predicates, .. } => {
            focus_ok
                && predicates
                    .iter()
                    .all(|p| cacheable(p, poison, true, pure_fns))
        }
        LExpr::Comma(parts) => parts
            .iter()
            .all(|p| cacheable(p, poison, focus_ok, pure_fns)),
        LExpr::Range(a, b)
        | LExpr::Arith(_, a, b)
        | LExpr::GeneralCmp(_, a, b)
        | LExpr::ValueCmp(_, a, b)
        | LExpr::NodeCmp(_, a, b)
        | LExpr::SetExpr(_, a, b)
        | LExpr::And(a, b)
        | LExpr::Or(a, b) => {
            cacheable(a, poison, focus_ok, pure_fns) && cacheable(b, poison, focus_ok, pure_fns)
        }
        LExpr::Neg(a)
        | LExpr::InstanceOf(a, _)
        | LExpr::CastAs(a, _, _)
        | LExpr::CastableAs(a, _) => cacheable(a, poison, focus_ok, pure_fns),
        LExpr::If(c, t, e2) => {
            cacheable(c, poison, focus_ok, pure_fns)
                && cacheable(t, poison, focus_ok, pure_fns)
                && cacheable(e2, poison, focus_ok, pure_fns)
        }
        LExpr::Path { start, steps } => {
            cacheable(start, poison, focus_ok, pure_fns)
                && steps.iter().all(|s| step_cacheable(s, poison, pure_fns))
        }
        LExpr::Filter(base, preds) => {
            cacheable(base, poison, focus_ok, pure_fns)
                && preds.iter().all(|p| cacheable(p, poison, true, pure_fns))
        }
        LExpr::CallBuiltin { builtin, args, .. } => {
            pure_fns.is_some()
                && builtin.is_pure()
                && (focus_ok || !builtin.reads_focus(args.len()))
                && args
                    .iter()
                    .all(|a| cacheable(a, poison, focus_ok, pure_fns))
        }
        LExpr::CallUser { index, args, .. } => {
            pure_fns.is_some_and(|pure| pure[*index as usize])
                && args
                    .iter()
                    .all(|a| cacheable(a, poison, focus_ok, pure_fns))
        }
        // Prefix cells memoize a pure value of their inner node.
        LExpr::PrefixCells { inner, .. } => cacheable(inner, poison, focus_ok, pure_fns),
        // `fn:trace`, unresolved calls, constructors (fresh node identity
        // per evaluation), binder constructs, the outer focus, and existing
        // `CacheOnce` cells are never cacheable.
        _ => false,
    }
}

/// A path step is cacheable when it is a plain axis step (under any prefix
/// cells) whose predicates are; anything fancier (a call in step position,
/// say) is rejected.
fn step_cacheable(s: &LPathStep, poison: &[u32], pure_fns: Option<&[bool]>) -> bool {
    let expr = match &s.expr {
        LExpr::PrefixCells { inner, .. } => inner,
        other => other,
    };
    match expr {
        LExpr::AxisStep { predicates, .. } => predicates
            .iter()
            .all(|p| cacheable(p, poison, true, pure_fns)),
        _ => false,
    }
}

/// A cell only pays for itself when the subtree does real evaluation work:
/// navigation, filtering, set algebra, comparison, or sequence/number
/// construction. Bare literal lists and variable reads are cheaper than the
/// cell that would cache them.
fn worth_caching(e: &LExpr) -> bool {
    let mut found = matches!(
        e,
        LExpr::Path { .. }
            | LExpr::Filter(..)
            | LExpr::SetExpr(..)
            | LExpr::GeneralCmp(..)
            | LExpr::ValueCmp(..)
            | LExpr::NodeCmp(..)
            | LExpr::Range(..)
            | LExpr::Arith(..)
            | LExpr::CallUser { .. }
    );
    if !found {
        // The work may sit below a cheap wrapper (`If`, `Comma`, casts).
        let mut scan = |c: &LExpr| found = found || worth_caching(c);
        for_each_child_ref(e, &mut scan);
    }
    found
}

/// Immutable twin of [`for_each_child`] for analysis-only walks (also used
/// by [`crate::obs::explain`] to render the plan tree).
pub(crate) fn for_each_child_ref(e: &LExpr, f: &mut impl FnMut(&LExpr)) {
    match e {
        LExpr::Literal(_)
        | LExpr::LocalRef(_)
        | LExpr::GlobalRef(..)
        | LExpr::ContextItem(_)
        | LExpr::Root(_) => {}
        LExpr::Comma(parts) => parts.iter().for_each(f),
        LExpr::Range(a, b)
        | LExpr::Arith(_, a, b)
        | LExpr::GeneralCmp(_, a, b)
        | LExpr::ValueCmp(_, a, b)
        | LExpr::NodeCmp(_, a, b)
        | LExpr::SetExpr(_, a, b)
        | LExpr::And(a, b)
        | LExpr::Or(a, b) => {
            f(a);
            f(b);
        }
        LExpr::Neg(a)
        | LExpr::CompText(a)
        | LExpr::CompComment(a)
        | LExpr::InstanceOf(a, _)
        | LExpr::CastAs(a, _, _)
        | LExpr::CastableAs(a, _)
        | LExpr::CacheOnce { expr: a, .. }
        | LExpr::PrefixCells { inner: a, .. } => f(a),
        LExpr::If(c, t, e2) => {
            f(c);
            f(t);
            f(e2);
        }
        LExpr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => {
            for clause in clauses {
                match clause {
                    LFlworClause::For { seq, .. } => f(seq),
                    LFlworClause::Let { expr, .. } => f(expr),
                }
            }
            if let Some(w) = where_ {
                f(w);
            }
            for spec in order_by {
                f(&spec.key);
            }
            f(return_);
        }
        LExpr::Quantified {
            bindings,
            satisfies,
            ..
        } => {
            for (_, seq) in bindings {
                f(seq);
            }
            f(satisfies);
        }
        LExpr::AxisStep { predicates, .. } => predicates.iter().for_each(f),
        LExpr::Path { start, steps } => {
            f(start);
            for s in steps {
                f(&s.expr);
            }
        }
        LExpr::Filter(base, preds) => {
            f(base);
            preds.iter().for_each(f);
        }
        LExpr::CallBuiltin { args, .. }
        | LExpr::CallUser { args, .. }
        | LExpr::CallUnknown { args, .. } => args.iter().for_each(f),
        LExpr::DirectElement { attrs, content, .. } => {
            for (_, parts) in attrs {
                for part in parts {
                    if let crate::lower::LAttrPart::Enclosed(e2) = part {
                        f(e2);
                    }
                }
            }
            for part in content {
                match part {
                    crate::lower::LContentPart::Enclosed(e2)
                    | crate::lower::LContentPart::Node(e2) => f(e2),
                    crate::lower::LContentPart::Literal(_) => {}
                }
            }
        }
        LExpr::CompElement { name, content, .. } => {
            if let crate::lower::LConstructorName::Computed(n) = name {
                f(n);
            }
            if let Some(c) = content {
                f(c);
            }
        }
        LExpr::CompAttribute { name, value, .. } => {
            if let crate::lower::LConstructorName::Computed(n) = name {
                f(n);
            }
            if let Some(v) = value {
                f(v);
            }
        }
        LExpr::TryCatch { try_, catch, .. } => {
            f(try_);
            f(catch);
        }
        LExpr::TypeSwitch {
            operand,
            cases,
            default,
            ..
        } => {
            f(operand);
            for case in cases {
                f(&case.body);
            }
            f(default);
        }
    }
}

/// Walks the slot reads of a subtree already vetted by [`cacheable`] — the
/// variants a cacheable tree can contain are exactly the ones descended
/// into here.
fn collect_slots(e: &LExpr, f: &mut impl FnMut(u32)) {
    match e {
        LExpr::LocalRef(slot) => f(*slot),
        LExpr::Literal(_) | LExpr::GlobalRef(..) | LExpr::ContextItem(_) | LExpr::Root(_) => {}
        LExpr::Comma(parts) => {
            for p in parts {
                collect_slots(p, f);
            }
        }
        LExpr::Range(a, b)
        | LExpr::Arith(_, a, b)
        | LExpr::GeneralCmp(_, a, b)
        | LExpr::ValueCmp(_, a, b)
        | LExpr::NodeCmp(_, a, b)
        | LExpr::SetExpr(_, a, b)
        | LExpr::And(a, b)
        | LExpr::Or(a, b) => {
            collect_slots(a, f);
            collect_slots(b, f);
        }
        LExpr::Neg(a)
        | LExpr::InstanceOf(a, _)
        | LExpr::CastAs(a, _, _)
        | LExpr::CastableAs(a, _) => collect_slots(a, f),
        LExpr::If(c, t, e2) => {
            collect_slots(c, f);
            collect_slots(t, f);
            collect_slots(e2, f);
        }
        LExpr::AxisStep { predicates, .. } => {
            for p in predicates {
                collect_slots(p, f);
            }
        }
        LExpr::Path { start, steps } => {
            collect_slots(start, f);
            for s in steps {
                collect_slots(&s.expr, f);
            }
        }
        LExpr::Filter(base, preds) => {
            collect_slots(base, f);
            for p in preds {
                collect_slots(p, f);
            }
        }
        LExpr::CallBuiltin { args, .. } | LExpr::CallUser { args, .. } => {
            for a in args {
                collect_slots(a, f);
            }
        }
        LExpr::PrefixCells { inner, .. } => collect_slots(inner, f),
        // Unreachable for cacheable trees; stay conservative if reached.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::parser::parse_module;

    fn lowered(src: &str) -> Program {
        let module = parse_module(src).expect("parse");
        lower_module(&module).expect("lower")
    }

    /// Counts cache cells via the Debug rendering — the same structural
    /// key the pass itself groups by.
    fn count_cells(e: &LExpr) -> usize {
        format!("{e:?}").matches("CacheOnce").count()
    }

    #[test]
    fn invariant_path_is_hoisted_out_of_the_loop() {
        let mut p = lowered(
            "let $d := <r><a k='1'/><a k='2'/></r> \
             return for $i in (1, 2, 3) return $d/a[@k = '1']",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hoisted_invariant, 1, "one invariant hoist: {stats:?}");
        assert_eq!(count_cells(&p.body), 1);
    }

    #[test]
    fn loop_dependent_single_use_is_left_alone() {
        let mut p = lowered("for $i in (1, 2, 3) return $i + 1");
        let stats = optimize_program(&mut p);
        assert_eq!(stats, PlanStats::default(), "nothing to hoist: {stats:?}");
    }

    #[test]
    fn repeated_tuple_expression_is_cached_per_iteration() {
        let mut p = lowered("for $i in (1, 2, 3) where ($i + 1) * 2 > 4 return ($i + 1) * 2");
        let stats = optimize_program(&mut p);
        assert_eq!(stats.cached_per_tuple, 1, "one per-tuple cache: {stats:?}");
        // Both occurrences rewritten to the same cell.
        assert_eq!(count_cells(&p.body), 2);
    }

    #[test]
    fn calls_and_constructors_are_never_cached() {
        let mut p =
            lowered("for $i in (1, 2) where exists(trace((1, 2), 'x')) return <e a='{1 + 2}'/>");
        let stats = optimize_program(&mut p);
        // trace(...) is a call and the constructor creates identity, so
        // neither is wrapped; the literal list `(1, 2)` is not worth a
        // cell. The only hoist is the arithmetic inside the attribute.
        assert_eq!(stats.hoisted_invariant, 1, "{stats:?}");
        assert_eq!(stats.cached_per_tuple, 0, "{stats:?}");
        assert_eq!(count_cells(&p.body), 1);
        let rendered = format!("{:?}", p.body);
        assert!(
            !rendered.contains("CacheOnce { slot: 1, expr: CallBuiltin")
                && !rendered.contains("expr: DirectElement"),
            "calls/constructors must stay outside cells: {rendered}"
        );
    }

    #[test]
    fn pure_calls_are_hoisted_and_counted() {
        let mut p = lowered(
            "let $d := <r><a k='1'/></r> \
             return for $i in (1, 2, 3) return concat(string($d/a/@k), $i)",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hoisted_invariant, 1, "{stats:?}");
        assert_eq!(stats.calls_hoisted, 1, "{stats:?}");
        assert!(format!("{:?}", p.body).contains("CacheOnce { slot: 2, expr: CallBuiltin"));
    }

    #[test]
    fn user_function_purity_is_a_fixpoint_over_the_call_graph() {
        // f recurses and is pure; g reaches trace through h; k constructs.
        let p = lowered(
            "declare function local:f($n) { if ($n le 0) then 0 else local:f($n - 1) }; \
             declare function local:g($n) { local:h($n) }; \
             declare function local:h($n) { if ($n le 0) then trace($n, 'h') else local:g($n - 1) }; \
             declare function local:k() { <e/> }; \
             1",
        );
        assert_eq!(pure_functions(&p), [true, false, false, false]);
        let mut p = lowered(
            "declare function local:f($n) { if ($n le 0) then 0 else local:f($n - 1) }; \
             declare function local:g($n) { trace($n, 'g') }; \
             for $i in (1, 2) return (local:f(3), local:g(3))",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(
            (stats.hoisted_invariant, stats.calls_hoisted),
            (1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn a_program_without_loop_calls_skips_the_purity_analysis() {
        let p = lowered("declare function local:f() { 1 }; for $i in (1, 2) return $i + 1");
        assert!(!holds_flwor_call(&p));
        let p = lowered("declare function local:f() { for $i in (1, 2) return string($i) }; 1");
        assert!(holds_flwor_call(&p));
    }

    /// The `PrefixCells` nodes of a rendering, as `(len, slot)` lists.
    fn prefix_cells(e: &LExpr) -> Vec<Vec<(usize, u32)>> {
        let mut out = Vec::new();
        fn find(e: &LExpr, out: &mut Vec<Vec<(usize, u32)>>) {
            if let LExpr::PrefixCells { cells, .. } = e {
                out.push(cells.iter().map(|c| (c.len, c.slot)).collect());
            }
            for_each_child_ref(e, &mut |c| find(c, out));
        }
        find(e, &mut out);
        out
    }

    #[test]
    fn an_invariant_predicate_prefix_is_split_from_the_residual() {
        let mut p = lowered(
            "let $d := <r><a k='x' j='1'/><a k='x' j='2'/></r> \
             return for $i in (1, 2) return $d/a[string(@k) = 'x'][@j = $i]",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.predicate_splits, 1, "{stats:?}");
        assert_eq!(stats.hoisted_invariant, 1, "{stats:?}");
        assert_eq!(stats.calls_hoisted, 1, "{stats:?}");
        assert_eq!(prefix_cells(&p.body).len(), 1);
        // Filters split the same way.
        let mut p = lowered(
            "let $d := (1, 2, 3) \
             return for $i in (1, 2) return $d[. > 1][. = $i]",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.predicate_splits, 1, "{stats:?}");
    }

    #[test]
    fn nested_loops_each_hold_a_longer_prefix_of_one_list() {
        // The gen-table shape: [1] is invariant across both loops, [1][2]
        // only across the inner one.
        let mut p = lowered(
            "let $d := <r><a k='x' s='1' t='2'/></r> \
             return for $r in (1, 2) return for $c in (1, 2) \
             return count($d/a[string(@k) = 'x'][@s = $r][@t = $c])",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.predicate_splits, 2, "{stats:?}");
        let cells = prefix_cells(&p.body);
        assert_eq!(cells.len(), 1, "{cells:?}");
        let lens: Vec<usize> = cells[0].iter().map(|c| c.0).collect();
        assert_eq!(lens, [1, 2]);
    }

    #[test]
    fn splits_refuse_descendant_steps_and_trace_prefixes() {
        // After `//` the step's context is every descendant.
        let mut p = lowered(
            "let $d := <r><a k='x'/></r> \
             return for $i in (1, 2) return $d//a[@k = 'x'][@k = $i]",
        );
        assert_eq!(optimize_program(&mut p).predicate_splits, 0);
        // A prefix holding trace is not cacheable.
        let mut p = lowered(
            "let $d := <r><a k='x'/></r> \
             return for $i in (1, 2) return $d/a[trace(@k, 't') = 'x'][@k = $i]",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(
            (stats.predicate_splits, stats.calls_hoisted),
            (0, 0),
            "{stats:?}"
        );
        // position() reads the focus, which the predicate rebinds.
        let mut p = lowered(
            "let $d := <r><a k='x'/></r> \
             return for $i in (1, 2) return $d/a[position() < 3][@k = $i]",
        );
        assert_eq!(optimize_program(&mut p).predicate_splits, 1);
    }

    #[test]
    fn frame_grows_by_the_synthetic_slots() {
        let mut p = lowered("let $d := <r><a/></r> return for $i in (1, 2) return $d/a");
        let before = p.body_frame;
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hoisted_invariant, 1);
        assert_eq!(p.body_frame, before + 1);
    }

    #[test]
    fn dependency_on_the_inner_loop_blocks_the_entry_hoist() {
        // $n/@id depends on the *outer* for, so it hoists to the inner
        // loop's entry; $r/@x depends on the inner loop and occurs once, so
        // it is left alone.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where $n = $r return $n");
        let stats = optimize_program(&mut p);
        // `$n` / `$r` are bare refs — never cached. No cells appear; this
        // pins that dep analysis doesn't invent work. The `where` equality
        // does qualify for the hash-join mark (`$r` is the final clause's
        // variable) — the runtime falls back to the scan for the integer
        // atoms, so the mark is behaviourally invisible here.
        assert_eq!(stats.hoisted_invariant, 0, "{stats:?}");
        assert_eq!(stats.cached_per_tuple, 0, "{stats:?}");
        assert_eq!(stats.hash_joins, 1, "{stats:?}");
        assert_eq!(count_cells(&p.body), 0);
    }

    #[test]
    fn where_equality_on_the_final_for_is_marked_for_the_hash_join() {
        let mut p = lowered(
            "let $d := <r><a id='1'/><a id='2'/></r> \
             return for $n in $d/a for $r in $d/a where $r/@id = $n/@id return $r",
        );
        let stats = optimize_program(&mut p);
        assert_eq!(stats.hash_joins, 1, "{stats:?}");
    }

    #[test]
    fn join_gates_reject_calls_and_ambiguous_sides() {
        // A call on either side could trace — never marked.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where string($r) = $n return $r");
        assert_eq!(optimize_program(&mut p).hash_joins, 0);
        // Both operands mention the final variable — no single key side.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where $r = $r return $n");
        assert_eq!(optimize_program(&mut p).hash_joins, 0);
        // The key side also reads an *earlier* clause binding: the table
        // would go stale across tuples, so the mark is refused.
        let mut p = lowered("for $n in (1, 2) for $r in (3, 4) where $r - $n = 0 return $r");
        assert_eq!(optimize_program(&mut p).hash_joins, 0);
    }
}
