//! The slot-based runner for lowered programs.
//!
//! This is the "run" half of the compile/run split: it executes the
//! [`Program`](crate::lower::Program) produced by [`crate::lower`], reading
//! variables from a flat [`Frame`] by pre-resolved index, dispatching
//! builtins on their enum, and calling user functions through a dense table.
//!
//! It must be observably identical to the tree-walking reference evaluator
//! in [`crate::eval`] — same values, same error codes and messages (including
//! the Galax-quirk ones), same trace output. To keep the two from drifting,
//! everything expression-independent (arithmetic promotion, axis candidate
//! enumeration, the predicate rule, order-key comparison, element-content
//! construction) lives in shared helpers in `eval`/`functions`; this module
//! only re-implements the walking skeleton over the lowered form. The store
//! index fast paths (fused `//name` steps, `[@attr = v]` probes, the lone
//! `//name` count and existence answers) are the runner's alone: the walker
//! is the index-free oracle they are checked against.
//!
//! ## Concurrency contract
//!
//! A [`Program`] is immutable after lowering and `Send + Sync`: every name
//! and literal it holds is a process-globally interned symbol, so the same
//! `Arc<Program>` may be evaluated concurrently from any number of engines
//! and pool workers (see `engine::StackPool`). All mutable state — the
//! frame, the dynamic context, trace output — is created per evaluation and
//! never escapes it; the runner itself recurses deeply, which is why
//! evaluation always happens on a big-stack pool worker rather than the
//! caller's thread.

use crate::ast::{Axis, CmpOp, NodeCmpOp, Quantifier, SetOp};
use crate::compare::{
    atomize, atomize_item, effective_boolean_value, general_compare, general_compare_hashed,
    string_family, value_compare,
};
use crate::context::{DynamicContext, Focus};
use crate::cursor::{classify_steps, positional_predicate, PathCursor};
use crate::engine::EngineOptions;
use crate::error::{Error, ErrorCode, Result};
use crate::eval::{
    arith, axis_candidates, compare_order_keys, dedup_sorted, expand_descendant_or_self, internal,
    join_atomized, predicate_outcome, range_sequence, singleton_integer, singleton_number,
    ContentBuilder, NumOperand,
};
use crate::functions::{dispatch_builtin, Builtin, CallCtx};
use crate::lower::{
    CompiledFunction, JoinSide, LAttrPart, LConstructorName, LContentPart, LExpr, LFlworClause,
    LNodeTest, LOrderSpec, LPathStep, PrefixCell, Program,
};
use crate::obs::EvalStats;
use crate::types::{cast_atomic, ItemType, SeqType};
use crate::value::{Atomic, Item, Sequence};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xmlstore::{NodeId, NodeKind, QName, Store, Sym};

/// Everything the runner threads besides the focus and the frame.
pub struct RunEnv<'a> {
    pub store: &'a mut Store,
    pub options: &'a EngineOptions,
    pub program: &'a Program,
    /// Registered documents for `fn:doc`.
    pub docs: &'a HashMap<String, NodeId>,
    /// Module-level variables, keyed by interned name. Declarations are
    /// inserted by the engine as they evaluate, so initializers see exactly
    /// the earlier ones — the same visibility the reference evaluator has.
    pub globals: &'a HashMap<Sym, Arc<Sequence>>,
    /// Output sink for `fn:trace` (see [`crate::obs::TraceSink`]).
    pub trace: &'a mut dyn crate::obs::TraceSink,
    /// Per-query runtime counters (see [`crate::obs::EvalStats`]). One
    /// evaluation runs on one worker, so plain `&mut` increments suffice.
    pub stats: &'a mut EvalStats,
    /// Current user-function recursion depth.
    pub depth: usize,
    /// Slot vectors of returned user-function frames, reused by the next
    /// call so a call allocates no frame once the pool is warm.
    pub frame_pool: FramePool,
}

/// Spare frame slot vectors, one evaluation's worth (see
/// [`RunEnv::frame_pool`]). Each is empty; it grows back to a callee's
/// frame size on reuse.
#[derive(Default)]
pub struct FramePool(Vec<Vec<Option<Sequence>>>);

/// A flat frame of variable slots. Slot indices were resolved at lowering
/// time; scopes never pop at runtime because a slot is only ever read by
/// references its binder dominates. A slot holds its sequence directly, so
/// binding a one-item sequence (every `for` tuple) allocates nothing.
pub struct Frame {
    slots: Vec<Option<Sequence>>,
}

impl Frame {
    pub fn new(size: usize) -> Frame {
        Frame {
            slots: vec![None; size],
        }
    }

    /// A frame of `size` unbound slots on a vector from `pool`.
    fn from_pool(pool: &mut FramePool, size: usize) -> Frame {
        let mut slots = pool.0.pop().unwrap_or_default();
        slots.resize(size, None);
        Frame { slots }
    }

    /// Drops the bindings and hands the slot vector back to `pool`.
    fn release(mut self, pool: &mut FramePool) {
        self.slots.clear();
        pool.0.push(self.slots);
    }

    fn set(&mut self, slot: u32, value: Sequence) {
        self.slots[slot as usize] = Some(value);
    }

    fn get(&self, slot: u32) -> Option<&Sequence> {
        self.slots[slot as usize].as_ref()
    }

    /// Empties a [`LExpr::CacheOnce`] slot so the next read re-evaluates.
    fn clear(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
    }
}

/// Evaluates a lowered expression to a sequence.
pub fn run(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    match expr {
        LExpr::Literal(a) => Ok(Sequence::singleton(Item::Atomic(a.clone()))),

        LExpr::LocalRef(slot) => match frame.get(*slot) {
            Some(v) => Ok(v.clone()),
            // Unreachable for a correct lowering: every LocalRef is
            // dominated by its binder.
            None => Err(Error::internal(format!("unbound frame slot {slot}"))),
        },

        LExpr::GlobalRef(name, position) => match env.globals.get(name) {
            Some(v) => Ok((**v).clone()),
            None => {
                if env.options.galax_quirks {
                    Err(Error::new(
                        ErrorCode::Internal,
                        format!("Internal_Error: Variable '${name}' not found."),
                    ))
                } else {
                    Err(Error::new(
                        ErrorCode::XPST0008,
                        format!("variable ${name} is not bound"),
                    )
                    .at(position.0, position.1))
                }
            }
        },

        LExpr::ContextItem(position) => {
            let item = ctx
                .context_item(env.options.galax_quirks, *position)?
                .clone();
            Ok(Sequence::singleton(item))
        }

        LExpr::Comma(parts) => {
            let mut out = Sequence::empty();
            for p in parts {
                out.push_seq(run(p, env, frame, ctx)?);
            }
            Ok(out)
        }

        LExpr::Range(lo, hi) => {
            let lo = run(lo, env, frame, ctx)?;
            let hi = run(hi, env, frame, ctx)?;
            let (Some(lo), Some(hi)) = (
                singleton_integer(&lo, env.store)?,
                singleton_integer(&hi, env.store)?,
            ) else {
                return Ok(Sequence::empty());
            };
            range_sequence(lo, hi)
        }

        LExpr::Arith(op, l, r) => {
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            arith(*op, &l, &r, env.store)
        }

        LExpr::Neg(e) => {
            let v = run(e, env, frame, ctx)?;
            let Some(n) = singleton_number(&v, env.store)? else {
                return Ok(Sequence::empty());
            };
            Ok(match n {
                NumOperand::Int(i) => Atomic::Int(-i).into(),
                NumOperand::Dbl(d) => Atomic::Dbl(-d).into(),
            })
        }

        LExpr::GeneralCmp(op, l, r) => {
            // Existential semantics stop at the first hit, so a streamable
            // path operand compared against a singleton pulls one item at a
            // time and abandons the walk on success. Effect order is the
            // generic one: the left operand (or, for a streamed right side,
            // the whole left) is evaluated before the right, and cursor
            // pulls themselves are effect-free.
            if let LExpr::Path { start, steps } = &**l {
                if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
                    let rv = run(r, env, frame, ctx)?;
                    let b = stream_compare(stream, *op, &rv, false, env);
                    return Ok(Atomic::Bool(b).into());
                }
            } else if let LExpr::Path { start, steps } = &**r {
                // Classify structurally *before* evaluating the left
                // operand so the fallback path still runs l-then-r.
                if classify_steps(steps).is_some() {
                    let lv = run(l, env, frame, ctx)?;
                    let stream =
                        open_path_stream(start, steps, env, frame, ctx)?.expect("classified above");
                    let b = stream_compare(stream, *op, &lv, true, env);
                    return Ok(Atomic::Bool(b).into());
                }
            }
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            // Both operands are fully evaluated before the comparison and
            // the comparison itself never raises, so the hash join can only
            // change how the same boolean is found.
            let b = general_compare_hashed(*op, &l, &r, env.store);
            Ok(Atomic::Bool(b).into())
        }

        LExpr::ValueCmp(op, l, r) => {
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            match value_compare(*op, &l, &r, env.store)? {
                Some(b) => Ok(Atomic::Bool(b).into()),
                None => Ok(Sequence::empty()),
            }
        }

        LExpr::NodeCmp(op, l, r) => {
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            if l.is_empty() || r.is_empty() {
                return Ok(Sequence::empty());
            }
            let (Some(Item::Node(a)), Some(Item::Node(b))) = (l.as_singleton(), r.as_singleton())
            else {
                return Err(Error::new(
                    ErrorCode::XPTY0004,
                    "node comparison requires singleton nodes",
                ));
            };
            let result = match op {
                NodeCmpOp::Is => a == b,
                NodeCmpOp::Precedes | NodeCmpOp::Follows => {
                    let ord = env.store.doc_order(*a, *b).ok_or_else(|| {
                        Error::new(
                            ErrorCode::XPTY0004,
                            "document-order comparison of nodes in different trees",
                        )
                    })?;
                    match op {
                        NodeCmpOp::Precedes => ord == std::cmp::Ordering::Less,
                        _ => ord == std::cmp::Ordering::Greater,
                    }
                }
            };
            Ok(Atomic::Bool(result).into())
        }

        LExpr::SetExpr(op, l, r) => {
            let l = run(l, env, frame, ctx)?;
            let r = run(r, env, frame, ctx)?;
            let (Some(ls), Some(rs)) = (l.all_nodes(), r.all_nodes()) else {
                return Err(Error::new(
                    ErrorCode::XPTY0004,
                    "union/intersect/except operands must be node sequences",
                ));
            };
            // Union never consults the membership set (dedup_sorted below
            // removes duplicates anyway), so only build it for the
            // filtering operators.
            let combined: Vec<NodeId> = match op {
                SetOp::Union => ls.into_iter().chain(rs).collect(),
                SetOp::Intersect => {
                    let right_set: HashSet<NodeId> = rs.iter().copied().collect();
                    ls.into_iter().filter(|n| right_set.contains(n)).collect()
                }
                SetOp::Except => {
                    let right_set: HashSet<NodeId> = rs.iter().copied().collect();
                    ls.into_iter().filter(|n| !right_set.contains(n)).collect()
                }
            };
            Ok(dedup_sorted(combined, env.store)
                .into_iter()
                .map(Item::Node)
                .collect())
        }

        LExpr::And(l, r) => {
            if !run_ebv(l, env, frame, ctx)? {
                return Ok(Atomic::Bool(false).into());
            }
            Ok(Atomic::Bool(run_ebv(r, env, frame, ctx)?).into())
        }

        LExpr::Or(l, r) => {
            if run_ebv(l, env, frame, ctx)? {
                return Ok(Atomic::Bool(true).into());
            }
            Ok(Atomic::Bool(run_ebv(r, env, frame, ctx)?).into())
        }

        LExpr::If(c, t, e) => {
            if run_ebv(c, env, frame, ctx)? {
                run(t, env, frame, ctx)
            } else {
                run(e, env, frame, ctx)
            }
        }

        LExpr::Flwor {
            clauses,
            where_,
            order_by,
            return_,
        } => run_flwor(
            clauses,
            where_.as_deref(),
            order_by,
            return_,
            env,
            frame,
            ctx,
        ),

        LExpr::Quantified {
            quantifier,
            bindings,
            satisfies,
        } => quantified(*quantifier, bindings, satisfies, 0, env, frame, ctx)
            .map(|b| Atomic::Bool(b).into()),

        LExpr::Root(position) => {
            let item = ctx
                .context_item(env.options.galax_quirks, *position)?
                .clone();
            match item {
                Item::Node(n) => Ok(Sequence::singleton(Item::Node(env.store.root(n)))),
                Item::Atomic(_) => Err(Error::new(
                    ErrorCode::XPTY0019,
                    "'/' requires a node context item",
                )
                .at(position.0, position.1)),
            }
        }

        LExpr::AxisStep {
            axis,
            test,
            predicates,
            position,
        } => axis_step_nodes(*axis, test, predicates, *position, env, frame, ctx),

        LExpr::Path { start, steps } => {
            // A bare path must materialise its whole result anyway, so the
            // cursor only takes over when the final step carries a
            // positional predicate — the shape where the generic evaluator
            // expands every descendant-or-self context first (thousands of
            // nodes for a handful kept). Predicate-free paths keep the name
            // index fast paths of the step loop.
            if classify_steps(steps).is_some_and(|p| p.has_positional()) {
                if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
                    let out = match stream {
                        PathStream::Cursor(mut cur) => {
                            let out = cur.materialize(env.store, env.stats);
                            env.stats.items_allocated += out.len() as u64;
                            out
                        }
                        PathStream::Done(seq) => seq,
                    };
                    return Ok(out);
                }
            }
            let start_seq = run(start, env, frame, ctx)?;
            finish_path_from(start_seq, steps, env, frame, ctx)
        }

        LExpr::Filter(base, predicates) => {
            // `(PATH)[3]`-style filters select by *global* position, so the
            // cursor stops pulling the moment the window is closed — the
            // early-exit shape the paper's prefix queries want.
            if let (LExpr::Path { start, steps }, [p]) = (&**base, predicates.as_slice()) {
                if let Some((op, n)) = positional_predicate(p) {
                    if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
                        return Ok(stream_filter_positional(stream, op, n, env));
                    }
                }
            }
            let seq = run(base, env, frame, ctx)?;
            apply_predicates_items(seq, predicates, env, frame, ctx)
        }

        LExpr::CallBuiltin {
            builtin,
            args,
            position,
        } => {
            if let [LExpr::Path { start, steps }] = args.as_slice() {
                let invert = match builtin {
                    Builtin::Exists | Builtin::Boolean => Some(false),
                    Builtin::Empty | Builtin::Not => Some(true),
                    _ => None,
                };
                if let Some(invert) = invert {
                    if let Some(found) = path_nonempty(start, steps, env, frame, ctx)? {
                        return Ok(Atomic::Bool(found != invert).into());
                    }
                } else if matches!(builtin, Builtin::Count) {
                    if let Some(fused) = lone_index_step(steps) {
                        let n = lone_index_count(start, fused, false, env, frame, ctx)?;
                        return Ok(Atomic::Int(n as i64).into());
                    }
                }
            }
            if let Some(out) = stream_builtin(*builtin, args, env, frame, ctx)? {
                return Ok(out);
            }
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(run(a, env, frame, ctx)?);
            }
            let mut cx = CallCtx {
                store: env.store,
                galax_quirks: env.options.galax_quirks,
                docs: env.docs,
                trace: &mut *env.trace,
            };
            dispatch_builtin(*builtin, values, &mut cx, ctx, *position)
        }

        LExpr::CallUser {
            index,
            args,
            position,
        } => {
            // Arguments bind straight into the callee's frame, whose slot
            // vector comes from the evaluation's pool and returns to it.
            let func = &env.program.functions[*index as usize];
            let mut inner = Frame::from_pool(&mut env.frame_pool, func.frame);
            let bound = args.iter().enumerate().try_for_each(|(i, a)| {
                inner.set(i as u32, run(a, env, frame, ctx)?);
                Ok(())
            });
            let result = bound.and_then(|()| call_user(func, &mut inner, *position, env));
            inner.release(&mut env.frame_pool);
            result
        }

        LExpr::CallUnknown {
            name,
            args,
            position,
        } => {
            // The walker evaluates arguments before discovering the call
            // resolves to nothing; preserve that (argument errors and
            // traces fire first).
            for a in args {
                run(a, env, frame, ctx)?;
            }
            Err(Error::new(
                ErrorCode::XPST0017,
                format!("unknown function {name}#{}", args.len()),
            )
            .at(position.0, position.1))
        }

        LExpr::DirectElement {
            name,
            attrs,
            content,
            position,
        } => {
            let el = env.store.create_element(*name).map_err(internal)?;
            let mut builder = ContentBuilder::new(el, *position, env.options.dup_attr_policy);
            for (aname, parts) in attrs {
                let mut value = String::new();
                for part in parts {
                    match part {
                        LAttrPart::Literal(t) => value.push_str(t),
                        LAttrPart::Enclosed(e) => {
                            let seq = run(e, env, frame, ctx)?;
                            value.push_str(&join_atomized(&seq, env.store));
                        }
                    }
                }
                let attr = env
                    .store
                    .create_attribute(*aname, value)
                    .map_err(internal)?;
                builder.add_attribute(attr, env.store)?;
            }
            for part in content {
                match part {
                    LContentPart::Literal(t) => builder.push_text(t.clone(), env.store)?,
                    LContentPart::Enclosed(e) | LContentPart::Node(e) => {
                        let seq = run(e, env, frame, ctx)?;
                        push_content(&mut builder, seq, env)?;
                    }
                }
            }
            builder.finish(env.store)?;
            Ok(Sequence::singleton(Item::Node(el)))
        }

        LExpr::CompElement {
            name,
            content,
            position,
        } => {
            let name = constructor_qname(name, env, frame, ctx, *position)?;
            let el = env.store.create_element(name).map_err(internal)?;
            let mut builder = ContentBuilder::new(el, *position, env.options.dup_attr_policy);
            if let Some(content) = content {
                let seq = run(content, env, frame, ctx)?;
                push_content(&mut builder, seq, env)?;
            }
            builder.finish(env.store)?;
            Ok(Sequence::singleton(Item::Node(el)))
        }

        LExpr::CompAttribute {
            name,
            value,
            position,
        } => {
            let name = constructor_qname(name, env, frame, ctx, *position)?;
            let text = match value {
                Some(v) => {
                    let seq = run(v, env, frame, ctx)?;
                    join_atomized(&seq, env.store)
                }
                None => String::new(),
            };
            let attr = env.store.create_attribute(name, text).map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(attr)))
        }

        LExpr::CompText(e) => {
            let seq = run(e, env, frame, ctx)?;
            if seq.is_empty() {
                return Ok(Sequence::empty());
            }
            let node = env
                .store
                .create_text(join_atomized(&seq, env.store))
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(node)))
        }

        LExpr::CompComment(e) => {
            let seq = run(e, env, frame, ctx)?;
            let node = env
                .store
                .create_comment(join_atomized(&seq, env.store))
                .map_err(internal)?;
            Ok(Sequence::singleton(Item::Node(node)))
        }

        LExpr::TryCatch { try_, var, catch } => match run(try_, env, frame, ctx) {
            Ok(v) => Ok(v),
            Err(e) if e.code == ErrorCode::Internal => Err(e),
            Err(e) => {
                if let Some(slot) = var {
                    frame.set(*slot, Sequence::singleton(Item::string(e.message.clone())));
                }
                run(catch, env, frame, ctx)
            }
        },

        LExpr::TypeSwitch {
            operand,
            cases,
            default_var,
            default,
        } => {
            let value = run(operand, env, frame, ctx)?;
            for case in cases {
                if case.ty.matches(&value, env.store) {
                    if let Some(slot) = &case.var {
                        frame.set(*slot, value.clone());
                    }
                    return run(&case.body, env, frame, ctx);
                }
            }
            if let Some(slot) = default_var {
                frame.set(*slot, value);
            }
            run(default, env, frame, ctx)
        }

        LExpr::InstanceOf(e, ty) => {
            let seq = run(e, env, frame, ctx)?;
            Ok(Atomic::Bool(ty.matches(&seq, env.store)).into())
        }

        LExpr::CastableAs(e, ty) => {
            let seq = run(e, env, frame, ctx)?;
            let SeqType::Of(ItemType::Atomic(target), occ) = ty else {
                return Ok(Atomic::Bool(false).into());
            };
            let ok = match seq.as_singleton() {
                None if seq.is_empty() => occ.accepts(0),
                None => false,
                Some(item) => {
                    let a = atomize_item(item, env.store);
                    cast_atomic(&a, *target).is_ok()
                }
            };
            Ok(Atomic::Bool(ok).into())
        }

        LExpr::CastAs(e, ty, position) => {
            let seq = run(e, env, frame, ctx)?;
            let SeqType::Of(ItemType::Atomic(target), occ) = ty else {
                return Err(
                    Error::new(ErrorCode::XPST0003, "cast target must be an atomic type")
                        .at(position.0, position.1),
                );
            };
            if seq.is_empty() {
                return if occ.accepts(0) {
                    Ok(Sequence::empty())
                } else {
                    Err(Error::new(ErrorCode::XPTY0004, "cast of an empty sequence")
                        .at(position.0, position.1))
                };
            }
            let Some(item) = seq.as_singleton() else {
                return Err(Error::new(ErrorCode::XPTY0004, "cast requires a singleton")
                    .at(position.0, position.1));
            };
            let a = atomize_item(item, env.store);
            Ok(cast_atomic(&a, *target)?.into())
        }

        LExpr::CacheOnce { slot, expr } => {
            if let Some(v) = frame.get(*slot) {
                env.stats.cache_hits += 1;
                return Ok(v.clone());
            }
            // First read in this cache window: evaluate in place (errors
            // and traces fire exactly where the unhoisted program fired
            // them) and memoize only on success.
            let v = run(expr, env, frame, ctx)?;
            frame.set(*slot, v.clone());
            Ok(v)
        }

        LExpr::PrefixCells { cells, inner } => run_prefix_cells(cells, inner, env, frame, ctx),
    }
}

/// Runs an [`LExpr::PrefixCells`] node: resume from the longest filled
/// cell, fill each later cell as its prefix completes, then apply the
/// residual predicates. A cell fills only on success and in source position, so
/// values, errors and traces are those of the unsplit predicate list.
fn run_prefix_cells(
    cells: &[PrefixCell],
    inner: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let predicates = match inner {
        // A step's cells hold the survivors for one context node. The
        // walker filters per context node, so a step reached with any
        // other context size runs unsplit.
        LExpr::AxisStep { .. } if ctx.focus.as_ref().map(|f| f.size) != Some(1) => {
            return run(inner, env, frame, ctx);
        }
        LExpr::AxisStep { predicates, .. } | LExpr::Filter(_, predicates) => predicates,
        _ => return Err(Error::internal("prefix cells around a non-predicate node")),
    };
    let (mut items, mut done, pending) =
        match cells.iter().rposition(|c| frame.get(c.slot).is_some()) {
            Some(i) => {
                env.stats.cache_hits += 1;
                let hit = frame.get(cells[i].slot).expect("filled").clone();
                (hit, cells[i].len, &cells[i + 1..])
            }
            None => {
                // The first cell fills like the unsplit node would start: the
                // step's own evaluation (index probe included) or the filter's.
                let first = cells[0];
                let prefix = &predicates[..first.len];
                let filled = match inner {
                    LExpr::AxisStep {
                        axis,
                        test,
                        position,
                        ..
                    } => axis_step_nodes(*axis, test, prefix, *position, env, frame, ctx)?,
                    LExpr::Filter(base, _) => {
                        let seq = run(base, env, frame, ctx)?;
                        apply_predicates_items(seq, prefix, env, frame, ctx)?
                    }
                    _ => unreachable!("matched above"),
                };
                frame.set(first.slot, filled.clone());
                (filled, first.len, &cells[1..])
            }
        };
    for cell in pending {
        items = apply_predicates_items(items, &predicates[done..cell.len], env, frame, ctx)?;
        frame.set(cell.slot, items.clone());
        done = cell.len;
    }
    apply_predicates_items(items, &predicates[done..], env, frame, ctx)
}

/// Effective boolean value of an expression. A path that
/// [`path_nonempty`] admits is answered without materialising it.
fn run_ebv(
    expr: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    if let LExpr::Path { start, steps } = expr {
        if let Some(found) = path_nonempty(start, steps, env, frame, ctx)? {
            return Ok(found);
        }
    }
    let v = run(expr, env, frame, ctx)?;
    effective_boolean_value(&v, env.store)
}

// ----------------------------------------------------------------------
// FLWOR
// ----------------------------------------------------------------------

/// Hash table over the final `for` clause's evaluated sequence, keyed by
/// the string atoms of the `where` equality's key side. Built at most once
/// per distinct sequence within one FLWOR evaluation (the sequence is held
/// to keep its allocation — and so its identity — alive) and probed by
/// every tuple that sees the same sequence again.
struct JoinState {
    seq: Sequence,
    /// Key atoms of each item, as ascending item indices per string.
    /// `None` when some key atom fell outside the string family: exact
    /// `=` semantics then need the general comparison, so every tuple
    /// falls back to the plain scan.
    table: Option<HashMap<String, Vec<usize>>>,
}

/// True when a marked join's build side provably yields the same sequence
/// on every outer tuple: a context-rooted path of pure streamable steps
/// (child/attribute axes, at most positional-literal predicates). No value
/// predicates means no errors and no traces; no variables means no
/// dependence on the loop; and constructors only ever grow new trees, so
/// the path's answer cannot change mid-query.
fn join_build_invariant(seq: &LExpr) -> bool {
    let LExpr::Path { start, steps } = seq else {
        return false;
    };
    matches!(**start, LExpr::Root(_)) && classify_steps(steps).is_some()
}

/// Where the tuple output of an unordered FLWOR goes. `count(FLWOR)` only
/// observes the length, so it runs the pipeline with a [`FlworOut::Count`]
/// sink: `return` is still evaluated per tuple — its errors, traces, and
/// constructed nodes are the tuple's own — but the result items are tallied
/// and dropped instead of being collected (and counted as allocated).
enum FlworOut {
    Collect(Sequence),
    Count(u64),
}

impl FlworOut {
    fn push(&mut self, value: Sequence, stats: &mut EvalStats) {
        match self {
            FlworOut::Collect(seq) => {
                stats.items_allocated += value.len() as u64;
                seq.push_seq(value);
            }
            FlworOut::Count(n) => {
                stats.items_streamed += value.len() as u64;
                *n += value.len() as u64;
            }
        }
    }
}

fn run_flwor(
    clauses: &[LFlworClause],
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut keyed: Vec<(Vec<Option<Atomic>>, Sequence)> = Vec::new();
    let mut out = FlworOut::Collect(Sequence::empty());
    let mut jstate: Option<JoinState> = None;
    flwor_tuples(
        clauses,
        0,
        where_,
        order_by,
        return_,
        env,
        frame,
        ctx,
        &mut keyed,
        &mut out,
        &mut jstate,
    )?;

    if order_by.is_empty() {
        let FlworOut::Collect(plain) = out else {
            unreachable!("run_flwor always collects");
        };
        return Ok(plain);
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, spec) in order_by.iter().enumerate() {
            let ord = compare_order_keys(
                ka[i].as_ref(),
                kb[i].as_ref(),
                spec.descending,
                spec.empty_least,
            );
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(Sequence::concat(keyed.into_iter().map(|(_, v)| v)))
}

/// Runs an unordered FLWOR for `fn:count` alone: same tuple pipeline, same
/// per-tuple `return` evaluation (errors, traces, constructed nodes all
/// fire identically), but the result items are counted and dropped.
fn run_flwor_count(
    clauses: &[LFlworClause],
    where_: Option<&LExpr>,
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<u64> {
    let mut keyed: Vec<(Vec<Option<Atomic>>, Sequence)> = Vec::new();
    let mut out = FlworOut::Count(0);
    let mut jstate: Option<JoinState> = None;
    flwor_tuples(
        clauses,
        0,
        where_,
        &[],
        return_,
        env,
        frame,
        ctx,
        &mut keyed,
        &mut out,
        &mut jstate,
    )?;
    let FlworOut::Count(n) = out else {
        unreachable!("run_flwor_count always counts");
    };
    Ok(n)
}

#[allow(clippy::too_many_arguments)]
fn flwor_tuples(
    clauses: &[LFlworClause],
    idx: usize,
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut,
    jstate: &mut Option<JoinState>,
) -> Result<()> {
    if idx == clauses.len() {
        if let Some(w) = where_ {
            if !run_ebv(w, env, frame, ctx)? {
                return Ok(());
            }
        }
        if order_by.is_empty() {
            let value = run(return_, env, frame, ctx)?;
            out.push(value, env.stats);
        } else {
            let mut keys = Vec::with_capacity(order_by.len());
            for spec in order_by {
                let kv = run(&spec.key, env, frame, ctx)?;
                let atoms = atomize(&kv, env.store);
                if atoms.len() > 1 {
                    return Err(Error::new(
                        ErrorCode::XPTY0004,
                        "order by key must be a singleton",
                    ));
                }
                keys.push(atoms.into_iter().next());
            }
            let value = run(return_, env, frame, ctx)?;
            env.stats.items_allocated += value.len() as u64;
            keyed.push((keys, value));
        }
        return Ok(());
    }
    match &clauses[idx] {
        LFlworClause::For {
            var,
            at,
            seq,
            reset_entry,
            reset_iter,
            join,
        } => {
            // Entry caches hold values invariant across this loop: clear
            // before `seq` is evaluated (a cache read inside `seq` itself
            // must see fresh outer bindings) and refill at most once per
            // (re-)entry.
            env.stats.cache_resets += reset_entry.len() as u64;
            for slot in reset_entry {
                frame.clear(*slot);
            }
            // A bare streamable path binds its tuples straight off the
            // cursor: the binding sequence is never built. Clauses claimed
            // by the hash join keep materialising — the join's table build
            // and `same_alloc` reuse check want the whole sequence — as do
            // `CacheOnce`-wrapped sequences (the cell holds the
            // materialised value by design).
            let items = 'materialized: {
                // A marked join whose build side is a context-rooted pure
                // path re-evaluates it per outer tuple (the hoister leaves
                // context-rooted paths put), so every entry made a fresh
                // allocation, `same_alloc` failed, and the table was
                // rebuilt for every tuple — 100 builds for a 100-tuple
                // probe in BENCH_5/6. Such a path cannot raise, trace, or
                // see loop bindings, and mid-query construction only grows
                // new trees, so the first build's sequence is reused
                // outright: one build, every later tuple probes.
                if idx + 1 == clauses.len() && join.is_some() {
                    if let Some(state) = jstate.as_ref() {
                        if join_build_invariant(seq) {
                            break 'materialized state.seq.clone();
                        }
                    }
                }
                if join.is_none() {
                    if let LExpr::Path { start, steps } = seq {
                        match open_path_stream(start, steps, env, frame, ctx)? {
                            Some(PathStream::Done(v)) => break 'materialized v,
                            Some(PathStream::Cursor(mut cur)) => {
                                let mut i = 0i64;
                                while let Some(item) = cur.next(env.store, env.stats) {
                                    env.stats.cache_resets += reset_iter.len() as u64;
                                    for slot in reset_iter {
                                        frame.clear(*slot);
                                    }
                                    frame.set(*var, Sequence::singleton(item));
                                    if let Some(at_slot) = at {
                                        frame.set(
                                            *at_slot,
                                            Sequence::singleton(Item::integer(i + 1)),
                                        );
                                    }
                                    flwor_tuples(
                                        clauses,
                                        idx + 1,
                                        where_,
                                        order_by,
                                        return_,
                                        env,
                                        frame,
                                        ctx,
                                        keyed,
                                        out,
                                        jstate,
                                    )?;
                                    i += 1;
                                }
                                return Ok(());
                            }
                            None => {}
                        }
                    }
                }
                run(seq, env, frame, ctx)?
            };
            if idx + 1 == clauses.len() {
                if let (Some(side), Some(LExpr::GeneralCmp(CmpOp::Eq, l, r))) = (join, where_) {
                    let (key_e, probe_e) = match side {
                        JoinSide::Left => (&**l, &**r),
                        JoinSide::Right => (&**r, &**l),
                    };
                    return join_for(
                        items, *var, reset_iter, key_e, probe_e, clauses, idx, where_, order_by,
                        return_, env, frame, ctx, keyed, out, jstate,
                    );
                }
            }
            for (i, item) in items.into_iter().enumerate() {
                env.stats.cache_resets += reset_iter.len() as u64;
                for slot in reset_iter {
                    frame.clear(*slot);
                }
                frame.set(*var, Sequence::singleton(item));
                if let Some(at_slot) = at {
                    frame.set(*at_slot, Sequence::singleton(Item::integer(i as i64 + 1)));
                }
                flwor_tuples(
                    clauses,
                    idx + 1,
                    where_,
                    order_by,
                    return_,
                    env,
                    frame,
                    ctx,
                    keyed,
                    out,
                    jstate,
                )?;
            }
            Ok(())
        }
        LFlworClause::Let {
            var,
            name,
            ty,
            expr,
        } => {
            let value = run(expr, env, frame, ctx)?;
            if let Some(ty) = ty {
                ty.check(&value, env.store, format_args!("let ${name}"))?;
            }
            frame.set(*var, value);
            flwor_tuples(
                clauses,
                idx + 1,
                where_,
                order_by,
                return_,
                env,
                frame,
                ctx,
                keyed,
                out,
                jstate,
            )
        }
    }
}

/// The hash-join path for the final `for` clause (see
/// [`crate::lower::LFlworClause::For::join`]): build a table over `items`
/// keyed by `key_e`'s string atoms (once per distinct sequence), probe it
/// with `probe_e`'s atoms for this tuple, and emit only the matching
/// bindings — the `where` equality is subsumed, so matched tuples recurse
/// with no `where`.
///
/// Error behaviour is the plain scan's exactly. Both operands are gated
/// deterministic and effect-free, so which errors *can* fire is fixed; the
/// scan's first action for a tuple is `key(item 1)` then the probe side,
/// and the build evaluates in that same order before touching later items.
/// When the table cannot decide membership (some key or probe atom outside
/// the string family) the tuple falls back to the plain scan below, which
/// re-evaluates `where` per item in source order.
#[allow(clippy::too_many_arguments)]
fn join_for(
    items: Sequence,
    var: u32,
    reset_iter: &[u32],
    key_e: &LExpr,
    probe_e: &LExpr,
    clauses: &[LFlworClause],
    idx: usize,
    where_: Option<&LExpr>,
    order_by: &[LOrderSpec],
    return_: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    keyed: &mut Vec<(Vec<Option<Atomic>>, Sequence)>,
    out: &mut FlworOut,
    jstate: &mut Option<JoinState>,
) -> Result<()> {
    if items.is_empty() {
        return Ok(());
    }
    let bind = |frame: &mut Frame, stats: &mut EvalStats, item: &Item| {
        stats.cache_resets += reset_iter.len() as u64;
        for slot in reset_iter {
            frame.clear(*slot);
        }
        frame.set(var, Sequence::singleton(item.clone()));
    };
    let rebuild = !matches!(jstate, Some(s) if s.seq.same_alloc(&items));
    let mut first_key_atoms = None;
    if rebuild {
        *jstate = None;
        bind(frame, &mut *env.stats, &items.items()[0]);
        first_key_atoms = Some(key_atoms(key_e, env, frame, ctx)?);
    }
    let probe_atoms = key_atoms(probe_e, env, frame, ctx)?;
    if let Some(first) = first_key_atoms {
        let mut table: Option<HashMap<String, Vec<usize>>> = Some(HashMap::new());
        let insert =
            |table: &mut Option<HashMap<String, Vec<usize>>>, atoms: &[Atomic], i: usize| -> bool {
                let Some(map) = table.as_mut() else {
                    return false;
                };
                for a in atoms {
                    match string_family(a) {
                        Some(s) => map.entry(s.to_string()).or_default().push(i),
                        None => {
                            *table = None;
                            return false;
                        }
                    }
                }
                true
            };
        if insert(&mut table, &first, 0) {
            for i in 1..items.len() {
                bind(frame, &mut *env.stats, &items.items()[i]);
                let atoms = key_atoms(key_e, env, frame, ctx)?;
                if !insert(&mut table, &atoms, i) {
                    break;
                }
            }
        }
        if table.is_some() {
            env.stats.join_builds += 1;
        }
        *jstate = Some(JoinState {
            seq: items.clone(),
            table,
        });
    }
    let indices: Option<Vec<usize>> = {
        let state = jstate.as_ref().expect("join state built above");
        let probe_strs: Option<Vec<&str>> = probe_atoms.iter().map(string_family).collect();
        match (&state.table, probe_strs) {
            (Some(map), Some(ps)) => {
                let mut out: Vec<usize> = Vec::new();
                if let [s] = ps.as_slice() {
                    if let Some(v) = map.get(*s) {
                        out.clone_from(v);
                    }
                } else {
                    for s in ps {
                        if let Some(v) = map.get(s) {
                            out.extend_from_slice(v);
                        }
                    }
                    out.sort_unstable();
                    out.dedup();
                }
                Some(out)
            }
            _ => None,
        }
    };
    match indices {
        Some(matched) => {
            env.stats.join_probes += 1;
            for i in matched {
                bind(frame, &mut *env.stats, &items.items()[i]);
                flwor_tuples(
                    clauses,
                    idx + 1,
                    None,
                    order_by,
                    return_,
                    env,
                    frame,
                    ctx,
                    keyed,
                    out,
                    jstate,
                )?;
            }
        }
        None => {
            env.stats.join_fallbacks += 1;
            for item in items.iter() {
                bind(frame, &mut *env.stats, item);
                flwor_tuples(
                    clauses,
                    idx + 1,
                    where_,
                    order_by,
                    return_,
                    env,
                    frame,
                    ctx,
                    keyed,
                    out,
                    jstate,
                )?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn quantified(
    quantifier: Quantifier,
    bindings: &[(u32, LExpr)],
    satisfies: &LExpr,
    idx: usize,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    if idx == bindings.len() {
        return run_ebv(satisfies, env, frame, ctx);
    }
    let (slot, seq_expr) = &bindings[idx];
    // Quantifiers are the ideal cursor consumer: `some` stops at the first
    // satisfying binding, `every` at the first failing one, and with a
    // streamed binding sequence the abandoned remainder was never built.
    let items = 'materialized: {
        if let LExpr::Path { start, steps } = seq_expr {
            match open_path_stream(start, steps, env, frame, ctx)? {
                Some(PathStream::Done(v)) => break 'materialized v,
                Some(PathStream::Cursor(mut cur)) => {
                    while let Some(item) = cur.next(env.store, env.stats) {
                        frame.set(*slot, Sequence::singleton(item));
                        let hit =
                            quantified(quantifier, bindings, satisfies, idx + 1, env, frame, ctx)?;
                        match quantifier {
                            Quantifier::Some if hit => {
                                cur.finish_early(env.stats);
                                return Ok(true);
                            }
                            Quantifier::Every if !hit => {
                                cur.finish_early(env.stats);
                                return Ok(false);
                            }
                            _ => {}
                        }
                    }
                    return Ok(matches!(quantifier, Quantifier::Every));
                }
                None => {}
            }
        }
        run(seq_expr, env, frame, ctx)?
    };
    for item in items {
        frame.set(*slot, Sequence::singleton(item));
        let hit = quantified(quantifier, bindings, satisfies, idx + 1, env, frame, ctx)?;
        match quantifier {
            Quantifier::Some if hit => return Ok(true),
            Quantifier::Every if !hit => return Ok(false),
            _ => {}
        }
    }
    Ok(matches!(quantifier, Quantifier::Every))
}

// ----------------------------------------------------------------------
// Paths, predicates
// ----------------------------------------------------------------------

/// Existence of a path's result without materialising it, or `None` when
/// the path takes neither route below (nothing has been evaluated then):
///
/// * a lone `//name` or `//@name` step is answered from the name index,
///   like the `count` branch;
/// * any path the cursor admits is answered by its first pull. A start
///   that is not one node finishes materialised from the already-evaluated
///   start.
///
/// Both routes yield only nodes, so existence is also the path's EBV.
fn path_nonempty(
    start: &LExpr,
    steps: &[LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<bool>> {
    if let Some(fused) = lone_index_step(steps) {
        return Ok(Some(
            lone_index_count(start, fused, true, env, frame, ctx)? > 0,
        ));
    }
    Ok(match open_path_stream(start, steps, env, frame, ctx)? {
        Some(PathStream::Cursor(mut cur)) => {
            env.stats.streamed_existence += 1;
            let found = cur.next(env.store, env.stats).is_some();
            cur.finish_early(env.stats);
            Some(found)
        }
        Some(PathStream::Done(seq)) => Some(!seq.is_empty()),
        None => None,
    })
}

/// `count` over a path whose only step is `fused` (see [`lone_index_step`]);
/// with `exists_only` the result is merely non-zero iff a match exists. A
/// single scope node is answered from its index range, dedup-free; larger
/// contexts (overlapping subtrees) finish on [`eval_fused_descendant_step`],
/// which also raises the path's own `XPTY0019` on atomics.
fn lone_index_count(
    start: &LExpr,
    fused: FusedStep,
    exists_only: bool,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<usize> {
    let start_seq = run(start, env, frame, ctx)?;
    let Some(&Item::Node(n)) = start_seq.as_singleton() else {
        env.stats.index_misses += 1;
        return Ok(eval_fused_descendant_step(&start_seq, fused, env.store)?.len());
    };
    env.stats.index_hits += 1;
    let store = &*env.store;
    Ok(match (fused, exists_only) {
        (FusedStep::ChildNamed(want), false) => store.descendant_elements_by_name(n, &want).len(),
        (FusedStep::AttrNamed(want), false) => {
            store.descendant_or_self_attributes_by_name(n, &want).len()
        }
        (FusedStep::ChildNamed(want), true) => usize::from(store.any_descendant_element_by_local(
            n,
            want.local_sym(),
            |d| store.name(d) == Some(&want),
        )),
        (FusedStep::AttrNamed(want), true) => usize::from(
            store.any_descendant_or_self_attribute_by_local(n, want.local_sym(), |a| {
                store.name(a) == Some(&want)
            }),
        ),
    })
}

// ----------------------------------------------------------------------
// The cursor runtime (see crate::cursor for the protocol)
// ----------------------------------------------------------------------

/// One opened path: either a live cursor (streamable steps, singleton node
/// start) or the materialised result of finishing the path generically.
enum PathStream<'p> {
    Cursor(PathCursor<'p>),
    Done(Sequence),
}

/// Opens a path for streaming. Classification is pure, so nothing is
/// evaluated on the `None` (not streamable) return and the
/// caller proceeds exactly as before. Otherwise the start expression is
/// evaluated exactly once — its errors and traces are the path's own and
/// fire here, in source order — and a singleton node start yields a cursor.
/// Any other start (multiple nodes, atomics, empty) finishes on the generic
/// evaluator *from the already-evaluated start*, never re-running it, so
/// `XPTY0019` on atomic starts and multi-node dedup semantics are
/// unchanged.
fn open_path_stream<'p>(
    start: &LExpr,
    steps: &'p [LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<PathStream<'p>>> {
    let Some(plan) = classify_steps(steps) else {
        return Ok(None);
    };
    let start_seq = run(start, env, frame, ctx)?;
    if let Some(Item::Node(n)) = start_seq.as_singleton() {
        return Ok(Some(PathStream::Cursor(PathCursor::new(plan, *n))));
    }
    let done = finish_path_from(start_seq, steps, env, frame, ctx)?;
    Ok(Some(PathStream::Done(done)))
}

/// The generic materialised step loop, from an already-evaluated start.
/// Every intermediate sequence it builds is tallied in `items_allocated` —
/// the cost the cursor runtime exists to avoid.
fn finish_path_from(
    start_seq: Sequence,
    steps: &[LPathStep],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut current = start_seq;
    for step in steps {
        if step.double_slash {
            if let Some(fused) = fused_double_slash_step(&step.expr) {
                env.stats.index_hits += 1;
                current = eval_fused_descendant_step(&current, fused, env.store)?;
                env.stats.items_allocated += current.len() as u64;
                continue;
            }
            current = expand_descendant_or_self(&current, env.store)?;
            env.stats.items_allocated += current.len() as u64;
        }
        current = map_step(&current, &step.expr, env, frame, ctx)?;
    }
    Ok(current)
}

/// Existential general comparison with one side streamed. Against an empty
/// or singleton other side the cursor is pulled item by item and abandoned
/// at the first hit; against a longer side the per-pull rescan would buy
/// nothing, so the walk is drained and the hashed generic comparison runs.
/// `cursor_is_right` keeps the operand
/// order straight for the asymmetric operators (`<`, `>=`, …).
fn stream_compare(
    stream: PathStream,
    op: CmpOp,
    other: &Sequence,
    cursor_is_right: bool,
    env: &mut RunEnv,
) -> bool {
    let seq = match stream {
        PathStream::Done(seq) => seq,
        PathStream::Cursor(mut cur) => {
            if other.is_empty() {
                // No pair to compare: false regardless of the walk.
                cur.finish_early(env.stats);
                return false;
            }
            if other.len() == 1 {
                while let Some(item) = cur.next(env.store, env.stats) {
                    let single = Sequence::singleton(item);
                    let hit = if cursor_is_right {
                        general_compare(op, other, &single, env.store)
                    } else {
                        general_compare(op, &single, other, env.store)
                    };
                    if hit {
                        cur.finish_early(env.stats);
                        return true;
                    }
                }
                return false;
            }
            cur.materialize(env.store, env.stats)
        }
    };
    let (l, r) = if cursor_is_right {
        (other, &seq)
    } else {
        (&seq, other)
    };
    general_compare_hashed(op, l, r, env.store)
}

/// Does global position `p` satisfy `position() OP n`? Exact integer
/// arithmetic; [`positional_predicate`] bounds `n` so this agrees with the
/// generic `f64` predicate rule at every reachable position.
fn pos_matches(op: CmpOp, p: i64, n: i64) -> bool {
    match op {
        CmpOp::Eq => p == n,
        CmpOp::Ne => p != n,
        CmpOp::Lt => p < n,
        CmpOp::Le => p <= n,
        CmpOp::Gt => p > n,
        CmpOp::Ge => p >= n,
    }
}

/// `(PATH)[position() OP n]` with the position taken over the whole path
/// result: pull, keep the matching positions, and stop pulling as soon as
/// no later position can match (`=`, `<`, `<=`).
fn stream_filter_positional(stream: PathStream, op: CmpOp, n: i64, env: &mut RunEnv) -> Sequence {
    let out = match stream {
        PathStream::Done(seq) => {
            let items: Vec<Item> = seq
                .into_items()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| pos_matches(op, *i as i64 + 1, n))
                .map(|(_, item)| item)
                .collect();
            Sequence::from_items(items)
        }
        PathStream::Cursor(mut cur) => {
            let limit = match op {
                CmpOp::Eq | CmpOp::Le => Some(n),
                CmpOp::Lt => Some(n - 1),
                CmpOp::Ne | CmpOp::Gt | CmpOp::Ge => None,
            };
            let mut out = Sequence::empty();
            let mut p = 0i64;
            loop {
                if let Some(limit) = limit {
                    if p >= limit {
                        cur.finish_early(env.stats);
                        break;
                    }
                }
                let Some(item) = cur.next(env.store, env.stats) else {
                    break;
                };
                p += 1;
                if pos_matches(op, p, n) {
                    out.push(item);
                }
            }
            out
        }
    };
    env.stats.items_allocated += out.len() as u64;
    out
}

/// Atoms of one hash-join operand (build key or probe). A streamable path
/// is atomized straight off the cursor — the node sequence the generic
/// evaluation materialises per item/tuple (BENCH_5/6's `items_allocated =
/// 1000` for a 100-tuple probe) never exists.
fn key_atoms(
    e: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Vec<Atomic>> {
    // The hoister wraps per-tuple key paths in `CacheOnce`, but the cell
    // is cleared on every binding anyway — and a streamable path is pure,
    // so pulling atoms straight off the cursor (and leaving the cell
    // unfilled for a later reader to recompute) changes nothing
    // observable.
    let bare = match e {
        LExpr::CacheOnce { expr, .. } => expr,
        other => other,
    };
    if let LExpr::Path { start, steps } = bare {
        if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
            return Ok(match stream {
                PathStream::Cursor(mut cur) => {
                    let mut atoms = Vec::new();
                    while let Some(item) = cur.next(env.store, env.stats) {
                        atoms.push(atomize_item(&item, env.store));
                    }
                    atoms
                }
                PathStream::Done(seq) => atomize(&seq, env.store),
            });
        }
    }
    let v = run(e, env, frame, ctx)?;
    Ok(atomize(&v, env.store))
}

/// A literal position or length argument [`stream_builtin`] can window by
/// (shared with [`crate::obs::explain`]). The bound is the cursor's
/// positional one: the generic dispatch goes through `f64`, which is exact
/// here.
pub(crate) fn int_literal(e: &LExpr) -> Option<i64> {
    match e {
        LExpr::Literal(Atomic::Int(n)) if n.abs() <= (1 << 50) => Some(*n),
        _ => None,
    }
}

/// The sequence-consuming builtins the cursor runtime takes over when
/// their argument is a streamable path (and, for the windowed ones, the
/// bounds are integer literals — evaluated-argument order is unchanged
/// because literals are effect-free):
///
/// * `count(PATH)` — pull and discard; `count(FLWOR)` without `order by`
///   runs the pipeline with a counting sink ([`FlworOut::Count`]).
/// * `subsequence(PATH, s[, l])` — stops pulling past the window's end.
/// * `remove(PATH, n)` / `insert-before(PATH, n, SEQ)` — single-pass
///   splice, no intermediate target sequence.
///
/// Returns `None` to fall through to the generic argument evaluation.
fn stream_builtin(
    builtin: Builtin,
    args: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Option<Sequence>> {
    match builtin {
        Builtin::Count if args.len() == 1 => {
            if let LExpr::Path { start, steps } = &args[0] {
                if let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? {
                    let n = match stream {
                        PathStream::Cursor(mut cur) => {
                            let mut n = 0i64;
                            while cur.next(env.store, env.stats).is_some() {
                                n += 1;
                            }
                            n
                        }
                        PathStream::Done(seq) => seq.len() as i64,
                    };
                    return Ok(Some(Atomic::Int(n).into()));
                }
            }
            if let LExpr::Flwor {
                clauses,
                where_,
                order_by,
                return_,
            } = &args[0]
            {
                if order_by.is_empty() {
                    let n = run_flwor_count(clauses, where_.as_deref(), return_, env, frame, ctx)?;
                    return Ok(Some(Atomic::Int(n as i64).into()));
                }
            }
            Ok(None)
        }
        Builtin::Subsequence if args.len() >= 2 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(s) = int_literal(&args[1]) else {
                return Ok(None);
            };
            let len = match args.get(2) {
                None => None,
                Some(e) => match int_literal(e) {
                    Some(l) => Some(l),
                    None => return Ok(None),
                },
            };
            let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            // Keep positions p with p >= s and, when a length is given,
            // p < s + l — the generic filter, in exact arithmetic.
            let hi = len.map(|l| s.saturating_add(l));
            let out = match stream {
                PathStream::Done(seq) => {
                    let items: Vec<Item> = seq
                        .into_items()
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| {
                            let p = *i as i64 + 1;
                            p >= s && hi.is_none_or(|hi| p < hi)
                        })
                        .map(|(_, item)| item)
                        .collect();
                    Sequence::from_items(items)
                }
                PathStream::Cursor(mut cur) => {
                    let mut out = Sequence::empty();
                    let mut p = 0i64;
                    loop {
                        if let Some(hi) = hi {
                            if p + 1 >= hi {
                                cur.finish_early(env.stats);
                                break;
                            }
                        }
                        let Some(item) = cur.next(env.store, env.stats) else {
                            break;
                        };
                        p += 1;
                        if p >= s {
                            out.push(item);
                        }
                    }
                    out
                }
            };
            env.stats.items_allocated += out.len() as u64;
            Ok(Some(out))
        }
        Builtin::Remove if args.len() == 2 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(pos) = int_literal(&args[1]) else {
                return Ok(None);
            };
            let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            let out = match stream {
                PathStream::Done(seq) => {
                    let items: Vec<Item> = seq
                        .into_items()
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| *i as i64 + 1 != pos)
                        .map(|(_, item)| item)
                        .collect();
                    Sequence::from_items(items)
                }
                PathStream::Cursor(mut cur) => {
                    let mut out = Sequence::empty();
                    let mut p = 0i64;
                    while let Some(item) = cur.next(env.store, env.stats) {
                        p += 1;
                        if p != pos {
                            out.push(item);
                        }
                    }
                    out
                }
            };
            env.stats.items_allocated += out.len() as u64;
            Ok(Some(out))
        }
        Builtin::InsertBefore if args.len() == 3 => {
            let LExpr::Path { start, steps } = &args[0] else {
                return Ok(None);
            };
            let Some(pos) = int_literal(&args[1]) else {
                return Ok(None);
            };
            let Some(stream) = open_path_stream(start, steps, env, frame, ctx)? else {
                return Ok(None);
            };
            // Same effect order as the generic call: target first (the
            // open above), the literal position, then the inserts.
            let inserts = run(&args[2], env, frame, ctx)?;
            let inserts_len = inserts.len();
            let at = (pos.max(1) - 1) as usize;
            let out = match stream {
                PathStream::Done(seq) => {
                    let mut items = seq.into_items();
                    let at = at.min(items.len());
                    let tail = items.split_off(at);
                    items.extend(inserts.into_items());
                    items.extend(tail);
                    Sequence::from_items(items)
                }
                PathStream::Cursor(mut cur) => {
                    let mut out = Sequence::empty();
                    let mut p = 0usize;
                    let mut inserted = false;
                    while let Some(item) = cur.next(env.store, env.stats) {
                        if p == at {
                            out.push_seq(inserts.clone());
                            inserted = true;
                        }
                        out.push(item);
                        p += 1;
                    }
                    if !inserted {
                        out.push_seq(inserts);
                    }
                    out
                }
            };
            // Count only the target items: the inserts were accounted for
            // by their own evaluation, and the materialised run books just
            // the path expansion — same ledger either way.
            env.stats.items_allocated += (out.len() - inserts_len) as u64;
            Ok(Some(out))
        }
        _ => Ok(None),
    }
}

/// One axis step from the focus node: candidates in axis order, the node
/// test, then the predicates one at a time (the fused `[@attr = v]` index
/// probe answering the first when it can). The result stays in axis order;
/// [`map_step`] restores document order.
#[allow(clippy::too_many_arguments)]
fn axis_step_nodes(
    axis: Axis,
    test: &LNodeTest,
    predicates: &[LExpr],
    position: (u32, u32),
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let item = ctx
        .context_item(env.options.galax_quirks, position)?
        .clone();
    let node = match item {
        Item::Node(n) => n,
        Item::Atomic(_) => {
            return Err(
                Error::new(ErrorCode::XPTY0019, "axis step applied to an atomic value")
                    .at(position.0, position.1),
            )
        }
    };
    if let Some(step) = fused_attr_eq_step(axis, test, predicates) {
        // Same shape as the generic path: no candidates → empty,
        // predicates (and their errors) never reached.
        if !has_child_element_named(env.store, node, &step.fused.child) {
            return Ok(Sequence::empty());
        }
        let rhs = run(step.rhs, env, frame, ctx)?;
        if let Some(matched) = fused_attr_eq_candidates(node, &step.fused, &rhs, env.store) {
            env.stats.index_hits += 1;
            let kept = apply_predicates_nodes(matched, step.rest, env, frame, ctx)?;
            return Ok(kept.into_iter().map(Item::Node).collect());
        }
        env.stats.index_misses += 1;
    }
    // Child and attribute candidates are the store's own slices, filtered
    // in the one pass that builds the result.
    let store = &*env.store;
    let owned;
    let candidates: &[NodeId] = match axis {
        Axis::Child => store.children(node),
        Axis::Attribute => store.attributes(node),
        _ => {
            owned = axis_candidates(axis, node, store);
            &owned
        }
    };
    let tested = candidates
        .iter()
        .copied()
        .filter(|&n| node_test_matches(test, axis, n, store));
    if predicates.is_empty() {
        return Ok(tested.map(Item::Node).collect());
    }
    let tested: Vec<NodeId> = tested.collect();
    let kept = apply_predicates_nodes(tested, predicates, env, frame, ctx)?;
    Ok(kept.into_iter().map(Item::Node).collect())
}

fn map_step(
    current: &Sequence,
    step: &LExpr,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let size = current.len();
    let mut results = Sequence::empty();
    for (i, item) in current.iter().enumerate() {
        let saved = ctx.focus.take();
        ctx.focus = Some(Focus {
            item: item.clone(),
            position: i + 1,
            size,
        });
        let r = run(step, env, frame, ctx);
        ctx.focus = saved;
        results.push_seq(r?);
    }
    env.stats.items_allocated += results.len() as u64;
    let nodes = results.iter().filter(|i| i.is_node()).count();
    if nodes == 0 {
        return Ok(results);
    }
    if nodes != results.len() {
        return Err(Error::new(
            ErrorCode::XPTY0019,
            "a path step returned a mix of nodes and atomic values",
        ));
    }
    let ids: Vec<NodeId> = results.iter().filter_map(|i| i.as_node()).collect();
    Ok(dedup_sorted(ids, env.store)
        .into_iter()
        .map(Item::Node)
        .collect())
}

/// A `//`-step that can be answered from the store's per-tree name index:
/// `//name` (child axis) or `//@name` (attribute axis), with no predicates.
/// Predicates would observe per-parent position/size groupings, which the
/// fused lookup doesn't reconstruct, so they take the generic path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedStep {
    ChildNamed(QName),
    AttrNamed(QName),
}

/// Evaluates `descendant-or-self::node()/child::name` (or `attribute::name`)
/// for the whole context sequence from the name index: per context node one
/// binary-searched range scan instead of materializing the subtree. Raises
/// the same `XPTY0019` as [`expand_descendant_or_self`] on atomic items, so
/// the fused and generic paths are observably identical.
fn eval_fused_descendant_step(
    current: &Sequence,
    fused: FusedStep,
    store: &Store,
) -> Result<Sequence> {
    let mut out: Vec<NodeId> = Vec::new();
    for item in current.iter() {
        let n = item
            .as_node()
            .ok_or_else(|| Error::new(ErrorCode::XPTY0019, "'//' applied to an atomic value"))?;
        match fused {
            FusedStep::ChildNamed(want) => {
                out.extend(store.descendant_elements_by_name(n, &want));
            }
            FusedStep::AttrNamed(want) => {
                out.extend(store.descendant_or_self_attributes_by_name(n, &want));
            }
        }
    }
    let unique = dedup_sorted(out, store);
    Ok(unique.into_iter().map(Item::Node).collect())
}

/// A child step whose first predicate equates an attribute of the candidate
/// with a focus-free expression — `child[@attr = RHS]` — answerable from the
/// store's attribute-value index when RHS atomizes to strings only. Both
/// names are unprefixed.
struct FusedAttrEq {
    child: QName,
    attr: QName,
}

/// Does `node` have at least one child element named `name`? The generic
/// step evaluates predicates only when the name test admits a candidate, so
/// the fused path must not touch the predicate's RHS before establishing
/// the same — this check is that gate, allocation- and evaluation-free.
fn has_child_element_named(store: &Store, node: NodeId, name: &QName) -> bool {
    store
        .children(node)
        .iter()
        .any(|&c| matches!(store.kind(c), NodeKind::Element(q) if q == name))
}

/// The index-backed half of the fused `child[@attr = RHS]` step: `rhs` is
/// the predicate's already-evaluated comparand. Returns `None` — caller
/// falls back to the generic scan — unless every atom of `rhs` is a string
/// or untyped value, the one case where the engine's general `=` degenerates
/// to exact string equality and an exact-value probe is sound. Owners found
/// through the local-name-keyed index are re-verified against the full
/// attribute `QName` and value (an element may carry `x:id` next to `id`,
/// and Galax-quirks construction allows duplicate attribute names).
fn fused_attr_eq_candidates(
    node: NodeId,
    fused: &FusedAttrEq,
    rhs: &Sequence,
    store: &Store,
) -> Option<Vec<NodeId>> {
    let atoms = atomize(rhs, store);
    let mut values: Vec<&str> = Vec::with_capacity(atoms.len());
    for a in &atoms {
        match a {
            Atomic::Str(s) | Atomic::Untyped(s) => values.push(s),
            // Numeric or boolean comparand: `=` casts the untyped attribute
            // instead of comparing strings, so the index can't answer it.
            _ => return None,
        }
    }
    let mut matched = Vec::new();
    for v in &values {
        for owner in store.elements_with_attr_value(node, fused.attr.local_sym(), v) {
            let verified = store.parent(owner) == Some(node)
                && matches!(store.kind(owner), NodeKind::Element(q) if *q == fused.child)
                && store.attributes(owner).iter().any(|&a| {
                    matches!(store.kind(a), NodeKind::Attribute(q, val) if *q == fused.attr && **val == **v)
                });
            if verified {
                matched.push(owner);
            }
        }
    }
    // Children of one node: document order is sibling order, and repeated
    // RHS values can surface an owner twice.
    Some(dedup_sorted(matched, store))
}

/// Recognizes a `//`-step the name index can answer (see [`FusedStep`]).
/// Name tests are interned `QName`s, so any unprefixed predicate-free
/// `//name` or `//@name` step qualifies.
pub(crate) fn fused_double_slash_step(expr: &LExpr) -> Option<FusedStep> {
    let LExpr::AxisStep {
        axis,
        test,
        predicates,
        ..
    } = expr
    else {
        return None;
    };
    if !predicates.is_empty() {
        return None;
    }
    match (axis, test) {
        (Axis::Child, LNodeTest::Name(want)) if want.prefix_sym().is_none() => {
            Some(FusedStep::ChildNamed(*want))
        }
        (Axis::Attribute, LNodeTest::Name(want)) if want.prefix_sym().is_none() => {
            Some(FusedStep::AttrNamed(*want))
        }
        _ => None,
    }
}

/// A path whose only step is a `//name` or `//@name` step the name index
/// answers: the shape whose `count` and existence skip the step entirely.
/// Shared with [`crate::obs::explain`] so the plan
/// annotation matches this gate.
pub(crate) fn lone_index_step(steps: &[LPathStep]) -> Option<FusedStep> {
    match steps {
        [step] if step.double_slash => fused_double_slash_step(&step.expr),
        _ => None,
    }
}

/// Focus-free in the shallow sense the fused predicate needs: the comparand
/// may not depend on the candidate node, and evaluating it once instead of per
/// candidate must be unobservable — no calls (hence no `fn:trace`), no
/// constructors; path steps rebind their own focus and are predicate-free.
fn is_focus_free_simple(e: &LExpr) -> bool {
    match e {
        LExpr::Literal(_) | LExpr::LocalRef(_) | LExpr::GlobalRef(..) => true,
        LExpr::Comma(es) => es.iter().all(is_focus_free_simple),
        LExpr::Path { start, steps } => is_focus_free_simple(start)
            && steps.iter().all(
                |s| matches!(&s.expr, LExpr::AxisStep { predicates, .. } if predicates.is_empty()),
            ),
        // The hoisting pass only wraps focus-free subtrees, so a cache
        // cell is as focus-free as what it caches — without this arm
        // hoisting a fused-eq comparand would silently un-fuse the step.
        LExpr::CacheOnce { expr, .. } => is_focus_free_simple(expr),
        _ => false,
    }
}

/// `@name` with no predicates and no prefix, as one side of the fused
/// equality.
fn attr_step_name(e: &LExpr) -> Option<QName> {
    match e {
        LExpr::AxisStep {
            axis: Axis::Attribute,
            test: LNodeTest::Name(a),
            predicates,
            ..
        } if predicates.is_empty() && a.prefix_sym().is_none() => Some(*a),
        _ => None,
    }
}

/// Lowered detection result for the fused `child[@attr = RHS]` step.
struct FusedAttrEqStep<'a> {
    fused: FusedAttrEq,
    rhs: &'a LExpr,
    rest: &'a [LExpr],
}

/// Would this axis step take the fused `child[@attr = RHS]` index probe?
/// Exposed for [`crate::obs::explain`] so the plan annotation matches the
/// runner's gate exactly.
pub(crate) fn is_fused_attr_eq(axis: Axis, test: &LNodeTest, predicates: &[LExpr]) -> bool {
    fused_attr_eq_step(axis, test, predicates).is_some()
}

/// Recognizes `child::name[@attr = RHS]…` (either operand order) on the
/// child axis with unprefixed names. Later predicates stay generic; the
/// first predicate never consults `position()`/`last()` (it's a
/// comparison), so skipping the per-candidate focus for it is unobservable.
fn fused_attr_eq_step<'a>(
    axis: Axis,
    test: &LNodeTest,
    predicates: &'a [LExpr],
) -> Option<FusedAttrEqStep<'a>> {
    if axis != Axis::Child {
        return None;
    }
    let LNodeTest::Name(want) = test else {
        return None;
    };
    if want.prefix_sym().is_some() {
        return None;
    }
    let (first, rest) = predicates.split_first()?;
    let LExpr::GeneralCmp(CmpOp::Eq, l, r) = first else {
        return None;
    };
    let (attr, rhs) = match (attr_step_name(l), attr_step_name(r)) {
        (Some(a), None) if is_focus_free_simple(r) => (a, &**r),
        (None, Some(a)) if is_focus_free_simple(l) => (a, &**l),
        _ => return None,
    };
    Some(FusedAttrEqStep {
        fused: FusedAttrEq { child: *want, attr },
        rhs,
        rest,
    })
}

/// The lowered node test: names were parsed to `QName`s at compile time, so
/// matching is symbol equality, never a string render.
pub(crate) fn node_test_matches(test: &LNodeTest, axis: Axis, node: NodeId, store: &Store) -> bool {
    let kind = store.kind(node);
    match test {
        LNodeTest::AnyKind => true,
        LNodeTest::Text => matches!(kind, NodeKind::Text(_)),
        LNodeTest::Comment => matches!(kind, NodeKind::Comment(_)),
        LNodeTest::Pi => matches!(kind, NodeKind::Pi(..)),
        LNodeTest::Document => matches!(kind, NodeKind::Document),
        LNodeTest::Element(name) => match kind {
            NodeKind::Element(q) => match name {
                None => true,
                Some(want) => q == want,
            },
            _ => false,
        },
        LNodeTest::AttributeTest(name) => match kind {
            NodeKind::Attribute(q, _) => match name {
                None => true,
                Some(want) => q == want,
            },
            _ => false,
        },
        LNodeTest::AnyName => {
            if axis == Axis::Attribute {
                matches!(kind, NodeKind::Attribute(..))
            } else {
                matches!(kind, NodeKind::Element(_))
            }
        }
        LNodeTest::Name(want) => {
            if axis == Axis::Attribute {
                matches!(kind, NodeKind::Attribute(q, _) if q == want)
            } else {
                matches!(kind, NodeKind::Element(q) if q == want)
            }
        }
    }
}

fn apply_predicates_nodes(
    nodes: Vec<NodeId>,
    predicates: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Vec<NodeId>> {
    let mut current = nodes;
    for pred in predicates {
        // A literal integer predicate is pure position selection
        // (`predicate_outcome` keeps exactly the item whose position equals
        // the number; literals cannot raise or trace), so pick directly
        // instead of evaluating the predicate once per item.
        if let LExpr::Literal(Atomic::Int(n)) = pred {
            current = match usize::try_from(*n) {
                Ok(n) if (1..=current.len()).contains(&n) => vec![current[n - 1]],
                _ => Vec::new(),
            };
            continue;
        }
        let size = current.len();
        let mut kept = Vec::with_capacity(current.len());
        for (i, &n) in current.iter().enumerate() {
            if predicate_holds(pred, Item::Node(n), i + 1, size, env, frame, ctx)? {
                kept.push(n);
            }
        }
        current = kept;
    }
    Ok(current)
}

fn apply_predicates_items(
    seq: Sequence,
    predicates: &[LExpr],
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<Sequence> {
    let mut current = seq.into_items();
    for pred in predicates {
        if let LExpr::Literal(Atomic::Int(n)) = pred {
            current = match usize::try_from(*n) {
                Ok(n) if (1..=current.len()).contains(&n) => vec![current[n - 1].clone()],
                _ => Vec::new(),
            };
            continue;
        }
        let size = current.len();
        let mut kept = Vec::with_capacity(current.len());
        for (i, item) in current.into_iter().enumerate() {
            if predicate_holds(pred, item.clone(), i + 1, size, env, frame, ctx)? {
                kept.push(item);
            }
        }
        current = kept;
    }
    Ok(Sequence::from_items(current))
}

#[allow(clippy::too_many_arguments)]
fn predicate_holds(
    pred: &LExpr,
    item: Item,
    position: usize,
    size: usize,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
) -> Result<bool> {
    let saved = ctx.focus.take();
    ctx.focus = Some(Focus {
        item,
        position,
        size,
    });
    let result = run(pred, env, frame, ctx);
    ctx.focus = saved;
    let value = result?;
    predicate_outcome(&value, position, env.store)
}

// ----------------------------------------------------------------------
// Function calls
// ----------------------------------------------------------------------

/// Runs a user function on `inner`, the callee frame its arguments are
/// already bound in (slots `0..arity`).
fn call_user(
    func: &CompiledFunction,
    inner: &mut Frame,
    position: (u32, u32),
    env: &mut RunEnv,
) -> Result<Sequence> {
    if env.depth >= env.options.recursion_limit {
        return Err(Error::new(
            ErrorCode::Internal,
            format!(
                "recursion limit of {} exceeded",
                env.options.recursion_limit
            ),
        )
        .at(position.0, position.1));
    }
    for (i, param) in func.params.iter().enumerate() {
        if let (Some(ty), Some(arg)) = (&param.ty, inner.get(i as u32)) {
            ty.check(
                arg,
                env.store,
                format_args!("argument ${} of {}", param.name, func.name),
            )?;
        }
    }
    // Closure-free frames: the function body sees exactly its parameters
    // (slots 0..arity) plus the globals, never the caller's slots or focus.
    let mut inner_ctx = DynamicContext::new();
    env.depth += 1;
    let result = run(&func.body, env, inner, &mut inner_ctx);
    env.depth -= 1;
    let value = result?;
    if let Some(ty) = &func.return_type {
        ty.check(&value, env.store, format_args!("result of {}", func.name))?;
    }
    Ok(value)
}

// ----------------------------------------------------------------------
// Constructors
// ----------------------------------------------------------------------

/// Appends evaluated content to a constructor, charging the nodes it
/// deep-copies to [`EvalStats::nodes_copied`].
fn push_content(builder: &mut ContentBuilder, seq: Sequence, env: &mut RunEnv) -> Result<()> {
    let before = env.store.nodes_copied();
    let pushed = builder.push_sequence(seq, env.store);
    env.stats.nodes_copied += env.store.nodes_copied() - before;
    pushed
}

/// Resolves a (possibly computed) constructor name to a `QName`. Literal
/// names were resolved at lowering time.
fn constructor_qname(
    name: &LConstructorName,
    env: &mut RunEnv,
    frame: &mut Frame,
    ctx: &mut DynamicContext,
    position: (u32, u32),
) -> Result<QName> {
    match name {
        LConstructorName::Literal(q) => Ok(*q),
        LConstructorName::Computed(e) => {
            let seq = run(e, env, frame, ctx)?;
            let Some(item) = seq.as_singleton() else {
                return Err(Error::new(
                    ErrorCode::XPTY0004,
                    "a computed constructor name must be a single value",
                )
                .at(position.0, position.1));
            };
            let text = atomize_item(item, env.store).to_text();
            if text.is_empty() {
                return Err(Error::new(ErrorCode::FORG0001, "empty constructor name")
                    .at(position.0, position.1));
            }
            Ok(QName::from(text.as_str()))
        }
    }
}
