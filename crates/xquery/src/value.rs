//! The XQuery data model: atomic values, items, and *flat* sequences.
//!
//! > "Actually, everything in XQuery is a sequence – there is no distinction
//! > between a single value and a length-one sequence containing that value.
//! > … Sequences are flat: the items in a sequence can be scalars or XML
//! > values, but not other sequences. Attempting to put one sequence inside
//! > of another results in flattening."
//!
//! [`Sequence`] enforces flattening *by construction*: there is no way to
//! build a nested sequence. The paper's T1 table falls directly out of this
//! representation.

use std::fmt;
use std::sync::Arc;
use xmlstore::NodeId;

/// An atomic (scalar) value. The paper: "we never used anything but strings,
/// numbers, and booleans" — plus `untypedAtomic`, which is what atomizing a
/// node yields in the untyped mode the project ran in.
///
/// String payloads are `Arc<str>`: cloning an atomic is a refcount bump, and
/// the lowering pass hands out literals backed by the interner so every
/// occurrence of the same literal shares one allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Atomic {
    Str(Arc<str>),
    Int(i64),
    Dbl(f64),
    Bool(bool),
    /// The string value of a node, not yet committed to a type
    /// (`xs:untypedAtomic`). Compares as a number against numbers and as a
    /// string against strings.
    Untyped(Arc<str>),
}

impl Atomic {
    /// The `xs:` type name of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            Atomic::Str(_) => "xs:string",
            Atomic::Int(_) => "xs:integer",
            Atomic::Dbl(_) => "xs:double",
            Atomic::Bool(_) => "xs:boolean",
            Atomic::Untyped(_) => "xs:untypedAtomic",
        }
    }

    /// Builds an `xs:string` value.
    pub fn string(s: impl Into<Arc<str>>) -> Atomic {
        Atomic::Str(s.into())
    }

    /// Builds an `xs:untypedAtomic` value.
    pub fn untyped(s: impl Into<Arc<str>>) -> Atomic {
        Atomic::Untyped(s.into())
    }

    /// The lexical (string) form.
    pub fn to_text(&self) -> String {
        match self {
            Atomic::Str(s) | Atomic::Untyped(s) => s.to_string(),
            Atomic::Int(i) => i.to_string(),
            Atomic::Dbl(d) => format_double(*d),
            Atomic::Bool(b) => b.to_string(),
        }
    }

    /// Numeric view, if this value is a number or parses as one (untyped).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Atomic::Int(i) => Some(*i as f64),
            Atomic::Dbl(d) => Some(*d),
            Atomic::Untyped(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// `true` when this is `xs:integer` or `xs:double`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Atomic::Int(_) | Atomic::Dbl(_))
    }
}

/// Formats a double the way XPath serializes it: integral values without a
/// trailing `.0`, NaN/INF spelled XPath-style.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d.is_infinite() {
        if d > 0.0 {
            "INF".to_string()
        } else {
            "-INF".to_string()
        }
    } else if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

impl fmt::Display for Atomic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// A single item: an atomic value or a node (by id into the engine's store).
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Atomic(Atomic),
    Node(NodeId),
}

impl Item {
    pub fn integer(i: i64) -> Item {
        Item::Atomic(Atomic::Int(i))
    }

    pub fn string(s: impl Into<Arc<str>>) -> Item {
        Item::Atomic(Atomic::Str(s.into()))
    }

    pub fn double(d: f64) -> Item {
        Item::Atomic(Atomic::Dbl(d))
    }

    pub fn boolean(b: bool) -> Item {
        Item::Atomic(Atomic::Bool(b))
    }

    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Item::Node(n) => Some(*n),
            Item::Atomic(_) => None,
        }
    }

    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_))
    }
}

/// A flat sequence of items.
///
/// All constructors flatten: [`Sequence::from_items`] concatenates,
/// [`Sequence::push_seq`] splices. `(1)` and `1` are indistinguishable —
/// [`Sequence::singleton`] and a one-push sequence produce equal values.
///
/// The data model makes most sequences one item long, so the empty and the
/// one-item sequence are held inline and cost no allocation; cloning one
/// clones its item (a refcount bump at most). Two or more items live behind
/// an `Arc`, copy-on-write: cloning such a sequence — every variable
/// reference, FLWOR rebinding, and function-argument pass — is a refcount
/// bump, and the backing `Vec` is only copied when a shared sequence is
/// actually mutated ([`Arc::make_mut`]).
#[derive(Debug, Clone, Default)]
pub struct Sequence {
    repr: Repr,
}

/// The three shapes of a [`Sequence`]. `Many` always holds two or more
/// items, so each length has exactly one representation.
#[derive(Debug, Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Item),
    Many(Arc<Vec<Item>>),
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Self) -> bool {
        self.same_alloc(other) || self.items() == other.items()
    }
}

impl Sequence {
    /// `()` — the empty sequence.
    pub fn empty() -> Self {
        Sequence::default()
    }

    /// A one-item sequence — indistinguishable from the item itself.
    pub fn singleton(item: Item) -> Self {
        Sequence {
            repr: Repr::One(item),
        }
    }

    /// Builds from items (already flat by the type system: `Item` cannot be
    /// a sequence).
    pub fn from_items(mut items: Vec<Item>) -> Self {
        let repr = match items.len() {
            0 => Repr::Empty,
            1 => Repr::One(items.pop().expect("one item")),
            _ => Repr::Many(Arc::new(items)),
        };
        Sequence { repr }
    }

    /// Concatenates (= flattens) a list of sequences:
    /// `(1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7)`. A single non-empty
    /// part is reused whole — no copy.
    pub fn concat(parts: impl IntoIterator<Item = Sequence>) -> Self {
        let mut out = Sequence::empty();
        for p in parts {
            out.push_seq(p);
        }
        out
    }

    /// The backing `Vec` of a sequence about to grow past one item, with
    /// room for `extra` more.
    fn make_many(&mut self, extra: usize) -> &mut Vec<Item> {
        if let Repr::One(_) | Repr::Empty = self.repr {
            let mut items = Vec::with_capacity(1 + extra);
            if let Repr::One(first) = std::mem::take(&mut self.repr) {
                items.push(first);
            }
            self.repr = Repr::Many(Arc::new(items));
        }
        match &mut self.repr {
            Repr::Many(items) => Arc::make_mut(items),
            _ => unreachable!("made many above"),
        }
    }

    pub fn push(&mut self, item: Item) {
        match self.repr {
            Repr::Empty => self.repr = Repr::One(item),
            _ => self.make_many(1).push(item),
        }
    }

    /// Splices another sequence onto the end (flattening). Appending to an
    /// empty sequence steals the other's representation.
    pub fn push_seq(&mut self, other: Sequence) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        let dst = self.make_many(other.len());
        match other.repr {
            Repr::Empty => {}
            Repr::One(item) => dst.push(item),
            Repr::Many(items) => match Arc::try_unwrap(items) {
                Ok(v) => dst.extend(v),
                Err(shared) => dst.extend(shared.iter().cloned()),
            },
        }
    }

    pub fn len(&self) -> usize {
        self.items().len()
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.repr, Repr::Empty)
    }

    pub fn items(&self) -> &[Item] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }

    /// True when both sequences are provably the same value without
    /// comparing them item by item — the cheap identity the runtime hash
    /// join uses to tell "the same sequence again" from "a freshly evaluated
    /// one". Shared sequences must share one backing allocation (holding
    /// either keeps it alive, so a pointer match cannot be a reused
    /// address). An inline sequence owns no allocation and is its own
    /// value: two are the same when both are empty or both hold the same
    /// node or an identical atomic.
    pub fn same_alloc(&self, other: &Sequence) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Empty, Repr::Empty) => true,
            (Repr::One(a), Repr::One(b)) => identical(a, b),
            (Repr::Many(a), Repr::Many(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The backing items, avoiding a copy when this sequence holds the only
    /// reference.
    pub fn into_items(self) -> Vec<Item> {
        match self.repr {
            Repr::Empty => Vec::new(),
            Repr::One(item) => vec![item],
            Repr::Many(items) => Arc::try_unwrap(items).unwrap_or_else(|shared| (*shared).clone()),
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }

    /// 1-based indexing, XPath style: `$seq[2]`.
    pub fn get(&self, position: usize) -> Option<&Item> {
        if position == 0 {
            return None;
        }
        self.items().get(position - 1)
    }

    /// The single item of a singleton sequence.
    pub fn as_singleton(&self) -> Option<&Item> {
        match &self.repr {
            Repr::One(item) => Some(item),
            _ => None,
        }
    }

    /// All node ids, or `None` if any item is atomic.
    pub fn all_nodes(&self) -> Option<Vec<NodeId>> {
        self.iter().map(|i| i.as_node()).collect::<Option<Vec<_>>>()
    }
}

/// Item identity for [`Sequence::same_alloc`]: the same node, or atomics of
/// one type with bit-identical payloads (so `0.0` and `-0.0`, or two NaNs,
/// are never taken for each other).
fn identical(a: &Item, b: &Item) -> bool {
    match (a, b) {
        (Item::Node(x), Item::Node(y)) => x == y,
        (Item::Atomic(Atomic::Dbl(x)), Item::Atomic(Atomic::Dbl(y))) => x.to_bits() == y.to_bits(),
        (Item::Atomic(x), Item::Atomic(y)) => x == y,
        _ => false,
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Sequence::empty();
        };
        let Some(second) = iter.next() else {
            return Sequence::singleton(first);
        };
        let mut items = Vec::with_capacity(iter.size_hint().0.saturating_add(2));
        items.push(first);
        items.push(second);
        items.extend(iter);
        Sequence {
            repr: Repr::Many(Arc::new(items)),
        }
    }
}

/// The owning iterator of a [`Sequence`]. A shared backing `Vec` is read in
/// place, cloning one item at a time, rather than copied whole.
pub struct IntoIter {
    inner: IntoIterRepr,
}

enum IntoIterRepr {
    One(Option<Item>),
    Owned(std::vec::IntoIter<Item>),
    /// The shared items and the positions not yet yielded.
    Shared(Arc<Vec<Item>>, std::ops::Range<usize>),
}

impl Iterator for IntoIter {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        match &mut self.inner {
            IntoIterRepr::One(item) => item.take(),
            IntoIterRepr::Owned(it) => it.next(),
            IntoIterRepr::Shared(items, rest) => rest.next().map(|i| items[i].clone()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.inner {
            IntoIterRepr::One(item) => usize::from(item.is_some()),
            IntoIterRepr::Owned(it) => it.len(),
            IntoIterRepr::Shared(_, rest) => rest.len(),
        };
        (n, Some(n))
    }
}

impl DoubleEndedIterator for IntoIter {
    fn next_back(&mut self) -> Option<Item> {
        match &mut self.inner {
            IntoIterRepr::One(item) => item.take(),
            IntoIterRepr::Owned(it) => it.next_back(),
            IntoIterRepr::Shared(items, rest) => rest.next_back().map(|i| items[i].clone()),
        }
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let inner = match self.repr {
            Repr::Empty => IntoIterRepr::One(None),
            Repr::One(item) => IntoIterRepr::One(Some(item)),
            Repr::Many(items) => match Arc::try_unwrap(items) {
                Ok(v) => IntoIterRepr::Owned(v.into_iter()),
                Err(items) => {
                    let rest = 0..items.len();
                    IntoIterRepr::Shared(items, rest)
                }
            },
        };
        IntoIter { inner }
    }
}

impl From<Item> for Sequence {
    fn from(item: Item) -> Self {
        Sequence::singleton(item)
    }
}

impl From<Atomic> for Sequence {
    fn from(a: Atomic) -> Self {
        Sequence::singleton(Item::Atomic(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ints(values: &[i64]) -> Sequence {
        values.iter().map(|&i| Item::integer(i)).collect()
    }

    #[test]
    fn the_papers_flattening_example() {
        // (1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7)
        let inner = Sequence::concat([ints(&[6, 7])]);
        let five = Sequence::concat([ints(&[5]), inner]);
        let all = Sequence::concat([ints(&[1]), ints(&[2, 3, 4]), Sequence::empty(), five]);
        assert_eq!(all, ints(&[1, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn singleton_indistinguishable_from_item() {
        let one = Sequence::singleton(Item::integer(1));
        let also_one = Sequence::concat([Sequence::from_items(vec![Item::integer(1)])]);
        assert_eq!(one, also_one);
        assert_eq!(one.as_singleton(), Some(&Item::integer(1)));
    }

    #[test]
    fn empty_identity_for_concat() {
        let s = ints(&[1, 2]);
        let with_empties = Sequence::concat([Sequence::empty(), s.clone(), Sequence::empty()]);
        assert_eq!(with_empties, s);
    }

    #[test]
    fn one_based_indexing() {
        let s = ints(&[10, 20, 30]);
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(1), Some(&Item::integer(10)));
        assert_eq!(s.get(3), Some(&Item::integer(30)));
        assert_eq!(s.get(4), None);
    }

    #[test]
    fn zero_one_two_item_transitions() {
        let mut s = Sequence::empty();
        assert_eq!((s.len(), s.as_singleton()), (0, None));
        s.push(Item::integer(1));
        assert_eq!((s.len(), s.as_singleton()), (1, Some(&Item::integer(1))));
        let one = s.clone();
        s.push(Item::integer(2));
        assert_eq!((s.len(), s.as_singleton()), (2, None));
        assert_eq!(s, ints(&[1, 2]));
        assert_eq!(one, ints(&[1]));
        let two = s.clone();
        s.push_seq(one);
        assert_eq!(s, ints(&[1, 2, 1]));
        assert_eq!(two, ints(&[1, 2]));
    }

    /// One step of the model test below. Indices pick a sequence from the
    /// pool modulo its length.
    #[derive(Debug, Clone)]
    enum Op {
        Singleton(Item),
        FromItems(Vec<Item>),
        Collect(Vec<Item>),
        /// Push onto a clone, so the pool entry shares the backing `Vec`.
        PushShared(usize, Item),
        /// Push onto the pool entry itself.
        PushInPlace(usize, Item),
        /// Splice `b` onto a clone of `a`; with `take`, `b` leaves the pool
        /// and is moved in whole.
        PushSeq(usize, usize, bool),
        Concat(Vec<usize>),
        /// Drain an entry into a `Vec`, forward or reversed, with or without
        /// a clone keeping the backing `Vec` shared.
        IntoIter(usize, bool, bool),
    }

    fn item() -> impl Strategy<Value = Item> {
        prop_oneof![
            (-3i64..4).prop_map(Item::integer),
            prop::sample::select(vec!["a", "b", ""]).prop_map(Item::string),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let items = || prop::collection::vec(item(), 0..4);
        prop_oneof![
            item().prop_map(Op::Singleton),
            items().prop_map(Op::FromItems),
            items().prop_map(Op::Collect),
            (0usize..8, item()).prop_map(|(i, x)| Op::PushShared(i, x)),
            (0usize..8, item()).prop_map(|(i, x)| Op::PushInPlace(i, x)),
            (0usize..8, 0usize..8, any::<bool>()).prop_map(|(a, b, t)| Op::PushSeq(a, b, t)),
            prop::collection::vec(0usize..8, 0..4).prop_map(Op::Concat),
            (0usize..8, any::<bool>(), any::<bool>()).prop_map(|(i, r, s)| Op::IntoIter(i, r, s)),
        ]
    }

    /// Every observation of `seq` agrees with the plain `Vec` model.
    fn agrees(seq: &Sequence, model: &[Item]) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(seq.len(), model.len());
        prop_assert_eq!(seq.is_empty(), model.is_empty());
        prop_assert_eq!(seq.items(), model);
        prop_assert!(seq.iter().eq(model.iter()));
        for position in 0..=model.len() + 1 {
            let want = position.checked_sub(1).and_then(|i| model.get(i));
            prop_assert_eq!(seq.get(position), want);
        }
        let single = if model.len() == 1 {
            model.first()
        } else {
            None
        };
        prop_assert_eq!(seq.as_singleton(), single);
        prop_assert_eq!(seq, &Sequence::from_items(model.to_vec()));
        prop_assert_eq!(seq.clone().into_items(), model.to_vec());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `Sequence` operations against a plain `Vec<Item>` model:
        /// lengths, items, indexing, singleton view, equality and both
        /// iteration directions agree after every step, across the
        /// empty/one/many transitions, and a push never reaches a clone.
        #[test]
        fn sequence_matches_a_vec_model(ops in prop::collection::vec(op(), 1..24)) {
            let mut pool: Vec<(Sequence, Vec<Item>)> = vec![(Sequence::empty(), Vec::new())];
            for op in ops {
                let n = pool.len();
                match op {
                    Op::Singleton(x) => pool.push((Sequence::singleton(x.clone()), vec![x])),
                    Op::FromItems(xs) => pool.push((Sequence::from_items(xs.clone()), xs)),
                    Op::Collect(xs) => pool.push((xs.iter().cloned().collect(), xs)),
                    Op::PushShared(i, x) => {
                        let (shared, model) = pool[i % n].clone();
                        let mut grown = shared.clone();
                        grown.push(x.clone());
                        agrees(&shared, &model)?;
                        let mut grown_model = model;
                        grown_model.push(x);
                        pool.push((grown, grown_model));
                    }
                    Op::PushInPlace(i, x) => {
                        let (seq, model) = &mut pool[i % n];
                        seq.push(x.clone());
                        model.push(x);
                    }
                    Op::PushSeq(a, b, take) => {
                        let (a, b) = (a % n, b % n);
                        let (other, other_model) = if take && a != b {
                            pool.swap_remove(b)
                        } else {
                            pool[b].clone()
                        };
                        let a = if a == pool.len() { b } else { a };
                        let (base, base_model) = pool[a].clone();
                        let mut joined = base.clone();
                        joined.push_seq(other);
                        agrees(&base, &base_model)?;
                        let mut joined_model = base_model;
                        joined_model.extend(other_model);
                        pool.push((joined, joined_model));
                    }
                    Op::Concat(picks) => {
                        let parts: Vec<_> = picks.iter().map(|i| pool[i % n].clone()).collect();
                        let model = parts.iter().flat_map(|(_, m)| m.clone()).collect();
                        let seq = Sequence::concat(parts.into_iter().map(|(s, _)| s));
                        pool.push((seq, model));
                    }
                    Op::IntoIter(i, reverse, keep_shared) => {
                        let (seq, mut model) = pool.swap_remove(i % n);
                        let keep = keep_shared.then(|| seq.clone());
                        let iter = seq.into_iter();
                        prop_assert_eq!(iter.len(), model.len());
                        let drained: Vec<Item> = if reverse {
                            model.reverse();
                            iter.rev().collect()
                        } else {
                            iter.collect()
                        };
                        prop_assert_eq!(&drained, &model);
                        if reverse {
                            model.reverse();
                        }
                        if let Some(kept) = keep {
                            agrees(&kept, &model)?;
                        }
                        if pool.is_empty() {
                            pool.push((Sequence::empty(), Vec::new()));
                        }
                    }
                }
                for (seq, model) in &pool {
                    agrees(seq, model)?;
                }
            }
        }
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(3.0), "3");
        assert_eq!(format_double(3.5), "3.5");
        assert_eq!(format_double(f64::NAN), "NaN");
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_double(-0.0), "0");
    }

    #[test]
    fn atomic_numeric_views() {
        assert_eq!(Atomic::Int(4).as_number(), Some(4.0));
        assert_eq!(Atomic::Untyped(" 2.5 ".into()).as_number(), Some(2.5));
        assert_eq!(Atomic::Str("2.5".into()).as_number(), None);
        assert!(Atomic::Dbl(1.0).is_numeric());
        assert!(!Atomic::Untyped("1".into()).is_numeric());
    }

    #[test]
    fn atomic_text_forms() {
        assert_eq!(Atomic::Bool(true).to_text(), "true");
        assert_eq!(Atomic::Dbl(2.0).to_text(), "2");
        assert_eq!(Atomic::Untyped("x".into()).to_text(), "x");
    }
}
