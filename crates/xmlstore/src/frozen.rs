//! The frozen half of the store: contiguous pre-order node tables.
//!
//! A [`FrozenTree`] is one XML tree laid out as a single `Vec` of records in
//! pre-order, **attributes included**: an element's record at position `p` is
//! followed immediately by its attribute records (`p+1 .. p+1+attr_len`) and
//! then by its child subtrees. Structure is implicit in the layout:
//!
//! * the descendant axis of `p` is the contiguous range
//!   `p+1 .. subtree_end(p)` — a slice scan, no pointer chasing;
//! * document order is position order and `pre` order keys are the positions
//!   themselves — no lazily stamped numbering pass is ever needed;
//! * `a` is an ancestor of `b` iff `pos(a) < pos(b) < subtree_end(a)`;
//! * a whole tree snapshots with one `Arc` bump ([`TreeSnapshot`]).
//!
//! String payloads stay behind the `Arc<str>`s inside [`NodeKind`] — the
//! records share them, so freezing a tree, snapshotting it, and adopting it
//! into another store never copies text.
//!
//! Name lookups get per-tree maps (local symbol → ascending positions) built
//! lazily on first use. Edits rewrite the table in place: a value edit
//! ([`FrozenTree::set_kind`]) rewrites one record, and a structural edit
//! ([`FrozenTree::insert`], [`FrozenTree::remove`], [`FrozenTree::replace`])
//! splices the record run, shifts the offsets of the records after it, and
//! patches the name and attribute-value maps already built instead of
//! dropping them. The store copies a table shared with a snapshot or another
//! store before its first edit (`Arc::make_mut`), so a snapshot never sees a
//! later edit.

use crate::error::{XmlError, XmlErrorKind};
use crate::qname::QName;
use crate::store::NodeKind;
use crate::sym::Sym;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// `parent` value of a tree root: no parent.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One node of a frozen tree. `kind` carries the name (interned `Sym`s) and
/// any string payload inline; everything else is offsets into the layout.
#[derive(Debug, Clone)]
pub(crate) struct FrozenRec {
    pub kind: NodeKind,
    /// Position of the parent record, [`NO_PARENT`] for the root.
    pub parent: u32,
    /// One past the last position of this node's subtree (attributes
    /// included). Leaves have `subtree_end == pos + 1`.
    pub subtree_end: u32,
    /// Number of attribute records immediately following this one.
    pub attr_len: u32,
    /// Start of this node's child-position run in [`FrozenTree::kids`].
    pub kids_start: u32,
    /// Number of (non-attribute) children.
    pub kids_len: u32,
    /// Distance from the tree root.
    pub depth: u32,
}

impl FrozenRec {
    pub fn is_attr(&self) -> bool {
        matches!(self.kind, NodeKind::Attribute(..))
    }
}

/// `v` moved by `delta` positions.
fn moved(v: u32, delta: i64) -> u32 {
    (v as i64 + delta) as u32
}

/// Drops the positions in `at..end` from an ascending position list and
/// moves the ones past that range by `delta`.
fn respace(v: &mut Vec<u32>, at: u32, end: u32, delta: i64) {
    let a = v.partition_point(|&p| p < at);
    let b = a + v[a..].partition_point(|&p| p < end);
    v.drain(a..b);
    if delta != 0 {
        for p in &mut v[a..] {
            *p = moved(*p, delta);
        }
    }
}

/// Merges `added` — ascending positions, none already present — into the
/// per-key position lists of `map`, one splice per key.
fn merge_positions<K: Hash + Eq>(map: &mut HashMap<K, Vec<u32>>, added: Vec<(K, u32)>) {
    let mut grouped: HashMap<K, Vec<u32>> = HashMap::new();
    for (k, p) in added {
        grouped.entry(k).or_default().push(p);
    }
    for (k, ps) in grouped {
        let v = map.entry(k).or_default();
        let at = v.partition_point(|&p| p < ps[0]);
        v.splice(at..at, ps);
    }
}

/// Per-tree name maps: local symbol (or full `QName`) → positions in
/// ascending (document) order. Built once, on first name lookup, and patched
/// by every edit after that. The full-name maps exist so a `//item`-style
/// query answers with a map hit and an interval copy — no per-position
/// record read to re-check the prefix.
#[derive(Debug, Clone, Default)]
struct NameMaps {
    elements_by_local: HashMap<Sym, Vec<u32>>,
    attributes_by_local: HashMap<Sym, Vec<u32>>,
    elements_by_name: HashMap<QName, Vec<u32>>,
    attributes_by_name: HashMap<QName, Vec<u32>>,
}

impl NameMaps {
    /// Adds the named records among `recs` (at positions `base..`).
    fn add(&mut self, recs: &[FrozenRec], base: u32) {
        let (mut el_local, mut el_name, mut at_local, mut at_name) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, rec) in recs.iter().enumerate() {
            let pos = base + i as u32;
            match &rec.kind {
                NodeKind::Element(q) => {
                    el_local.push((q.local_sym(), pos));
                    el_name.push((*q, pos));
                }
                NodeKind::Attribute(q, _) => {
                    at_local.push((q.local_sym(), pos));
                    at_name.push((*q, pos));
                }
                _ => {}
            }
        }
        merge_positions(&mut self.elements_by_local, el_local);
        merge_positions(&mut self.elements_by_name, el_name);
        merge_positions(&mut self.attributes_by_local, at_local);
        merge_positions(&mut self.attributes_by_name, at_name);
    }

    /// Removes `pos`, a record named by `kind`.
    fn remove(&mut self, kind: &NodeKind, pos: u32) {
        fn drop_pos<K: Hash + Eq>(map: &mut HashMap<K, Vec<u32>>, k: &K, pos: u32) {
            if let Some(v) = map.get_mut(k) {
                if let Ok(i) = v.binary_search(&pos) {
                    v.remove(i);
                }
            }
        }
        match kind {
            NodeKind::Element(q) => {
                drop_pos(&mut self.elements_by_local, &q.local_sym(), pos);
                drop_pos(&mut self.elements_by_name, q, pos);
            }
            NodeKind::Attribute(q, _) => {
                drop_pos(&mut self.attributes_by_local, &q.local_sym(), pos);
                drop_pos(&mut self.attributes_by_name, q, pos);
            }
            _ => {}
        }
    }

    /// Moves every list past a splice: see [`respace`].
    fn respace(&mut self, at: u32, end: u32, delta: i64) {
        for v in self
            .elements_by_local
            .values_mut()
            .chain(self.attributes_by_local.values_mut())
            .chain(self.elements_by_name.values_mut())
            .chain(self.attributes_by_name.values_mut())
        {
            respace(v, at, end, delta);
        }
    }
}

/// Exact attribute value → owner-element positions, ascending, for one
/// attribute local name.
type ValueOwners = HashMap<Arc<str>, Vec<u32>>;

/// An XML tree as a contiguous pre-order record table. Shared by `Arc`: the
/// same `FrozenTree` can be mounted in any number of stores, and an edit
/// through one of them copies it first.
#[derive(Debug)]
pub(crate) struct FrozenTree {
    pub recs: Vec<FrozenRec>,
    /// Flattened child-position lists: node `p`'s children are
    /// `kids[kids_start(p) .. kids_start(p)+kids_len(p)]`, in document order.
    pub kids: Vec<u32>,
    maps: OnceLock<NameMaps>,
    /// Per attribute local name, the value → owners map. Built lazily per
    /// name; patched by structural edits, dropped for its name by a value
    /// edit.
    attr_values: Mutex<HashMap<Sym, Arc<ValueOwners>>>,
}

impl Clone for FrozenTree {
    fn clone(&self) -> Self {
        FrozenTree {
            recs: self.recs.clone(),
            kids: self.kids.clone(),
            maps: self.maps.clone(),
            attr_values: Mutex::new(self.values().clone()),
        }
    }
}

/// How a splice edits its parent's child run in [`FrozenTree::kids`]; the
/// mount replays the same edit on its id-mapped twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunEdit {
    /// An attribute site: the child run is untouched.
    Keep,
    /// The fragment root enters the run at this `kids` index.
    Insert(usize),
    /// The removed root leaves the run at this `kids` index.
    Remove(usize),
    /// The fragment root takes the removed root's entry at this index: same
    /// position, another node.
    Replace(usize),
}

/// What one splice did, for the mount that replays it on its id tables.
#[derive(Debug)]
pub(crate) struct Spliced {
    /// First position written: every position from here on holds another
    /// node than before, or the same node at a new position.
    pub at: u32,
    /// Records removed at `at` (one whole subtree, or none).
    pub removed: u32,
    /// `kids[kids_at .. kids_at + kids_removed]`, the child runs of the
    /// removed records, gave way to the fragment's runs.
    pub kids_at: usize,
    pub kids_removed: usize,
    pub run: RunEdit,
    /// Records moved or rewritten: the fragment, the suffix after it, the
    /// removed subtree, and the prefix records whose offsets changed.
    pub shifted: u64,
    /// The removed subtree as a tree of its own (positions from 0).
    pub detached: Option<FrozenTree>,
}

impl FrozenTree {
    /// Finishes a pre-order record table into a tree: computes the flattened
    /// child lists (`kids_start` is overwritten; `kids_len` must be 0).
    pub fn from_recs(mut recs: Vec<FrozenRec>) -> FrozenTree {
        let n = recs.len();
        for pos in 1..n {
            if !recs[pos].is_attr() {
                let p = recs[pos].parent as usize;
                recs[p].kids_len += 1;
            }
        }
        let mut start = 0u32;
        for r in recs.iter_mut() {
            r.kids_start = start;
            start += r.kids_len;
        }
        let mut kids = vec![0u32; start as usize];
        let mut cursor: Vec<u32> = recs.iter().map(|r| r.kids_start).collect();
        for (pos, rec) in recs.iter().enumerate().skip(1) {
            if !rec.is_attr() {
                let p = rec.parent as usize;
                kids[cursor[p] as usize] = pos as u32;
                cursor[p] += 1;
            }
        }
        FrozenTree {
            recs,
            kids,
            maps: OnceLock::new(),
            attr_values: Mutex::new(HashMap::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Deterministic estimate of the heap bytes this record table retains:
    /// the record and child-list vectors plus every string payload. Shared
    /// `Arc<str>` payloads are counted at face value (each holder would keep
    /// them alive on its own), and the lazily built name maps are excluded —
    /// the figure is an *admission* measure, stable from the moment the tree
    /// is built, not a live allocator report.
    pub fn retained_bytes(&self) -> usize {
        let mut bytes = self.recs.len() * std::mem::size_of::<FrozenRec>()
            + self.kids.len() * std::mem::size_of::<u32>();
        for rec in &self.recs {
            bytes += match &rec.kind {
                NodeKind::Document | NodeKind::Element(_) => 0,
                NodeKind::Attribute(_, v) => v.len(),
                NodeKind::Text(t) | NodeKind::Comment(t) => t.len(),
                NodeKind::Pi(target, data) => target.len() + data.len(),
            };
        }
        bytes
    }

    fn maps(&self) -> &NameMaps {
        self.maps.get_or_init(|| {
            let mut m = NameMaps::default();
            for (pos, rec) in self.recs.iter().enumerate() {
                match &rec.kind {
                    NodeKind::Element(q) => {
                        m.elements_by_local
                            .entry(q.local_sym())
                            .or_default()
                            .push(pos as u32);
                        m.elements_by_name.entry(*q).or_default().push(pos as u32);
                    }
                    NodeKind::Attribute(q, _) => {
                        m.attributes_by_local
                            .entry(q.local_sym())
                            .or_default()
                            .push(pos as u32);
                        m.attributes_by_name.entry(*q).or_default().push(pos as u32);
                    }
                    _ => {}
                }
            }
            m
        })
    }

    fn values(&self) -> std::sync::MutexGuard<'_, HashMap<Sym, Arc<ValueOwners>>> {
        self.attr_values.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Positions of elements with local symbol `local`, ascending.
    pub fn elements_by_local(&self, local: Sym) -> &[u32] {
        self.maps()
            .elements_by_local
            .get(&local)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Positions of attributes with local symbol `local`, ascending.
    pub fn attributes_by_local(&self, local: Sym) -> &[u32] {
        self.maps()
            .attributes_by_local
            .get(&local)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Positions of elements with the full name `name`, ascending.
    pub fn elements_by_name(&self, name: &QName) -> &[u32] {
        self.maps()
            .elements_by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Positions of attributes with the full name `name`, ascending.
    pub fn attributes_by_name(&self, name: &QName) -> &[u32] {
        self.maps()
            .attributes_by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// The value → owner-element-positions map for attribute name `local`,
    /// built on first use. Owner positions come out ascending because the
    /// per-name attribute positions are ascending and each owner precedes
    /// its own attributes.
    pub fn attr_value_owners(&self, local: Sym) -> Arc<ValueOwners> {
        if let Some(m) = self.values().get(&local) {
            return m.clone();
        }
        let mut map = ValueOwners::new();
        for &a in self.attributes_by_local(local) {
            let rec = &self.recs[a as usize];
            if let NodeKind::Attribute(_, v) = &rec.kind {
                map.entry(v.clone()).or_default().push(rec.parent);
            }
        }
        self.values()
            .entry(local)
            .or_insert_with(|| Arc::new(map))
            .clone()
    }

    // ------------------------------------------------------------------
    // In-place edits
    // ------------------------------------------------------------------

    /// A value edit: rewrites the kind of the record at `pos` and returns
    /// the old one. A rename moves the position between name lists; a new
    /// attribute value drops the value map of that attribute name only.
    pub fn set_kind(&mut self, pos: u32, kind: NodeKind) -> NodeKind {
        let old = std::mem::replace(&mut self.recs[pos as usize].kind, kind);
        let new = &self.recs[pos as usize].kind;
        if let Some(maps) = self.maps.get_mut() {
            let renamed = match (&old, new) {
                (NodeKind::Element(a), NodeKind::Element(b))
                | (NodeKind::Attribute(a, _), NodeKind::Attribute(b, _)) => a != b,
                _ => false,
            };
            if renamed {
                maps.remove(&old, pos);
                maps.add(std::slice::from_ref(&self.recs[pos as usize]), pos);
            }
        }
        if let (NodeKind::Attribute(a, _), NodeKind::Attribute(b, _)) = (&old, new) {
            let values = self
                .attr_values
                .get_mut()
                .unwrap_or_else(|e| e.into_inner());
            values.remove(&a.local_sym());
            values.remove(&b.local_sym());
        }
        old
    }

    /// Inserts `frag` under the record at `parent`: as its child number
    /// `child_index`, or after its attributes when that is `None` (the
    /// fragment root is then an attribute).
    pub fn insert(
        &mut self,
        parent: u32,
        child_index: Option<usize>,
        frag: &FrozenTree,
    ) -> Spliced {
        let p = &self.recs[parent as usize];
        let (at, run) = match child_index {
            None => (parent + 1 + p.attr_len, RunEdit::Keep),
            Some(i) => {
                let k = p.kids_start as usize + i;
                let at = if i < p.kids_len as usize {
                    self.kids[k]
                } else {
                    p.subtree_end
                };
                (at, RunEdit::Insert(k))
            }
        };
        self.splice(parent, at, 0, Some(frag), run)
    }

    /// Removes the subtree at `pos` (not the root); it comes back in
    /// [`Spliced::detached`].
    pub fn remove(&mut self, pos: u32) -> Spliced {
        let (parent, entry) = self.run_entry(pos);
        let run = entry.map_or(RunEdit::Keep, RunEdit::Remove);
        let removed = self.recs[pos as usize].subtree_end - pos;
        self.splice(parent, pos, removed, None, run)
    }

    /// Replaces the child subtree at `pos` with `frag`; the old subtree
    /// comes back in [`Spliced::detached`].
    pub fn replace(&mut self, pos: u32, frag: &FrozenTree) -> Spliced {
        let (parent, entry) = self.run_entry(pos);
        let run = RunEdit::Replace(entry.expect("replace_child handles children only"));
        let removed = self.recs[pos as usize].subtree_end - pos;
        self.splice(parent, pos, removed, Some(frag), run)
    }

    /// The parent of `pos`, and its `kids` index unless it is an attribute.
    fn run_entry(&self, pos: u32) -> (u32, Option<usize>) {
        let rec = &self.recs[pos as usize];
        let p = &self.recs[rec.parent as usize];
        let entry = (!rec.is_attr()).then(|| {
            let start = p.kids_start as usize;
            let run = &self.kids[start..start + p.kids_len as usize];
            start
                + run
                    .binary_search(&pos)
                    .expect("a child is in its parent's run")
        });
        (rec.parent, entry)
    }

    /// Where the child runs of the records from `pos` on begin.
    fn kids_start_at(&self, pos: u32) -> usize {
        self.recs
            .get(pos as usize)
            .map_or(self.kids.len(), |r| r.kids_start as usize)
    }

    /// The one structural edit: the `removed` records of the subtree at `at`
    /// under record `parent` give way to `frag`'s records.
    ///
    /// With `delta` the change in length, the position arithmetic is: the
    /// parent and its ancestors span the site, so their exits and the child
    /// entries past the site move by `delta`; records between the parent and
    /// the site keep their positions, and only their child-run offsets follow
    /// the parent's run; every record after the removed range moves by
    /// `delta`, and so do its exit, its children and — when that lies after
    /// the range too — its parent.
    fn splice(
        &mut self,
        parent: u32,
        at: u32,
        removed: u32,
        frag: Option<&FrozenTree>,
        run: RunEdit,
    ) -> Spliced {
        let (frag_recs, frag_kids): (&[FrozenRec], &[u32]) =
            frag.map_or((&[], &[]), |f| (&f.recs, &f.kids));
        let end = at + removed;
        let delta = frag_recs.len() as i64 - removed as i64;
        let run_delta: i64 = match run {
            RunEdit::Insert(_) => 1,
            RunEdit::Remove(_) => -1,
            RunEdit::Keep | RunEdit::Replace(_) => 0,
        };
        let kids_at = self.kids_start_at(at);
        let kids_end = self.kids_start_at(end);
        let kids_delta = run_delta + frag_kids.len() as i64 - (kids_end - kids_at) as i64;
        let removed_attr = removed > 0 && self.recs[at as usize].is_attr();
        let added_attr = frag_recs.first().is_some_and(FrozenRec::is_attr);
        let mut shifted = 0u64;

        let mut a = parent;
        loop {
            let r = &mut self.recs[a as usize];
            r.subtree_end = moved(r.subtree_end, delta);
            let start = r.kids_start as usize;
            let kids = &mut self.kids[start..start + r.kids_len as usize];
            let from = kids.partition_point(|&c| c < end);
            for c in &mut kids[from..] {
                *c = moved(*c, delta);
            }
            shifted += 1;
            if r.parent == NO_PARENT {
                break;
            }
            a = r.parent;
        }
        let p = &mut self.recs[parent as usize];
        p.kids_len = (p.kids_len as i64 + run_delta) as u32;
        p.attr_len = p.attr_len + u32::from(added_attr) - u32::from(removed_attr);
        if run_delta != 0 {
            for r in &mut self.recs[parent as usize + 1..at as usize] {
                r.kids_start = (r.kids_start as i64 + run_delta) as u32;
            }
            shifted += u64::from(at - parent - 1);
        }
        for r in &mut self.recs[end as usize..] {
            r.subtree_end = moved(r.subtree_end, delta);
            if r.parent >= end {
                r.parent = moved(r.parent, delta);
            }
            r.kids_start = (r.kids_start as i64 + kids_delta) as u32;
        }
        for c in &mut self.kids[kids_end..] {
            *c = moved(*c, delta);
        }
        shifted +=
            (self.recs.len() - end as usize) as u64 + frag_recs.len() as u64 + u64::from(removed);

        let depth = self.recs[parent as usize].depth + 1;
        let kids_base = (kids_at as i64 + run_delta) as u32;
        let incoming = frag_recs.iter().enumerate().map(|(i, r)| FrozenRec {
            kind: r.kind.clone(),
            parent: if i == 0 { parent } else { r.parent + at },
            subtree_end: r.subtree_end + at,
            attr_len: r.attr_len,
            kids_start: kids_base + r.kids_start,
            kids_len: r.kids_len,
            depth: r.depth + depth,
        });
        let out: Vec<FrozenRec> = self
            .recs
            .splice(at as usize..end as usize, incoming)
            .collect();
        self.kids
            .splice(kids_at..kids_end, frag_kids.iter().map(|&c| c + at));
        match run {
            RunEdit::Insert(k) => self.kids.insert(k, at),
            RunEdit::Remove(k) => {
                self.kids.remove(k);
            }
            RunEdit::Keep | RunEdit::Replace(_) => {}
        }

        let added = at..at + frag_recs.len() as u32;
        if let Some(maps) = self.maps.get_mut() {
            maps.respace(at, end, delta);
            maps.add(&self.recs[added.start as usize..added.end as usize], at);
        }
        let values = self
            .attr_values
            .get_mut()
            .unwrap_or_else(|e| e.into_inner());
        for (local, owners) in values.iter_mut() {
            let owners = Arc::make_mut(owners);
            // Owners inside the removed range leave with it; a removed root
            // attribute leaves an owner that stays.
            owners.retain(|_, v| {
                respace(v, at, end, delta);
                !v.is_empty()
            });
            if removed_attr {
                if let NodeKind::Attribute(q, v) = &out[0].kind {
                    if q.local_sym() == *local {
                        if let Some(list) = owners.get_mut(v) {
                            if let Ok(i) = list.binary_search(&parent) {
                                list.remove(i);
                            }
                            if list.is_empty() {
                                owners.remove(v);
                            }
                        }
                    }
                }
            }
            for pos in added.clone() {
                let rec = &self.recs[pos as usize];
                if let NodeKind::Attribute(q, v) = &rec.kind {
                    if q.local_sym() == *local {
                        let list = owners.entry(v.clone()).or_default();
                        let i = list.partition_point(|&o| o < rec.parent);
                        list.insert(i, rec.parent);
                    }
                }
            }
        }

        let detached = (removed > 0).then(|| {
            let base_depth = out[0].depth;
            let recs = out
                .into_iter()
                .enumerate()
                .map(|(i, mut r)| {
                    r.parent = if i == 0 { NO_PARENT } else { r.parent - at };
                    r.subtree_end -= at;
                    r.depth -= base_depth;
                    r.kids_len = 0;
                    r
                })
                .collect();
            FrozenTree::from_recs(recs)
        });
        #[cfg(debug_assertions)]
        self.assert_consistent();
        Spliced {
            at,
            removed,
            kids_at,
            kids_removed: kids_end - kids_at,
            run,
            shifted,
            detached,
        }
    }

    /// Debug builds check every splice against the layout's invariants and
    /// against maps rebuilt from scratch.
    #[cfg(debug_assertions)]
    fn assert_consistent(&self) {
        let mut open: Vec<u32> = Vec::new();
        for (pos, rec) in self.recs.iter().enumerate() {
            let pos = pos as u32;
            while open
                .last()
                .is_some_and(|&o| self.recs[o as usize].subtree_end <= pos)
            {
                open.pop();
            }
            assert_eq!(
                rec.parent,
                open.last().copied().unwrap_or(NO_PARENT),
                "parent of {pos}"
            );
            assert_eq!(rec.depth as usize, open.len(), "depth of {pos}");
            assert!(rec.subtree_end > pos, "exit of {pos}");
            if let Some(&o) = open.last() {
                assert!(rec.subtree_end <= self.recs[o as usize].subtree_end);
            }
            open.push(pos);
        }
        let mut bare = self.recs.clone();
        for r in &mut bare {
            r.kids_len = 0;
        }
        let rebuilt = FrozenTree::from_recs(bare);
        assert_eq!(rebuilt.kids, self.kids, "spliced child lists");
        for (pos, (a, b)) in self.recs.iter().zip(&rebuilt.recs).enumerate() {
            assert_eq!(
                (a.kids_start, a.kids_len),
                (b.kids_start, b.kids_len),
                "child-list offsets at {pos}"
            );
        }
        if let Some(maps) = self.maps.get() {
            let fresh = rebuilt.maps();
            fn same<K: Hash + Eq + std::fmt::Debug>(
                a: &HashMap<K, Vec<u32>>,
                b: &HashMap<K, Vec<u32>>,
            ) {
                let live = |m: &HashMap<K, Vec<u32>>| m.values().filter(|v| !v.is_empty()).count();
                assert_eq!(live(a), live(b), "name-list count");
                for (k, v) in b {
                    assert_eq!(a.get(k), Some(v), "positions named {k:?}");
                }
            }
            same(&maps.elements_by_local, &fresh.elements_by_local);
            same(&maps.attributes_by_local, &fresh.attributes_by_local);
            same(&maps.elements_by_name, &fresh.elements_by_name);
            same(&maps.attributes_by_name, &fresh.attributes_by_name);
        }
        for (&local, owners) in self.values().iter() {
            assert_eq!(**owners, *rebuilt.attr_value_owners(local), "value map");
        }
    }
}

fn arena_full() -> XmlError {
    XmlError::new(XmlErrorKind::ArenaFull, 0, 0)
}

/// Builds a [`FrozenTree`] by appending events in pre-order — the parser
/// emits straight into this, so a parsed document lands frozen without ever
/// taking the pointer-shaped detour.
#[derive(Debug, Default)]
pub(crate) struct FrozenBuilder {
    recs: Vec<FrozenRec>,
    /// Positions of currently open containers (document/elements).
    open: Vec<u32>,
}

impl FrozenBuilder {
    pub fn new() -> Self {
        FrozenBuilder::default()
    }

    fn push_rec(&mut self, kind: NodeKind) -> Result<u32, XmlError> {
        if self.recs.len() >= u32::MAX as usize {
            return Err(arena_full());
        }
        let pos = self.recs.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.recs.push(FrozenRec {
            kind,
            parent,
            subtree_end: pos + 1,
            attr_len: 0,
            kids_start: 0,
            kids_len: 0,
            depth: self.open.len() as u32,
        });
        Ok(pos)
    }

    /// Opens the document node. Must be the first event.
    pub fn open_document(&mut self) -> Result<(), XmlError> {
        debug_assert!(self.recs.is_empty(), "document must open first");
        let pos = self.push_rec(NodeKind::Document)?;
        self.open.push(pos);
        Ok(())
    }

    /// Opens an element (as the tree root when nothing is open yet).
    pub fn open_element(&mut self, name: QName) -> Result<(), XmlError> {
        let pos = self.push_rec(NodeKind::Element(name))?;
        self.open.push(pos);
        Ok(())
    }

    /// Adds an attribute to the innermost open element. Must precede any of
    /// its content.
    pub fn attribute(&mut self, name: QName, value: Arc<str>) -> Result<(), XmlError> {
        let el = *self
            .open
            .last()
            .ok_or_else(|| XmlError::structural("attribute outside any element"))?;
        debug_assert!(
            matches!(self.recs[el as usize].kind, NodeKind::Element(_)),
            "attributes belong to elements"
        );
        debug_assert_eq!(
            self.recs.len() as u32,
            el + 1 + self.recs[el as usize].attr_len,
            "attributes must precede element content"
        );
        self.push_rec(NodeKind::Attribute(name, value))?;
        self.recs[el as usize].attr_len += 1;
        Ok(())
    }

    /// Appends a text node to the innermost open container.
    pub fn text(&mut self, text: Arc<str>) -> Result<(), XmlError> {
        self.push_rec(NodeKind::Text(text)).map(drop)
    }

    /// Appends a comment node to the innermost open container.
    pub fn comment(&mut self, text: Arc<str>) -> Result<(), XmlError> {
        self.push_rec(NodeKind::Comment(text)).map(drop)
    }

    /// Appends a processing instruction to the innermost open container.
    pub fn pi(&mut self, target: Arc<str>, data: Arc<str>) -> Result<(), XmlError> {
        self.push_rec(NodeKind::Pi(target, data)).map(drop)
    }

    /// Closes the innermost open container.
    pub fn close(&mut self) {
        let pos = self.open.pop().expect("close without open");
        self.recs[pos as usize].subtree_end = self.recs.len() as u32;
    }

    /// Finishes the build. All containers must be closed.
    pub fn finish(self) -> Result<FrozenTree, XmlError> {
        if !self.open.is_empty() {
            return Err(XmlError::structural("unclosed container in frozen build"));
        }
        if self.recs.is_empty() {
            return Err(XmlError::structural("empty frozen build"));
        }
        Ok(FrozenTree::from_recs(self.recs))
    }
}

/// An O(1) snapshot of a frozen tree: one `Arc` bump, no node copies. Adopt
/// it into any [`crate::Store`] with [`crate::Store::adopt`] — the records
/// (and all string payloads) stay shared.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    pub(crate) tree: Arc<FrozenTree>,
}

impl TreeSnapshot {
    /// Number of nodes in the snapshot (attributes included).
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Estimated heap bytes the snapshot keeps alive (see
    /// [`FrozenTree::retained_bytes`]) — the unit a byte-budgeted document
    /// cache accounts admissions and evictions in.
    pub fn byte_size(&self) -> usize {
        self.tree.retained_bytes()
    }

    /// `true` when both snapshots share the same underlying record table —
    /// the witness that snapshotting copied nothing.
    pub fn ptr_eq(a: &TreeSnapshot, b: &TreeSnapshot) -> bool {
        Arc::ptr_eq(&a.tree, &b.tree)
    }
}
