//! A host-independent gate on the store's edit path: a seeded session of
//! `edit_mix`-style edits and commits on the XMark corpus, counted with the
//! store's deterministic work counters instead of a clock.
//!
//! Frozen trees are edited in place, so the session must never thaw, a
//! commit (`Store::freeze`) must have nothing to do, an attribute overwrite
//! must move no record, and the records the structural splices move must
//! add up to the exact figure pinned below. A change that doubles the
//! splice work moves that figure; so does one that falls back to thawing.

use awb::workload::{xmark_auction, XmarkScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlstore::{NodeId, QName, Store};

/// Edits in the session (a commit follows every second one).
const EDITS: usize = 200;
/// Items the edits land on.
const HOT_ITEMS: usize = 48;
/// Records the session's splices move, measured on this seed.
const RECORDS_SHIFTED: u64 = 1_926_332;

#[test]
fn in_place_edit_session_counts_exactly() {
    let corpus = xmark_auction(&XmarkScale::about(20_000), 1);
    let mut store = Store::new();
    let doc = store
        .parse_str(&corpus, &Default::default())
        .expect("corpus parses");
    // The shadow holds the same document on the thawed substrate; parsing
    // the same text gives both stores the same node ids.
    let mut shadow = Store::new();
    assert_eq!(shadow.parse_str(&corpus, &Default::default()).unwrap(), doc);
    shadow.thaw(doc);

    let all = store.descendant_elements_by_local(doc, QName::from("item").local_sym());
    let mut rng = StdRng::seed_from_u64(1);
    let items: Vec<NodeId> = (0..HOT_ITEMS)
        .map(|_| all[rng.gen_range(0..all.len())])
        .collect();
    let mut notes: Vec<Vec<NodeId>> = vec![Vec::new(); items.len()];
    let start = store.stats();
    let (mut overwrites, mut structural) = (0, 0);
    for serial in 0..EDITS {
        let i = rng.gen_range(0..items.len());
        let item = items[i];
        let before = store.stats();
        match rng.gen_range(0..4u32) {
            0 | 1 => {
                let overwrite = store.attribute_value(item, "touched").is_some();
                for s in [&mut store, &mut shadow] {
                    s.set_attribute(item, "touched", serial.to_string())
                        .unwrap();
                }
                if overwrite {
                    overwrites += 1;
                    assert_eq!(
                        store.stats().records_shifted,
                        before.records_shifted,
                        "an attribute overwrite rewrites one record in place"
                    );
                }
            }
            2 => {
                let at_per_mille = rng.gen_range(0..1000);
                let mut note = None;
                for s in [&mut store, &mut shadow] {
                    let n = s.create_element("note").unwrap();
                    s.set_attribute(n, "serial", serial.to_string()).unwrap();
                    let at = s.child_count(item) * at_per_mille / 1000;
                    s.insert_child(item, at, n).unwrap();
                    note = Some(n);
                }
                notes[i].push(note.unwrap());
                structural += 1;
            }
            _ => {
                let pick = rng.gen_range(0..1000);
                if !notes[i].is_empty() {
                    let k = pick % notes[i].len();
                    let n = notes[i].swap_remove(k);
                    store.detach(n);
                    shadow.detach(n);
                    structural += 1;
                }
            }
        }
        if serial % 2 == 1 {
            let edited = store.stats();
            store.freeze(doc).unwrap();
            assert_eq!(store.stats(), edited, "a commit has nothing to do");
        }
        assert!(store.is_frozen(doc), "edits never thaw the tree");
    }
    let end = store.stats();
    assert_eq!(end.trees_thawed, start.trees_thawed, "no edit thawed");
    assert_eq!(end.trees_frozen, start.trees_frozen, "no commit refroze");
    assert!(
        overwrites > 0 && structural > 0,
        "the mix covers both kinds"
    );
    assert_eq!(store.to_xml(doc), shadow.to_xml(doc));
    assert_eq!(
        end.records_shifted - start.records_shifted,
        RECORDS_SHIFTED,
        "records moved by {structural} splices"
    );
}
