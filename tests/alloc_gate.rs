//! Heap-allocation gate for the paper's workload: one `SYSTEM_CONTEXT`
//! document through the five-phase XQuery pipeline over the 124-node model
//! of the `docgen_xq_n124` bench row (`ItScale::about(125)`, seed 42).
//!
//! Allocations are a deterministic work counter, so unlike wall-clock time
//! the ceiling holds on any host. It sits under 3% above the 151,030 that
//! one document measures with inline empty and one-item sequences, in both
//! the debug and the release build. When every one-item sequence cost two
//! allocations and every frame binding a third, the same document took
//! 508,018. An allocation per singleton that creeps back in adds tens of
//! thousands and fails here.
//!
//! This binary holds a single test so that nothing else allocates while a
//! run is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lopsided::awb::workload::{it_architecture, it_metamodel, ItScale};
use lopsided::docgen::batch::CompiledPipeline;
use lopsided::docgen::xq::XqGenerator;
use lopsided::docgen::{GenInputs, Template};
use lopsided::templates;

/// Counts every allocation and reallocation; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ceiling on the allocations of one `XqGenerator::run` (see the module
/// doc for the measured figure it is taken from).
const MAX_ALLOCATIONS_PER_DOC: u64 = 155_000;

#[test]
fn one_docgen_document_stays_under_its_allocation_ceiling() {
    let meta = it_metamodel();
    let scale = ItScale::about(125);
    assert_eq!(scale.node_count(), 124);
    let model = it_architecture(scale, 42);
    let template = Template::parse(templates::SYSTEM_CONTEXT).expect("template parses");
    let pipeline = CompiledPipeline::standard().expect("docgen pipeline compiles");
    let inputs = GenInputs {
        model: &model,
        meta: &meta,
        template: &template,
    };

    // Round 0 warms up the pool workers and every lazily built table; the
    // counted rounds after it must agree with each other.
    let mut counts = Vec::new();
    for round in 0..3 {
        let mut generator = XqGenerator::with_compiled(&inputs, &pipeline).expect("prepares");
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let out = generator.run().expect("document generates");
        let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
        let stats = out.total_stats();
        // The same work as the bench row: only the values got cheaper.
        assert_eq!(stats.items_allocated, 27_172, "items_allocated");
        assert_eq!(stats.nodes_copied, 25_801, "nodes_copied");
        if round > 0 {
            counts.push(allocations);
        }
    }
    eprintln!("heap allocations per document: {counts:?}");
    assert!(
        counts[0].abs_diff(counts[1]) <= 2,
        "the count must repeat between rounds: {counts:?}"
    );
    assert!(
        counts.iter().all(|&n| n <= MAX_ALLOCATIONS_PER_DOC),
        "{counts:?} heap allocations per document, ceiling {MAX_ALLOCATIONS_PER_DOC}"
    );
}
