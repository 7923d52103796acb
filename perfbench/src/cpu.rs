//! Pins the benchmark process to one CPU.
//!
//! Every workload hops between threads on each op: the evaluation pool's
//! workers, and for `svc_query` the client and connection threads too. On
//! a small virtual machine where a thread lands decides what a hop costs:
//! a wake-up on the same CPU is a context switch, one on another CPU an
//! inter-processor interrupt and a cold cache. Left to the scheduler, the
//! same run varied 3-5x from one run to the next. Pinning before any
//! thread starts (threads inherit the mask) makes the figures measure the
//! work each layer does; parallel speed-ups and cross-CPU hop costs are
//! out of this benchmark's scope.

const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it starts later) to the
/// last CPU it may run on; returns that CPU, or `None` if the kernel
/// refused either call.
pub fn pin_to_one() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}
