//! The host-speed reference: a fixed piece of harness-owned work, timed
//! beside every iteration.
//!
//! The host this benchmark was written on changes speed under it — by 30 %
//! for seconds at a time, by 2x for minutes (README, "Noise") — with the
//! guest's other CPU idle and no steal time reported, so nothing measured
//! inside one process sees through it except a second measurement of known
//! work taken at the same moment. Wall time is therefore expressed in
//! *reference seconds*: seconds the host would have needed had it run the
//! kernel below at its reference pace.
//!
//! The kernel uses only `std` and shares no code with the program under
//! test, so no change to the repo can move it; it mixes the kinds of work
//! the workloads do (ordered-map and heap traffic, small `String`
//! allocations, buffer copies).

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the builder's box when the host is undisturbed (the fastest
/// percent of ~4 600 readings taken inside benchmark runs). Only a scale: it
/// makes a reference second equal a wall second on that box at its best.
const REFERENCE_NS: f64 = 800_000.0;

/// One timed pass of the reference kernel, in ns (about 0.8 ms).
pub fn reading() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let payload = vec![7u8; 512];
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..4000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(format!("k{}", x % 512), format!("v{i}"));
        heap.push((x % 100_000, i));
        if i % 2 == 1 {
            black_box(heap.pop());
        }
        black_box(payload.clone());
    }
    black_box((map.len(), heap.len()));
    t.elapsed().as_nanos() as f64
}

/// The host's speed between two readings relative to the reference: 1.0 =
/// reference pace, 0.5 = the host ran everything twice as slowly.
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_NS / ((before + after) / 2.0)
}
