//! Machine-speed calibration.
//!
//! On a shared machine the same work can take up to 1.7× longer from
//! one minute to the next, as other tenants load the host. A fixed
//! loop compiled into the benchmark (so no change to the program can
//! touch it) is timed next to the measured work; its time relative to
//! [`NOMINAL_MS`] gives the machine's speed at that moment. The
//! end-to-end timings are scaled by that factor: they are the times
//! the same work takes on the machine in its usual state.
//!
//! The loop does what contention slows most in the measured work: a
//! B-tree built and searched (allocation and pointer chasing) and
//! reads that miss the cache in a 4 MiB table. Contention from other
//! tenants slows cache-bound code more than arithmetic, so a loop of
//! arithmetic under-corrects.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The calibration loop's median time on the reference machine (see
/// the README), ms.
pub const NOMINAL_MS: f64 = 1.0;

/// Times one run of the calibration loop (about 1 ms). Returns ms.
#[must_use]
pub fn loop_ms() -> f64 {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..1u32 << 19).map(f64::from).collect());
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..2048 {
        let k = next() & 0xFFFF;
        map.insert(k, k as f64);
    }
    let mut acc = 0f64;
    for _ in 0..8_000 {
        if let Some(v) = map.get(&(next() & 0xFFFF)) {
            acc += v;
        }
    }
    let mask = table.len() - 1;
    for _ in 0..40_000 {
        acc += table[(next() as usize) & mask];
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The scale factor for work timed next to calibration samples `ms`:
/// nominal ÷ their median (1 when there are none).
#[must_use]
pub fn factor(ms: &[f64]) -> f64 {
    if ms.is_empty() {
        return 1.0;
    }
    NOMINAL_MS / crate::metrics::median(ms)
}
