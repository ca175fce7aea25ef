//! The provenance ledger stamps every event with one run-global
//! schedule step on every executor, so a region evicted at one nest's
//! barrier and re-read in a later nest carries an eviction step no
//! later than the re-read — the "eviction → re-read gap" the ledger
//! explainer reports is a real distance, never a saturated zero.

use ooc_opt::core::recovery::{
    resume_functional, run_functional_durable, DurabilityConfig, MemMedium,
};
use ooc_opt::core::{
    exec_parallel, exec_pipelined, run_functional_on, FunctionalConfig, ParallelConfig,
    PipelineConfig,
};
use ooc_opt::ir::ArrayId;
use ooc_opt::kernels::{all_kernels, compile, CompiledVersion, Kernel, Version};
use ooc_opt::runtime::{
    is_crashed, FaultConfig, FaultHandle, IoCause, LedgerRecorder, MemStore, ProvenanceLedger,
};

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

fn fcfg(rec: &LedgerRecorder) -> FunctionalConfig {
    FunctionalConfig::with_fraction(16).with_ledger(rec.clone())
}

fn pcfg(rec: &LedgerRecorder) -> PipelineConfig {
    PipelineConfig {
        functional: fcfg(rec),
        workers: 1,
        prefetch_depth: 2,
        cache_capacity: None,
        write_behind: true,
    }
}

/// Asserts every re-read — a capacity miss, or a prefetch that
/// re-staged an evicted region — comes at or after the eviction it
/// pays for; returns how many capacity misses the ledger holds.
fn assert_ordered(ledger: &ProvenanceLedger, what: &str) -> usize {
    for e in &ledger.events {
        if let Some(d) = e.evict {
            assert!(
                d.evicted_at_step <= e.step,
                "{what} [{}]: {} of region {:?} of array {} at step {} but evicted at step {}",
                ledger.executor,
                e.cause,
                e.region,
                e.array,
                e.step,
                d.evicted_at_step
            );
        }
    }
    ledger
        .events
        .iter()
        .filter(|e| e.cause == IoCause::CapacityMiss)
        .count()
}

/// Runs one compiled version through every executor with a ledger and
/// checks the step order; returns the capacity misses seen.
fn check_version(k: &Kernel, cv: &CompiledVersion, what: &str) -> usize {
    let tp = &cv.tiled;
    let params = &k.small_params;
    let mem = |_: usize, _: &str, len: u64| Ok(MemStore::new(len));
    let mut misses = 0;

    let rec = LedgerRecorder::new();
    run_functional_on(tp, params, &seed, &fcfg(&rec), mem).expect("sync run");
    misses += assert_ordered(&rec.take(), what);

    let rec = LedgerRecorder::new();
    exec_pipelined(tp, params, &seed, &pcfg(&rec), mem).expect("pipelined run");
    misses += assert_ordered(&rec.take(), what);

    let rec = LedgerRecorder::new();
    let cfg = ParallelConfig {
        pipeline: pcfg(&rec),
        shards: 2,
    };
    exec_parallel(tp, params, &seed, &cfg, mem).expect("parallel run");
    misses += assert_ordered(&rec.take(), what);

    // Durable, with every data store fault-wrapped (no faults) to learn
    // the busiest array's call count for the crash below.
    let dur = DurabilityConfig::default();
    let rec = LedgerRecorder::new();
    let out = run_functional_durable(
        tp,
        params,
        &seed,
        &fcfg(&rec),
        &dur,
        &mut MemMedium::new(),
        &|_| Some(FaultConfig::transient(7, 0)),
    )
    .expect("durable run");
    misses += assert_ordered(&rec.take(), what);

    // Crash halfway through the busiest array's calls, then resume.
    let (target, calls) = out
        .fault_handles
        .iter()
        .map(|h| h.as_ref().map_or(0, FaultHandle::calls))
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .expect("arrays");
    let mut medium = MemMedium::new();
    let err = run_functional_durable(
        tp,
        params,
        &seed,
        &FunctionalConfig::with_fraction(16),
        &dur,
        &mut medium,
        &|a| (a == target).then(|| FaultConfig::crash_at(calls / 2)),
    )
    .expect_err("crash injected");
    assert!(is_crashed(&err), "{what}: unexpected error: {err}");
    let rec = LedgerRecorder::new();
    resume_functional(tp, params, &seed, &fcfg(&rec), &dur, &mut medium, &|_| None)
        .expect("resume");
    misses += assert_ordered(&rec.take(), what);
    misses
}

#[test]
fn capacity_misses_never_precede_their_eviction() {
    let mut misses = 0;
    for k in all_kernels() {
        for v in [Version::Col, Version::COpt] {
            let cv = compile(&k, v);
            misses += check_version(&k, &cv, &format!("{} {v:?}", k.name));
        }
    }
    assert!(misses > 0, "the sweep must exercise capacity misses");
}
