//! Every workload at its tiny size: the traced self-time table adds up
//! to the wall-clock, a perturbed reference fails exactly one cell,
//! the printed metric names are the ones `BENCHMARK.json` declares,
//! and every count repeats exactly across seeds.

use ooc_perfbench::metrics::{self, Metric, DETERMINISTIC};
use ooc_perfbench::{run, Options, PassKind, Run, Size, Workload};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// The span recorder is process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool) -> Run {
    let mut opts = Options::new(workload, seed, 0.0, trace);
    opts.size = Size::Tiny;
    opts.min_rounds = 1;
    opts.scratch = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    run(&opts, Instant::now()).expect("tiny run")
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn traced_self_time_adds_up_to_the_pass_wall() {
    let _guard = lock();
    for w in Workload::ALL {
        let run = tiny(w, 7, true);
        assert_eq!(run.failed, 0, "{}: no cell fails", w.name());
        assert_eq!(run.conservation_errors, 0, "{}", w.name());
        let traced: Vec<_> = run
            .passes
            .iter()
            .filter(|p| p.kind == PassKind::Traced)
            .collect();
        assert!(!traced.is_empty(), "{}: a traced pass ran", w.name());
        for pass in traced {
            let fold = pass.fold.as_ref().expect("traced pass folds");
            assert_eq!(
                fold.accounted(),
                fold.wall,
                "{}: Σ self + untraced == wall",
                w.name()
            );
            assert!(
                fold.untraced < fold.wall,
                "{}: layers cover part of the pass",
                w.name()
            );
        }
        let table = metrics::self_time_table(&run);
        assert!(
            table.contains("conserved") && !table.contains("NOT"),
            "{table}"
        );
    }
}

#[test]
fn a_perturbed_reference_fails_exactly_one_cell() {
    let _guard = lock();
    for w in Workload::ALL {
        let mut opts = Options::new(w, 3, 0.0, false);
        opts.size = Size::Tiny;
        opts.min_rounds = 1;
        opts.scratch =
            std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
        opts.perturb = Some(1);
        let run = run(&opts, Instant::now()).expect("tiny run");
        assert_eq!(run.passes.len(), 1, "{}", w.name());
        assert_eq!(
            run.failed,
            1,
            "{}: exactly the perturbed cell fails",
            w.name()
        );
        assert_eq!(run.attempted, run.setup.cells.len() as u64, "{}", w.name());
        let failing: Vec<usize> = run.passes[0]
            .outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.failure.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failing, vec![1], "{}", w.name());
    }
}

/// The `"name"` values of one top-level list in `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> BTreeSet<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let _guard = lock();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    let workloads = declared(&json, "workloads");
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for w in Workload::ALL {
        let run = tiny(w, 5, true);
        assert_eq!(
            names(&metrics::end_to_end(&run)),
            end_to_end,
            "{}",
            w.name()
        );
        assert_eq!(names(&metrics::per_layer(&run)), per_layer, "{}", w.name());
    }
    for name in DETERMINISTIC {
        assert!(
            per_layer.contains(*name),
            "{name} is a declared per-layer metric"
        );
    }
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .expect("metric present")
        .value
}

#[test]
fn counts_repeat_exactly_across_seeds() {
    let _guard = lock();
    for w in Workload::ALL {
        let (a, b) = (tiny(w, 11, true), tiny(w, 12, true));
        assert_eq!((a.failed, b.failed), (0, 0), "{}", w.name());
        let (ea, eb) = (metrics::end_to_end(&a), metrics::end_to_end(&b));
        for name in ["io_calls", "io_mb", "modeled_s_geomean"] {
            assert_eq!(value(&ea, name), value(&eb, name), "{}: {name}", w.name());
        }
        let (la, lb) = (metrics::per_layer(&a), metrics::per_layer(&b));
        for name in DETERMINISTIC {
            assert_eq!(value(&la, name), value(&lb, name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn seeds_change_the_array_contents() {
    let kernel = ooc_kernels::kernel_by_name("trans").expect("trans");
    let params = ooc_perfbench::cells::scaled(&kernel, 512);
    let a = ooc_perfbench::cells::reference(&kernel, &params, 1);
    let b = ooc_perfbench::cells::reference(&kernel, &params, 2);
    assert_ne!(a, b);
}
