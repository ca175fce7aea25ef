//! Pins the durable protocol's on-medium bytes: for fresh durable runs
//! on a `MemMedium`, the exact checkpoint-manifest bytes (checkpoint
//! placement and journal watermarks) and the journal's intent/commit
//! counts, for every durable executor shape — the synchronous walk,
//! the pipelined walk without workers and with one worker plus
//! write-behind, and the parallel walk at two shards.
//!
//! Resume depends on these records landing at exactly these
//! `(nest, step, watermark)` points, so any executor refactor must
//! reproduce them byte for byte.

use ooc_opt::core::recovery::{run_functional_durable, DurabilityConfig, MemMedium};
use ooc_opt::core::tiling::{TiledProgram, TilingStrategy};
use ooc_opt::core::{optimize, FunctionalConfig, OptimizeOptions, ParallelConfig, PipelineConfig};
use ooc_opt::ir::{ArrayId, ArrayRef, Expr, LoopNest, Program, Statement};
use ooc_opt::kernels::{compile, kernel_by_name, Version};
use ooc_opt::runtime::parse_journal;

/// The paper's two-nest running example: U = V^T + 1, then V = W^T + 2.
fn paper_example() -> TiledProgram {
    let mut p = Program::new(&["N"]);
    let u = p.declare_array("U", 2, 0);
    let v = p.declare_array("V", 2, 0);
    let w = p.declare_array("W", 2, 0);
    let transposed = |a| {
        Box::new(Expr::Ref(ArrayRef::new(
            a,
            &[vec![0, 1], vec![1, 0]],
            vec![0, 0],
        )))
    };
    let s1 = Statement::assign(
        ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
        Expr::Add(transposed(v), Box::new(Expr::Const(1.0))),
    );
    p.add_nest(LoopNest::rectangular("nest1", 2, 1, 0, vec![s1]));
    let s2 = Statement::assign(
        ArrayRef::new(v, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
        Expr::Add(transposed(w), Box::new(Expr::Const(2.0))),
    );
    p.add_nest(LoopNest::rectangular("nest2", 2, 1, 0, vec![s2]));
    let opt = optimize(&p, &OptimizeOptions::default());
    TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore)
}

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    (a.0 as f64 + 1.0) * 1000.0 + idx.iter().fold(0.0, |acc, &x| acc * 17.0 + x as f64)
}

/// The durable executor shapes the protocol must hold on.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Sync,
    PipelinedNoWorkers,
    PipelinedWriteBehind,
    ParallelTwoShards,
}

const SHAPES: [Shape; 4] = [
    Shape::Sync,
    Shape::PipelinedNoWorkers,
    Shape::PipelinedWriteBehind,
    Shape::ParallelTwoShards,
];

fn pipeline(workers: usize, depth: usize, write_behind: bool) -> PipelineConfig {
    PipelineConfig {
        functional: FunctionalConfig::with_fraction(16),
        workers,
        prefetch_depth: depth,
        cache_capacity: None,
        write_behind,
    }
}

/// Runs `tp` durably from scratch in `shape` and returns the manifest
/// text plus the journal's `(intents, commits)` as parsed back from
/// the medium.
fn protocol(tp: &TiledProgram, params: &[i64], shape: Shape) -> (String, u64, u64) {
    let dur = DurabilityConfig::default();
    let mut medium = MemMedium::new();
    let (intents, commits) = match shape {
        Shape::Sync => {
            let out = run_functional_durable(
                tp,
                params,
                &seed,
                &FunctionalConfig::with_fraction(16),
                &dur,
                &mut medium,
                &|_| None,
            )
            .expect("sync durable run");
            (out.report.journal_intents, out.report.journal_commits)
        }
        Shape::PipelinedNoWorkers | Shape::PipelinedWriteBehind => {
            let cfg = match shape {
                Shape::PipelinedNoWorkers => pipeline(0, 0, false),
                _ => pipeline(1, 2, true),
            };
            let out = run_functional_durable(tp, params, &seed, &cfg, &dur, &mut medium, &|_| None)
                .expect("pipelined durable run");
            (out.report.journal_intents, out.report.journal_commits)
        }
        Shape::ParallelTwoShards => {
            let cfg = ParallelConfig {
                pipeline: pipeline(1, 2, true),
                shards: 2,
            };
            let out = run_functional_durable(tp, params, &seed, &cfg, &dur, &mut medium, &|_| None)
                .expect("parallel durable run");
            (out.report.journal_intents, out.report.journal_commits)
        }
    };
    let scan = parse_journal(&medium.journal_bytes());
    assert!(!scan.torn_tail, "{shape:?}: fresh journal has a torn tail");
    assert_eq!(
        (
            scan.intents().len() as u64,
            scan.committed_seqs().len() as u64
        ),
        (intents, commits),
        "{shape:?}: report disagrees with the journal on the medium"
    );
    let manifest = String::from_utf8(medium.manifest_bytes()).expect("manifest is text");
    (manifest, intents, commits)
}

fn check(tp: &TiledProgram, params: &[i64], expected: [(&str, u64, u64); 4]) {
    for (shape, (manifest, intents, commits)) in SHAPES.into_iter().zip(expected) {
        let got = protocol(tp, params, shape);
        assert_eq!(
            got,
            (manifest.to_string(), intents, commits),
            "{shape:?}: durable protocol bytes moved"
        );
    }
}

/// The paper example at N = 10: five tile rows per nest, one
/// iteration, so every serial shape checkpoints every second row.
const PAPER_SERIAL: &str = "\
S 0
K 0 2 2
K 0 4 4
K 0 6 6
K 0 8 8
K 0 10 10
K 1 0 10
K 1 2 12
K 1 4 14
K 1 6 16
K 1 8 18
K 1 10 20
K 2 0 20
";

/// Both paper nests shard, so checkpoints land on iteration barriers.
const PAPER_PARALLEL: &str = "\
S 0
K 0 10 10
K 1 0 10
K 1 10 20
K 2 0 20
";

/// mxm c-opt, synchronous walk: row accounting restarts with every
/// iteration of a nest.
const MXM_SYNC: &str = "\
S 0
K 0 16 16
K 0 32 32
K 0 48 48
K 0 64 64
K 0 72 72
K 0 88 88
K 0 104 104
K 0 120 120
K 0 128 128
K 0 144 144
K 0 160 160
K 0 176 176
K 0 192 192
K 1 0 192
K 1 2 194
K 1 4 196
K 1 6 198
K 1 8 200
K 1 9 201
K 1 11 203
K 1 13 205
K 1 15 207
K 1 16 208
K 1 18 210
K 1 20 212
K 1 22 214
K 1 24 216
K 2 0 216
K 2 2 218
K 2 4 220
K 2 6 222
K 2 8 224
K 2 9 225
K 2 11 227
K 2 13 229
K 2 15 231
K 2 16 232
K 2 18 234
K 2 20 236
K 2 22 238
K 2 24 240
K 3 0 240
";

/// mxm c-opt, pipelined walk: row accounting runs across iterations,
/// so a row checkpoint can coincide with an iteration checkpoint.
const MXM_PIPELINED: &str = "\
S 0
K 0 16 16
K 0 32 32
K 0 48 48
K 0 64 64
K 0 64 64
K 0 80 80
K 0 96 96
K 0 112 112
K 0 128 128
K 0 128 128
K 0 144 144
K 0 160 160
K 0 176 176
K 0 192 192
K 1 0 192
K 1 2 194
K 1 4 196
K 1 6 198
K 1 8 200
K 1 8 200
K 1 10 202
K 1 12 204
K 1 14 206
K 1 16 208
K 1 16 208
K 1 18 210
K 1 20 212
K 1 22 214
K 1 24 216
K 2 0 216
K 2 2 218
K 2 4 220
K 2 6 222
K 2 8 224
K 2 8 224
K 2 10 226
K 2 12 228
K 2 14 230
K 2 16 232
K 2 16 232
K 2 18 234
K 2 20 236
K 2 22 238
K 2 24 240
K 3 0 240
";

/// mxm c-opt at two shards: iteration barriers only.
const MXM_PARALLEL: &str = "\
S 0
K 0 64 64
K 0 128 128
K 0 192 192
K 1 0 192
K 1 8 200
K 1 16 208
K 1 24 216
K 2 0 216
K 2 8 224
K 2 16 232
K 2 24 240
K 3 0 240
";

#[test]
fn paper_example_durable_protocol_is_pinned() {
    check(
        &paper_example(),
        &[10],
        [
            (PAPER_SERIAL, 20, 20),
            (PAPER_SERIAL, 20, 20),
            (PAPER_SERIAL, 20, 20),
            (PAPER_PARALLEL, 20, 20),
        ],
    );
}

#[test]
fn mxm_c_opt_durable_protocol_is_pinned() {
    let k = kernel_by_name("mxm").expect("mxm kernel");
    let cv = compile(&k, Version::COpt);
    check(
        &cv.tiled,
        &k.small_params,
        [
            (MXM_SYNC, 240, 240),
            (MXM_PIPELINED, 240, 240),
            (MXM_PIPELINED, 240, 240),
            (MXM_PARALLEL, 240, 240),
        ],
    );
}
