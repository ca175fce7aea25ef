//! The workloads' cells: what each one runs, its set-up (compiled
//! program, reference output, iteration points, temp dir) and one
//! timed, checked execution of it.

use crate::spans::{self, Backend, Layer};
use crate::wrap::{self, Counts, Probe, TimedMedium, TimedStore};
use ooc_core::{
    build_workload, exec_parallel, exec_pipelined, run_functional_durable, run_functional_on,
    DirMedium, DurabilityConfig, ExecConfig, FunctionalConfig, FunctionalRun, ParallelConfig,
    PipelineConfig, TiledProgram,
};
use ooc_ir::ArrayId;
use ooc_kernels::{compile, CompiledVersion, Kernel, Version};
use ooc_linalg::LoopBounds;
use ooc_runtime::{
    FileLayout, FileStore, IoCause, IoNodePool, LedgerRecorder, MemStore, StripeConfig,
    StripedStore,
};
use ooc_sched::PipelineStats;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Processors of the paper's Table-2 machine.
pub const TABLE2_PROCS: usize = 16;

/// Stripe unit of the sharded workload's I/O nodes, in elements.
pub const STRIPE_ELEMS: u64 = 64;

/// I/O nodes of the sharded workload's parity-striped stores.
pub const IO_NODES: usize = 4;

/// How a cell drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Compile, build the analytic workload and simulate it on the
    /// Table-2 machine; no data moves.
    Price,
    /// `run_functional_on` over `MemStore`s.
    Sync,
    /// `run_functional_on` over `FileStore`s in the cell's temp dir.
    File,
    /// `run_functional_durable` on a `DirMedium` in the cell's temp dir.
    Durable,
    /// `exec_pipelined` over `FileStore`s: one prefetch worker plus
    /// write-behind.
    Pipelined,
    /// `exec_parallel` over parity-striped `MemStore`s with this many
    /// shards (per-shard prefetch off).
    Sharded(usize),
}

impl Mode {
    /// Label used in cell names.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Mode::Price => "price".into(),
            Mode::Sync => "sync".into(),
            Mode::File => "file".into(),
            Mode::Durable => "durable".into(),
            Mode::Pipelined => "pipelined".into(),
            Mode::Sharded(n) => format!("shards{n}"),
        }
    }
}

/// One cell and everything its set-up prepared.
pub struct Cell {
    /// `kernel/version/mode`.
    pub name: String,
    /// The kernel (shared by its cells).
    pub kernel: Arc<Kernel>,
    /// The program version.
    pub version: Version,
    /// How the cell runs.
    pub mode: Mode,
    /// Array extents.
    pub params: Vec<i64>,
    /// Memory = data / this fraction.
    pub memory_fraction: u64,
    /// The compiled version (executing cells; pricing cells compile
    /// inside the timed cell).
    pub compiled: Option<Arc<CompiledVersion>>,
    /// Reference output of the `ooc-ir` interpreter (executing cells).
    pub reference: Option<Arc<Vec<Vec<f64>>>>,
    /// Iteration points one run executes (executing cells).
    pub points: u64,
    /// The cell's own temp dir (file-backed cells).
    pub dir: Option<PathBuf>,
    /// Index of the cell this one is compared with: the plain-file
    /// twin of a durable cell, the 1-shard twin of a 2-shard cell.
    pub twin: Option<usize>,
    /// The cell's reference was deliberately perturbed, so its check
    /// must fail (tests of the checks themselves).
    pub perturb: bool,
}

/// What one timed execution of a cell produced.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Wall time of the cell, ms.
    pub ms: f64,
    /// Why the cell failed its checks, if it did.
    pub failure: Option<String>,
    /// Data-plane calls the wrappers saw (seeding and dump included).
    pub data: Counts,
    /// Sidecar calls the wrappers saw.
    pub sidecar: Counts,
    /// Journal and manifest appends.
    pub log_appends: u64,
    /// Journal and manifest reads and truncations.
    pub log_other: u64,
    /// Bytes appended to the journal and manifest.
    pub log_bytes: u64,
    /// Modeled (pfs-sim) seconds, pricing cells.
    pub modeled_s: f64,
    /// Modeled I/O calls, pricing cells.
    pub modeled_calls: u64,
    /// Modeled bytes, pricing cells.
    pub modeled_bytes: u64,
    /// Tile steps of the analytic walk, pricing cells.
    pub tile_steps: u64,
    /// Ops in the simulated workload, pricing cells.
    pub workload_ops: u64,
    /// Nests the optimizer transformed, pricing cells.
    pub loop_transforms: u64,
    /// Arrays not column-major, pricing cells.
    pub layout_changes: u64,
    /// Checksum chunks verified, durable cells.
    pub verified_chunks: u64,
    /// Checksum chunks recomputed, durable cells.
    pub chunk_updates: u64,
    /// Checkpoints written, durable cells.
    pub checkpoints: u64,
    /// Pipeline counters, pipelined and sharded cells.
    pub pipeline: Option<PipelineStats>,
    /// Nests that ran partitioned, sharded cells.
    pub partitioned_nests: u64,
    /// Nests that fell back to the serial path, sharded cells.
    pub serial_fallbacks: u64,
    /// Tile reads per shard, sharded cells.
    pub shard_reads: Vec<u64>,
    /// Calls per I/O node, sharded cells.
    pub node_calls: Vec<u64>,
    /// Σ queue wait over the I/O nodes, ns, sharded cells.
    pub queue_wait_ns: u64,
    /// Parity-plane write calls, sharded cells.
    pub parity_writes: u64,
    /// The output, kept for the twin comparison.
    pub output: Option<Arc<Vec<Vec<f64>>>>,
}

impl CellOut {
    fn fail(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
        }
    }
}

/// The value every array element is seeded with: array- and
/// index-dependent, mixed with the workload seed, and exactly
/// representable (a multiple of 1/64 in [1, 17)).
#[must_use]
pub fn init_value(seed: u64, a: ArrayId, idx: &[i64]) -> f64 {
    let mut h =
        (a.0 as u64 + 1).wrapping_mul(2_654_435_761) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add((x as u64).wrapping_mul(17));
    }
    ((h >> 7) % 1009) as f64 / 64.0 + 1.0
}

/// Paper parameters divided by `div` (floor 8).
#[must_use]
pub fn scaled(kernel: &Kernel, div: i64) -> Vec<i64> {
    kernel
        .paper_params
        .iter()
        .map(|&n| (n / div.max(1)).max(8))
        .collect()
}

/// Runs the original (untransformed) program on the `ooc-ir`
/// reference interpreter; returns each array in canonical row-major
/// order.
#[must_use]
pub fn reference(kernel: &Kernel, params: &[i64], seed: u64) -> Vec<Vec<f64>> {
    let prog = &kernel.program;
    let mut mem = ooc_ir::Memory::for_program(prog, params);
    for (a, decl) in prog.arrays.iter().enumerate() {
        let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(params)).collect();
        let mut idx = vec![1i64; dims.len()];
        for slot in mem.array_data_mut(ooc_ir::ArrayId(a)).iter_mut() {
            *slot = init_value(seed, ArrayId(a), &idx);
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] <= dims[d] {
                    break;
                }
                idx[d] = 1;
            }
        }
    }
    ooc_ir::execute_program(prog, &mut mem);
    (0..prog.arrays.len())
        .map(|a| mem.array_data(ooc_ir::ArrayId(a)).to_vec())
        .collect()
}

/// Iteration points one run of `tp` executes (timing iterations
/// included).
#[must_use]
pub fn iteration_points(tp: &TiledProgram, params: &[i64]) -> u64 {
    fn rec(bounds: &[LoopBounds], params: &[i64], iter: &mut Vec<i64>) -> u64 {
        let level = iter.len();
        let Some((lo, hi)) = bounds[level].eval(iter, params) else {
            return 0;
        };
        if hi < lo {
            return 0;
        }
        if level + 1 == bounds.len() {
            return u64::try_from(hi - lo + 1).unwrap_or(0);
        }
        let mut n = 0;
        for v in lo..=hi {
            iter.push(v);
            n += rec(bounds, params, iter);
            iter.pop();
        }
        n
    }
    tp.nests
        .iter()
        .map(|t| {
            let bounds = t.nest.bounds.loop_bounds();
            rec(&bounds, params, &mut Vec::new()) * u64::from(t.nest.iterations)
        })
        .sum()
}

/// Nests whose body the optimizer changed (a non-identity loop
/// transformation) and arrays whose layout is not column-major.
#[must_use]
pub fn optimizer_counts(kernel: &Kernel, cv: &CompiledVersion) -> (u64, u64) {
    let transformed = cv
        .tiled
        .nests
        .iter()
        .filter(|t| {
            kernel
                .program
                .nests
                .iter()
                .find(|n| n.name == t.nest.name)
                .is_none_or(|n| n.body != t.nest.body)
        })
        .count() as u64;
    let relaid = cv
        .tiled
        .program
        .arrays
        .iter()
        .zip(&cv.tiled.layouts)
        .filter(|(decl, layout)| **layout != FileLayout::col_major(decl.rank()))
        .count() as u64;
    (transformed, relaid)
}

/// Whether two outputs are bit-for-bit equal.
#[must_use]
pub fn bit_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs one cell once: the timed call into the system plus its checks.
/// A failing check or a panic inside the system is recorded in
/// [`CellOut::failure`]; it never aborts the run.
#[must_use]
pub fn run_cell(cell: &Cell, seed: u64, ledger: bool) -> CellOut {
    let started = Instant::now();
    let mut out = {
        let _span = spans::enter(Layer::Cell);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if cell.mode == Mode::Price {
                price(cell)
            } else {
                execute(cell, seed, ledger)
            }
        })) {
            Ok(out) => out,
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "panic".into());
                CellOut {
                    failure: Some(format!("panicked: {why}")),
                    ..CellOut::default()
                }
            }
        }
    };
    out.ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

fn price(cell: &Cell) -> CellOut {
    let mut out = CellOut::default();
    let cv = {
        let _span = spans::enter(Layer::Compile);
        compile(&cell.kernel, cell.version)
    };
    (out.loop_transforms, out.layout_changes) = optimizer_counts(&cell.kernel, &cv);
    let mut cfg = ExecConfig::new(cell.params.clone(), TABLE2_PROCS);
    cfg.interleave = cv.interleave.clone();
    let (sim, workload, report) = {
        let _span = spans::enter(Layer::BuildWorkload);
        build_workload(&cv.tiled, &cfg)
    };
    let result = {
        let _span = spans::enter(Layer::PfsSim);
        sim.simulate(&workload)
    };
    out.modeled_s = result.total_time;
    out.modeled_calls = report.io_calls;
    out.modeled_bytes = report.io_bytes;
    out.tile_steps = report.tile_steps;
    out.workload_ops = workload.per_proc.iter().map(|t| t.len() as u64).sum();
    let _span = spans::enter(Layer::Check);
    if !(out.modeled_s.is_finite() && out.modeled_s > 0.0) {
        out.fail(format!(
            "modeled time {} is not finite and positive",
            out.modeled_s
        ));
    }
    // The walk's call count is the reference the simulator must serve.
    let expected_calls = report.io_calls + u64::from(cell.perturb);
    if result.total_calls != expected_calls || result.total_bytes != report.io_bytes {
        out.fail(format!(
            "simulator served {} calls / {} bytes, the walk issued {} / {}",
            result.total_calls, result.total_bytes, expected_calls, report.io_bytes
        ));
    }
    out
}

fn functional(cell: &Cell, ledger: bool) -> FunctionalConfig {
    let cfg = FunctionalConfig::with_fraction(cell.memory_fraction);
    if ledger {
        cfg.with_ledger(LedgerRecorder::new())
    } else {
        cfg
    }
}

fn file_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.dat"))
}

/// Wraps a data store, keeping its probe.
fn tracked<S: ooc_runtime::Store>(
    probes: &mut Vec<Arc<Probe>>,
    store: S,
    backend: Backend,
) -> TimedStore<S> {
    let store = TimedStore::data(store, backend);
    probes.push(store.probe());
    store
}

fn execute(cell: &Cell, seed: u64, ledger: bool) -> CellOut {
    let mut out = CellOut::default();
    let tp = &cell
        .compiled
        .as_ref()
        .expect("executing cell is compiled")
        .tiled;
    let params = &cell.params;
    let init = move |a: ArrayId, idx: &[i64]| init_value(seed, a, idx);
    let fcfg = functional(cell, ledger);
    let mut probes: Vec<Arc<Probe>> = Vec::new();
    let result: io::Result<FunctionalRun> = match cell.mode {
        Mode::Price => unreachable!("pricing cells do not execute"),
        Mode::Sync => {
            let _span = spans::enter(Layer::Exec);
            run_functional_on(tp, params, &init, &fcfg, |_, _, len| {
                Ok(tracked(&mut probes, MemStore::new(len), Backend::Mem))
            })
        }
        Mode::File => {
            let dir = cell.dir.as_deref().expect("file cell has a dir");
            let _span = spans::enter(Layer::Exec);
            run_functional_on(tp, params, &init, &fcfg, |_, name, len| {
                let store = FileStore::create(&file_path(dir, name), len)?;
                Ok(tracked(&mut probes, store, Backend::File))
            })
        }
        Mode::Pipelined => {
            let dir = cell.dir.as_deref().expect("pipelined cell has a dir");
            let pcfg = PipelineConfig {
                functional: fcfg,
                workers: 1,
                write_behind: true,
                ..PipelineConfig::default()
            };
            let _span = spans::enter(Layer::Exec);
            exec_pipelined(tp, params, &init, &pcfg, |_, name, len| {
                let store = FileStore::create(&file_path(dir, name), len)?;
                Ok(tracked(&mut probes, store, Backend::File))
            })
            .map(|r| {
                out.pipeline = Some(r.pipeline);
                r.run
            })
        }
        Mode::Durable => {
            let dir = cell.dir.as_deref().expect("durable cell has a dir");
            let mut medium = TimedMedium::new(DirMedium::new(dir));
            let run = {
                let _span = spans::enter(Layer::Exec);
                run_functional_durable(
                    tp,
                    params,
                    &init,
                    &fcfg,
                    &DurabilityConfig::default(),
                    &mut medium,
                    &|_| None,
                )
            };
            out.sidecar = wrap::total(&medium.sidecars);
            probes.extend(medium.data.iter().cloned());
            for log in &medium.logs {
                out.log_appends += log.appends.load(Ordering::Relaxed);
                out.log_other += log.other_calls.load(Ordering::Relaxed);
                out.log_bytes += log.bytes.load(Ordering::Relaxed);
            }
            run.map(|d| {
                out.verified_chunks = d.checksum_handles.iter().map(|h| h.verified_chunks()).sum();
                out.chunk_updates = d.checksum_handles.iter().map(|h| h.chunk_updates()).sum();
                out.checkpoints = d.report.checkpoints;
                if d.report.journal_intents != d.report.journal_commits {
                    out.fail(format!(
                        "journal intents {} != commits {}",
                        d.report.journal_intents, d.report.journal_commits
                    ));
                }
                d.run
            })
        }
        Mode::Sharded(shards) => {
            let pool = IoNodePool::new(StripeConfig {
                stripe_elems: STRIPE_ELEMS,
                ..StripeConfig::with_nodes(IO_NODES)
            });
            let pcfg = ParallelConfig {
                pipeline: PipelineConfig {
                    functional: fcfg,
                    workers: 0,
                    prefetch_depth: 0,
                    cache_capacity: None,
                    write_behind: false,
                },
                shards,
            };
            let run = {
                let _span = spans::enter(Layer::Exec);
                exec_parallel(tp, params, &init, &pcfg, |_, _, len| {
                    let mem = |_, part: u64| Ok(MemStore::new(part));
                    let store = StripedStore::build_with_parity(&pool, len, mem, mem)?;
                    Ok(tracked(&mut probes, store, Backend::Striped))
                })
            };
            for node in pool.snapshot() {
                out.node_calls
                    .push(node.io.read_calls + node.io.write_calls);
                out.queue_wait_ns += node.timing.wait_ns;
                out.parity_writes += node.repair.get(IoCause::ParityWrite).write_calls;
            }
            run.map(|r| {
                for p in &r.partitions {
                    if p.serial_fallback {
                        out.serial_fallbacks += 1;
                    } else {
                        out.partitioned_nests += 1;
                    }
                }
                out.shard_reads = r
                    .shard_stats
                    .iter()
                    .map(|s| s.prefetched_reads + s.sync_reads)
                    .collect();
                out.pipeline = Some(r.pipeline);
                r.run
            })
        }
    };
    out.data = wrap::total(&probes);
    let _span = spans::enter(Layer::Check);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            out.fail(format!("executor error: {e}"));
            return out;
        }
    };
    let reference = cell
        .reference
        .as_ref()
        .expect("executing cell has a reference");
    if !bit_equal(&run.data, reference) {
        out.fail("output differs from the reference interpreter".into());
    }
    if cell.mode != Mode::Durable {
        // The wrappers' compute-phase counts against the executor's
        // analytic accounting (seeding writes and dump reads excluded).
        let stats = run.total_stats();
        let mut seen = Counts::default();
        for p in &probes {
            match p.compute_phase() {
                Some(c) => seen.add(&c),
                None => out.fail("a store never saw the compute phase start and end".into()),
            }
        }
        let analytic = Counts {
            read_calls: stats.read_calls,
            write_calls: stats.write_calls,
            read_elems: stats.read_elems,
            write_elems: stats.write_elems,
        };
        if seen != analytic {
            out.fail(format!(
                "wrapper counted {seen:?}, executor accounted {analytic:?}"
            ));
        }
    }
    if matches!(cell.mode, Mode::Sharded(_)) {
        out.output = Some(Arc::new(run.data));
    }
    out
}
