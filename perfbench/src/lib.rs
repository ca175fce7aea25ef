//! # ooc-perfbench
//!
//! The repository's wall-clock benchmark. One process runs one named
//! workload for a given seed and time budget, checks every output,
//! and reports end-to-end metrics (untraced mode) or per-layer metrics
//! with a self-time table (traced mode). It drives the system only
//! through its public entry points and times each layer by wrapping
//! the calls it makes into that layer; see `README.md`.

pub mod calib;
pub mod cells;
pub mod metrics;
pub mod spans;
pub mod wrap;

use cells::{Cell, CellOut, Mode};
use ooc_core::{simulate, ExecConfig};
use ooc_kernels::{all_kernels, Version};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile and price every kernel × version on the Table-2 machine.
    PaperTables,
    /// The synchronous executor over `MemStore` on compute-dense kernels.
    ExecCompute,
    /// Call-heavy kernels over real files: plain, durable and pipelined.
    ExecIo,
    /// `exec_parallel` at 2 shards over parity-striped stores, each
    /// cell with its 1-shard twin.
    ExecSharded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::ExecCompute,
        Workload::ExecIo,
        Workload::ExecSharded,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper-tables",
            Workload::ExecCompute => "exec-compute",
            Workload::ExecIo => "exec-io",
            Workload::ExecSharded => "exec-sharded",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn executes(self) -> bool {
        self != Workload::PaperTables
    }
}

/// The size a workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size: passes of seconds.
    Full,
    /// A few small cells, for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the array contents and the cell order.
    pub seed: u64,
    /// Measure about this long: whole rounds of passes, as many as fit.
    pub seconds: f64,
    /// Traced mode: per-layer metrics and the self-time table.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Perturb the reference of this cell index (checks the checks).
    pub perturb: Option<usize>,
    /// Rounds run at least, whatever `seconds` says.
    pub min_rounds: usize,
    /// Where temp dirs go (a fresh subdirectory is made and removed).
    pub scratch: PathBuf,
}

impl Options {
    /// The benchmark's defaults for `workload`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
            perturb: None,
            min_rounds: 2,
            scratch: PathBuf::from(".perfbench-tmp"),
        }
    }
}

/// What a workload runs: kernels with their size divisor (paper
/// parameters ÷ divisor, floor 8), versions and modes.
struct Plan {
    kernels: Vec<(&'static str, i64)>,
    versions: &'static [Version],
    modes: &'static [Mode],
    memory_fraction: u64,
}

fn plan(workload: Workload, size: Size) -> Plan {
    use Version::{COpt, Col, Row};
    let full = match workload {
        Workload::PaperTables => Plan {
            kernels: [
                "mat", "mxm", "adi", "vpenta", "btrix", "emit", "syr2k", "htribk", "gfunp", "trans",
            ]
            .map(|k| (k, 32))
            .to_vec(),
            versions: &Version::ALL,
            modes: &[Mode::Price],
            memory_fraction: 128,
        },
        Workload::ExecCompute => Plan {
            kernels: vec![("mat", 256), ("mxm", 256), ("syr2k", 256), ("btrix", 256)],
            versions: &[Col, COpt],
            modes: &[Mode::Sync],
            memory_fraction: 16,
        },
        Workload::ExecIo => Plan {
            kernels: vec![
                ("vpenta", 128),
                ("trans", 128),
                ("gfunp", 128),
                ("htribk", 128),
            ],
            versions: &[Col, Row, COpt],
            modes: &[Mode::File, Mode::Durable, Mode::Pipelined],
            memory_fraction: 128,
        },
        Workload::ExecSharded => Plan {
            kernels: vec![
                ("mat", 256),
                ("syr2k", 256),
                ("gfunp", 128),
                ("trans", 128),
                ("vpenta", 128),
            ],
            versions: &[Col, COpt],
            modes: &[Mode::Sharded(1), Mode::Sharded(2)],
            memory_fraction: 16,
        },
    };
    match size {
        Size::Full => full,
        // Two kernels (the first and the last, so the sharded workload
        // keeps a serial fallback), two versions, small extents.
        Size::Tiny => Plan {
            kernels: vec![
                (full.kernels[0].0, 512),
                (full.kernels[full.kernels.len() - 1].0, 512),
            ],
            versions: if full.versions.len() > 2 {
                &[Col, COpt]
            } else {
                full.versions
            },
            ..full
        },
    }
}

/// Everything a run's set-up prepared.
pub struct Setup {
    /// The timed cells, in definition order.
    pub cells: Vec<Cell>,
    /// Geometric mean of the modeled seconds of the executed programs
    /// (executing workloads; pricing cells model their own).
    pub modeled_s_geomean: Option<f64>,
    /// Time spent compiling the executed programs, ms.
    pub compile_ms: f64,
    /// Non-identity loop transformations among the compiled programs.
    pub loop_transforms: u64,
    /// Arrays not column-major among the compiled programs.
    pub layout_changes: u64,
    /// The run's temp dir, removed on drop.
    scratch: Scratch,
}

/// A temp dir removed when dropped.
struct Scratch(Option<PathBuf>);

impl Scratch {
    fn new(root: &Path, tag: usize) -> std::io::Result<Scratch> {
        let dir = root.join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(Some(dir)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(dir) = self.0.take() {
            let _ = std::fs::remove_dir_all(&dir);
            // Remove the shared root too once no other run uses it.
            if let Some(root) = dir.parent() {
                let _ = std::fs::remove_dir(root);
            }
        }
    }
}

/// Builds the workload's cells: the kernel catalog, compiled programs
/// and reference outputs for executing workloads, and temp dirs.
///
/// # Errors
/// Fails when a temp dir cannot be made or a kernel name is unknown.
fn setup(opts: &Options, tag: usize) -> std::io::Result<Setup> {
    let plan = plan(opts.workload, opts.size);
    let scratch = Scratch::new(&opts.scratch, tag)?;
    let catalog: Vec<Arc<ooc_kernels::Kernel>> = all_kernels().into_iter().map(Arc::new).collect();
    let mut out = Setup {
        cells: Vec::new(),
        modeled_s_geomean: None,
        compile_ms: 0.0,
        loop_transforms: 0,
        layout_changes: 0,
        scratch,
    };
    let mut log_modeled = Vec::new();
    for &(name, div) in &plan.kernels {
        let kernel = catalog
            .iter()
            .find(|k| k.name == name)
            .cloned()
            .ok_or_else(|| std::io::Error::other(format!("unknown kernel {name}")))?;
        let params = cells::scaled(&kernel, div);
        let reference = opts
            .workload
            .executes()
            .then(|| Arc::new(cells::reference(&kernel, &params, opts.seed)));
        for &version in plan.versions {
            let compiled = opts.workload.executes().then(|| {
                let t = Instant::now();
                let cv = Arc::new(ooc_kernels::compile(&kernel, version));
                out.compile_ms += t.elapsed().as_secs_f64() * 1e3;
                let (lt, lc) = cells::optimizer_counts(&kernel, &cv);
                out.loop_transforms += lt;
                out.layout_changes += lc;
                let mut cfg = ExecConfig::new(params.clone(), 1);
                cfg.memory_fraction = plan.memory_fraction;
                cfg.interleave = cv.interleave.clone();
                log_modeled.push(simulate(&cv.tiled, &cfg).result.total_time.ln());
                cv
            });
            let points = compiled
                .as_ref()
                .map_or(0, |cv| cells::iteration_points(&cv.tiled, &params));
            let first = out.cells.len();
            for &mode in plan.modes {
                let idx = out.cells.len();
                let dir = match mode {
                    Mode::File | Mode::Durable | Mode::Pipelined => {
                        let dir = out
                            .scratch
                            .0
                            .as_ref()
                            .expect("scratch")
                            .join(format!("c{idx}"));
                        std::fs::create_dir_all(&dir)?;
                        Some(dir)
                    }
                    _ => None,
                };
                let twin = match mode {
                    Mode::Durable => Some(first),
                    Mode::Sharded(n) if n > 1 => Some(first),
                    _ => None,
                };
                let perturb = opts.perturb == Some(idx);
                let mut reference = reference.clone();
                if let (true, Some(r)) = (perturb, &mut reference) {
                    Arc::make_mut(r)[0][0] += 1.0;
                }
                out.cells.push(Cell {
                    name: format!("{}/{}/{}", kernel.name, version.label(), mode.label()),
                    kernel: Arc::clone(&kernel),
                    version,
                    mode,
                    params: params.clone(),
                    memory_fraction: plan.memory_fraction,
                    compiled: compiled.clone(),
                    reference,
                    points,
                    dir,
                    twin,
                    perturb,
                });
            }
        }
    }
    if !log_modeled.is_empty() {
        out.modeled_s_geomean =
            Some((log_modeled.iter().sum::<f64>() / log_modeled.len() as f64).exp());
    }
    Ok(out)
}

/// The largest share of a run's time that repeated set-ups may take.
pub const SETUP_SHARE: f64 = 0.2;

/// What a pass ran with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// No spans, no ledger: the end-to-end numbers.
    Plain,
    /// The span recorder on.
    Traced,
    /// A provenance ledger attached to every executor run.
    Ledger,
}

/// One pass over every cell.
pub struct Pass {
    /// What the pass ran with.
    pub kind: PassKind,
    /// Wall-clock of the pass, ns, calibration excluded.
    pub wall_ns: u64,
    /// Machine-speed factor of the pass ([`calib::factor`] of the
    /// calibration samples taken before every cell; 1 when the pass
    /// took none).
    pub speed: f64,
    /// Per cell, in definition order.
    pub outs: Vec<CellOut>,
    /// The self-time fold (traced passes).
    pub fold: Option<spans::Fold>,
    /// Off-main-thread store time of pipelined cells, ns (traced passes).
    pub prefetch_worker_ns: u64,
}

/// A small deterministic generator for the cell order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed ^ 0x2545_F491_4F6C_DD1D;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

fn clear_dir(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

/// Runs every cell once, in a seeded order.
#[must_use]
fn run_pass(setup: &Setup, seed: u64, number: u64, kind: PassKind) -> Pass {
    let traced = kind == PassKind::Traced;
    let order = shuffled(
        setup.cells.len(),
        seed.wrapping_add(number.wrapping_mul(0x9E37)),
    );
    let mut outs: Vec<CellOut> = vec![CellOut::default(); setup.cells.len()];
    let _ = spans::drain();
    spans::set_enabled(traced);
    let t0 = spans::now_ns();
    let started = Instant::now();
    // Untraced passes time the calibration loop before every cell and
    // after the last one; its time is kept out of the pass wall.
    let calibrate = kind == PassKind::Plain;
    let mut calibration: Vec<f64> = Vec::new();
    for i in order {
        if calibrate {
            calibration.push(calib::loop_ms());
        }
        let cell = &setup.cells[i];
        spans::set_cell(u32::try_from(i).expect("cell count"));
        outs[i] = cells::run_cell(cell, seed, kind == PassKind::Ledger);
        if let Some(dir) = &cell.dir {
            clear_dir(dir);
        }
    }
    if calibrate {
        calibration.push(calib::loop_ms());
    }
    let calibration_ns = (calibration.iter().sum::<f64>() * 1e6) as u64;
    let wall_ns = u64::try_from(started.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .saturating_sub(calibration_ns);
    let t1 = t0 + wall_ns;
    spans::set_enabled(false);
    let (fold, prefetch_worker_ns) = if traced {
        let all = spans::drain();
        let worker: u64 = all
            .iter()
            .filter(|s| {
                s.thread != 0
                    && matches!(
                        s.layer,
                        spans::Layer::StoreRead(_) | spans::Layer::StoreWrite(_)
                    )
                    && setup.cells[s.cell as usize].mode == Mode::Pipelined
            })
            .map(spans::Span::dur)
            .sum();
        (Some(spans::fold(&all, t0, t1)), worker)
    } else {
        (None, 0)
    };
    // Twin checks: a 2-shard run must equal its 1-shard twin.
    for (i, cell) in setup.cells.iter().enumerate() {
        if let (Mode::Sharded(_), Some(t)) = (cell.mode, cell.twin) {
            let equal = match (&outs[i].output, &outs[t].output) {
                (Some(a), Some(b)) => cells::bit_equal(a, b),
                _ => outs[i].failure.is_some() || outs[t].failure.is_some(),
            };
            if !equal && outs[i].failure.is_none() {
                outs[i].failure = Some(format!(
                    "output differs from its twin {}",
                    setup.cells[t].name
                ));
            }
        }
    }
    for out in &mut outs {
        out.output = None;
    }
    Pass {
        kind,
        wall_ns,
        speed: calib::factor(&calibration),
        outs,
        fold,
        prefetch_worker_ns,
    }
}

/// A whole run: set-ups, passes and their checks.
pub struct Run {
    /// The settings.
    pub opts: Options,
    /// Each set-up's duration, s (the first one from process start,
    /// the repeats spread through the run).
    pub setup_s: Vec<f64>,
    /// Each set-up's machine-speed factor, from calibration samples
    /// taken right after it.
    pub setup_speed: Vec<f64>,
    /// The kept set-up.
    pub setup: Setup,
    /// Every pass, in run order.
    pub passes: Vec<Pass>,
    /// Cells run.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Traced passes whose self-time table did not add up to the wall.
    pub conservation_errors: u64,
}

/// The machine-speed factor right after a set-up (median of three
/// calibration samples).
fn setup_factor() -> f64 {
    calib::factor(&[calib::loop_ms(), calib::loop_ms(), calib::loop_ms()])
}

/// Runs the workload: a set-up, then rounds of passes until
/// `opts.seconds` have passed, repeating the set-up between rounds
/// while set-ups take at most [`SETUP_SHARE`] of the run. A plain round
/// is one untraced pass; a traced round is an untraced, a traced and
/// (executing workloads) a ledger pass. Failed cells are named on
/// stderr; they never abort the run.
///
/// # Errors
/// Fails when set-up fails.
pub fn run(opts: &Options, process_start: Instant) -> std::io::Result<Run> {
    spans::set_main();
    let mut setup = self::setup(opts, 0)?;
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    let mut setup_speed = vec![setup_factor()];
    let kinds: &[PassKind] = match (opts.trace, opts.workload.executes()) {
        (false, _) => &[PassKind::Plain],
        (true, false) => &[PassKind::Plain, PassKind::Traced],
        (true, true) => &[PassKind::Plain, PassKind::Traced, PassKind::Ledger],
    };
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut expected_calls: BTreeMap<usize, u64> = BTreeMap::new();
    let (mut attempted, mut failed, mut conservation_errors) = (0, 0, 0);
    // Whole rounds only: stop once another round of typical length
    // would overrun the budget.
    let mut round_s: Vec<f64> = Vec::new();
    while round_s.len() < opts.min_rounds.max(1)
        || started.elapsed().as_secs_f64() + metrics::median(&round_s) <= opts.seconds
    {
        let round_start = Instant::now();
        for &kind in kinds {
            let number = passes.len() as u64;
            let mut pass = run_pass(&setup, opts.seed, number, kind);
            // Pricing cells: modeled calls repeat exactly on every pass.
            for (i, out) in pass.outs.iter_mut().enumerate() {
                if setup.cells[i].mode != Mode::Price || out.failure.is_some() {
                    continue;
                }
                match expected_calls.get(&i) {
                    Some(&want) if want != out.modeled_calls => {
                        out.failure = Some(format!(
                            "modeled {} calls, an earlier pass modeled {want}",
                            out.modeled_calls
                        ));
                    }
                    Some(_) => {}
                    None => {
                        expected_calls.insert(i, out.modeled_calls);
                    }
                }
            }
            for (i, out) in pass.outs.iter().enumerate() {
                attempted += 1;
                if let Some(why) = &out.failure {
                    failed += 1;
                    eprintln!(
                        "perfbench: FAILED cell {} (pass {number}): {why}",
                        setup.cells[i].name
                    );
                }
            }
            if let Some(fold) = &pass.fold {
                if fold.accounted() != fold.wall {
                    conservation_errors += 1;
                    eprintln!(
                        "perfbench: self-time table of pass {number} sums to {} ns, wall is {} ns",
                        fold.accounted(),
                        fold.wall
                    );
                }
            }
            passes.push(pass);
        }
        // Repeat the set-up between rounds while set-ups stay within
        // their share of the run, so `setup_s` is a median over
        // moments spread through the run.
        if setup_s.iter().sum::<f64>() <= SETUP_SHARE * process_start.elapsed().as_secs_f64() {
            let t = Instant::now();
            let fresh = self::setup(opts, setup_s.len())?;
            setup_s.push(t.elapsed().as_secs_f64());
            setup_speed.push(setup_factor());
            drop(std::mem::replace(&mut setup, fresh));
        }
        round_s.push(round_start.elapsed().as_secs_f64());
    }
    Ok(Run {
        opts: opts.clone(),
        setup_s,
        setup_speed,
        setup,
        passes,
        attempted,
        failed,
        conservation_errors,
    })
}
