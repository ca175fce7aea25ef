//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded only from this crate, around the calls it makes
//! into each layer of the system (the program's own `ooc-trace`
//! session stays off). Every span carries its layer, start and end
//! (nanoseconds since the recorder's epoch), its parent span on the
//! same thread, the cell being run and the recording thread. Each
//! thread appends to its own buffer; [`drain`] collects them all.
//!
//! [`fold`] turns a pass's spans into a per-layer self-time table:
//! self time is a span's duration minus the time its children on the
//! same thread cover. On the main thread the self times of all layers
//! plus the untraced remainder (pass time no top-level span covers)
//! add up exactly to the pass wall-clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The backend under a wrapped data store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// `MemStore`.
    Mem,
    /// `FileStore` (plain or as a durable medium's data file).
    File,
    /// `StripedStore` over in-memory parts, with a parity lane.
    Striped,
}

/// What a span covers: one call from the benchmark into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One timed cell, as the harness runs it (its glue is the self
    /// time left after the layer calls below).
    Cell,
    /// `ooc_kernels::compile` (optimizer + tiling).
    Compile,
    /// `ooc_core::build_workload` (the analytic tile walk).
    BuildWorkload,
    /// `pfs_sim::PfsSim::simulate`.
    PfsSim,
    /// An executor entry point (`run_functional_on`, `exec_pipelined`,
    /// `exec_parallel`, `run_functional_durable`).
    Exec,
    /// A data-plane store read.
    StoreRead(Backend),
    /// A data-plane store write.
    StoreWrite(Backend),
    /// A checksum sidecar read or write.
    Sidecar,
    /// A journal or manifest log call.
    Journal,
    /// The output check against the reference.
    Check,
}

impl Layer {
    /// The row of the self-time table this layer folds into.
    #[must_use]
    pub fn row(self) -> &'static str {
        match self {
            Layer::Cell => "cell",
            Layer::Compile => "compile",
            Layer::BuildWorkload => "build_workload",
            Layer::PfsSim => "pfs_sim",
            Layer::Exec => "exec",
            Layer::StoreRead(_) | Layer::StoreWrite(_) => "store",
            Layer::Sidecar => "sidecar",
            Layer::Journal => "journal",
            Layer::Check => "check",
        }
    }

    /// Every row of the self-time table, in report order.
    pub const ROWS: [&'static str; 9] = [
        "cell",
        "compile",
        "build_workload",
        "pfs_sim",
        "exec",
        "store",
        "sidecar",
        "journal",
        "check",
    ];
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start, ns since the recorder epoch.
    pub start: u64,
    /// End, ns since the recorder epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<u32>,
    /// The cell being run when the span opened.
    pub cell: u32,
    /// Recording thread (0 = the thread that called [`set_main`]).
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CELL: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u32,
    buf: Buffer,
    open: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let local = l.get_or_insert_with(|| {
            let buf: Buffer = Arc::default();
            BUFFERS.lock().expect("span buffers").push(Arc::clone(&buf));
            Local {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                buf,
                open: Vec::new(),
            }
        });
        f(local)
    })
}

/// Marks the calling thread as the main thread (thread id 0).
pub fn set_main() {
    let _ = epoch();
    with_local(|l| l.thread = 0);
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the cell id stamped on spans opened from now on, on any thread.
pub fn set_cell(cell: u32) {
    CELL.store(cell, Ordering::Relaxed);
}

/// Nanoseconds since the recorder epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; closes when dropped.
#[must_use]
pub struct Guard {
    idx: Option<u32>,
}

/// Opens a span for `layer` when recording is on (a no-op otherwise).
pub fn enter(layer: Layer) -> Guard {
    if !enabled() {
        return Guard { idx: None };
    }
    let idx = with_local(|l| {
        let mut buf = l.buf.lock().expect("span buffer");
        let idx = u32::try_from(buf.len()).expect("span count");
        buf.push(Span {
            layer,
            start: now_ns(),
            end: 0,
            parent: l.open.last().copied(),
            cell: CELL.load(Ordering::Relaxed),
            thread: l.thread,
        });
        drop(buf);
        l.open.push(idx);
        idx
    });
    Guard { idx: Some(idx) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = now_ns();
            with_local(|l| {
                l.buf.lock().expect("span buffer")[idx as usize].end = end;
                let top = l.open.pop();
                debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
            });
        }
    }
}

/// Takes every span recorded so far, on every thread, leaving the
/// buffers empty. Call only while no span is open.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut out = Vec::new();
    let mut buffers = BUFFERS.lock().expect("span buffers");
    for buf in buffers.iter() {
        out.append(&mut buf.lock().expect("span buffer"));
    }
    // Buffers of threads that have exited hold the only other handle.
    buffers.retain(|buf| Arc::strong_count(buf) > 1);
    out
}

/// A pass's spans folded into self time per layer.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// Main-thread self time per table row, ns.
    pub main_self: Vec<(&'static str, u64)>,
    /// Pass time no main-thread top-level span covers, ns.
    pub untraced: u64,
    /// The pass wall-clock the fold was taken against, ns.
    pub wall: u64,
    /// Busy time per layer summed over all threads (span durations,
    /// not self time), ns.
    pub busy: Vec<(Layer, u64)>,
    /// Busy time per layer on threads other than the main one, ns.
    pub off_main: Vec<(Layer, u64)>,
}

impl Fold {
    /// Main-thread self time of one table row, ns.
    #[must_use]
    pub fn self_ns(&self, row: &str) -> u64 {
        self.main_self
            .iter()
            .find(|(r, _)| *r == row)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Total span duration of layers matching `pred`, all threads, ns.
    #[must_use]
    pub fn busy_ns(&self, pred: impl Fn(Layer) -> bool) -> u64 {
        self.busy
            .iter()
            .filter(|(l, _)| pred(*l))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Σ main-thread self time + untraced remainder, ns; equals
    /// [`Fold::wall`] when the spans nest properly inside the pass.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.main_self.iter().map(|(_, ns)| ns).sum::<u64>() + self.untraced
    }
}

fn add<K: PartialEq>(v: &mut Vec<(K, u64)>, k: K, ns: u64) {
    match v.iter_mut().find(|(key, _)| *key == k) {
        Some((_, total)) => *total += ns,
        None => v.push((k, ns)),
    }
}

/// Folds the spans of one pass that ran from `pass_start` to
/// `pass_end` (recorder ns) into a self-time table. Spans must come
/// from [`drain`], so parent indices refer to positions within each
/// thread's run of spans in recording order.
#[must_use]
pub fn fold(spans: &[Span], pass_start: u64, pass_end: u64) -> Fold {
    let mut out = Fold {
        main_self: Layer::ROWS.iter().map(|r| (*r, 0)).collect(),
        wall: pass_end - pass_start,
        ..Fold::default()
    };
    // Group by thread, keeping each thread's recording order so the
    // parent indices stay valid.
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut top_level = 0u64;
    for t in threads {
        let own: Vec<&Span> = spans.iter().filter(|s| s.thread == t).collect();
        let mut child_cover = vec![0u64; own.len()];
        for s in &own {
            if let Some(p) = s.parent {
                child_cover[p as usize] += s.dur();
            }
        }
        for (i, s) in own.iter().enumerate() {
            add(&mut out.busy, s.layer, s.dur());
            if t == 0 {
                add(
                    &mut out.main_self,
                    s.layer.row(),
                    s.dur().saturating_sub(child_cover[i]),
                );
                if s.parent.is_none() {
                    top_level += s.dur();
                }
            } else {
                add(&mut out.off_main, s.layer, s.dur());
            }
        }
    }
    out.untraced = out.wall.saturating_sub(top_level);
    out
}
