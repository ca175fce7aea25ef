//! Turning a [`Run`] into named metrics: end-to-end ones from the
//! untraced passes, per-layer ones from the traced passes (plus the
//! paired untraced and ledger passes of the same run).

use crate::cells::{CellOut, Mode};
use crate::spans::{Backend, Fold, Layer};
use crate::{Pass, PassKind, Run};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

const MIB: f64 = 1024.0 * 1024.0;

/// The per-layer metrics that are counts of work: they must repeat
/// exactly across passes, runs and seeds.
pub const DETERMINISTIC: &[&str] = &[
    "optimizer.loop_transforms",
    "optimizer.layout_changes",
    "sim.tile_steps",
    "sim.workload_ops",
    "store.read_calls",
    "store.write_calls",
    "store.read_mb",
    "store.write_mb",
    "sidecar.calls",
    "journal.appends",
    "journal.mb",
    "checksum.verified_chunks",
    "checksum.chunk_updates",
    "recovery.checkpoints",
    "writebehind.tiles",
    "parallel.partitioned_nests",
    "parallel.serial_fallbacks",
    "parallel.shard_imbalance",
    "striped.node_imbalance",
    "parity.write_calls",
];

/// The median of `v` (0 when empty).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` by linear interpolation between order
/// statistics (0 when empty).
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn passes(run: &Run, kind: PassKind) -> impl Iterator<Item = &Pass> {
    run.passes.iter().filter(move |p| p.kind == kind)
}

/// Median untraced pass wall, s, raw (`calibrated` false) or scaled
/// by each pass's machine-speed factor.
fn median_wall_s(run: &Run, calibrated: bool) -> f64 {
    let walls: Vec<f64> = passes(run, PassKind::Plain)
        .map(|p| p.wall_ns as f64 / 1e9 * if calibrated { p.speed } else { 1.0 })
        .collect();
    median(&walls)
}

/// Storage calls and bytes of one pass: every call the wrappers saw
/// (data, sidecar, journal, manifest), or for pricing cells the
/// modeled calls and bytes.
fn io_of(pass: &Pass) -> (f64, f64) {
    let mut calls = 0u64;
    let mut bytes = 0u64;
    for o in &pass.outs {
        calls += o.modeled_calls + o.data.calls() + o.sidecar.calls() + o.log_appends + o.log_other;
        bytes += o.modeled_bytes + o.data.bytes() + o.sidecar.bytes() + o.log_bytes;
    }
    (calls as f64, bytes as f64 / MIB)
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cell latencies (ms) of the untraced passes, each scaled by its
/// pass's machine-speed factor.
#[must_use]
pub fn cell_samples(run: &Run) -> Vec<f64> {
    passes(run, PassKind::Plain)
        .flat_map(|p| p.outs.iter().map(|o| o.ms * p.speed))
        .collect()
}

/// Set-up times, s, each scaled by its machine-speed factor.
#[must_use]
pub fn setup_samples(run: &Run) -> Vec<f64> {
    run.setup_s
        .iter()
        .zip(&run.setup_speed)
        .map(|(s, f)| s * f)
        .collect()
}

/// The raw (uncalibrated) timings and the machine-speed factors, for
/// the human-readable report.
#[must_use]
pub fn raw_timings(run: &Run) -> String {
    let raw_cells: Vec<f64> = passes(run, PassKind::Plain)
        .flat_map(|p| p.outs.iter().map(|o| o.ms))
        .collect();
    let speeds: Vec<f64> = passes(run, PassKind::Plain).map(|p| p.speed).collect();
    format!(
        "raw, uncalibrated: setup_s {:.6} s, wall_s {:.6} s, cell_ms_p50 {:.3} ms, cell_ms_p90 {:.3} ms; machine-speed factor median {:.4} (range {:.4}..{:.4}), set-ups {:.4}",
        median(&run.setup_s),
        median_wall_s(run, false),
        quantile(&raw_cells, 0.5),
        quantile(&raw_cells, 0.9),
        median(&speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
        median(&run.setup_speed),
    )
}

/// The end-to-end metrics, from the untraced passes.
#[must_use]
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let samples = cell_samples(run);
    let io: Vec<(f64, f64)> = passes(run, PassKind::Plain).map(io_of).collect();
    let calls: Vec<f64> = io.iter().map(|x| x.0).collect();
    let mb: Vec<f64> = io.iter().map(|x| x.1).collect();
    let modeled = run.setup.modeled_s_geomean.unwrap_or_else(|| {
        let first = passes(run, PassKind::Plain).next().expect("a pass ran");
        let logs: Vec<f64> = first.outs.iter().map(|o| o.modeled_s.ln()).collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
    });
    let m = |name: &str, unit, value| Metric {
        name: name.into(),
        unit,
        value,
    };
    vec![
        m("setup_s", "s", median(&setup_samples(run))),
        m("wall_s", "s", median_wall_s(run, true)),
        m("cell_ms_p50", "ms", quantile(&samples, 0.5)),
        m("cell_ms_p90", "ms", quantile(&samples, 0.9)),
        m("io_calls", "calls/pass", median(&calls)),
        m("io_mb", "MB/pass", median(&mb)),
        m("modeled_s_geomean", "modeled_s", modeled),
        m("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

fn sum(outs: &[CellOut], f: impl Fn(&CellOut) -> u64) -> u64 {
    outs.iter().map(f).sum()
}

/// Per-layer values of one traced pass.
fn traced_values(run: &Run, pass: &Pass) -> Vec<(String, &'static str, f64)> {
    let fold: &Fold = pass.fold.as_ref().expect("traced pass has a fold");
    let cells = &run.setup.cells;
    let outs = &pass.outs;
    let ms = |ns: u64| ns as f64 / 1e6;
    let is_store = |l: Layer| matches!(l, Layer::StoreRead(_) | Layer::StoreWrite(_));
    let backend = |b: Backend| move |l: Layer| matches!(l, Layer::StoreRead(x) | Layer::StoreWrite(x) if x == b);
    let pricing = run.setup.modeled_s_geomean.is_none();
    let (compile_ms, loop_transforms, layout_changes) = if pricing {
        (
            ms(fold.busy_ns(|l| l == Layer::Compile)),
            sum(outs, |o| o.loop_transforms),
            sum(outs, |o| o.layout_changes),
        )
    } else {
        (
            run.setup.compile_ms,
            run.setup.loop_transforms,
            run.setup.layout_changes,
        )
    };
    let simulate_ms = ms(fold.busy_ns(|l| l == Layer::PfsSim));
    let workload_ops = sum(outs, |o| o.workload_ops) as f64;
    let points = cells.iter().map(|c| c.points).sum::<u64>() as f64;
    let exec_self = fold.self_ns("exec") as f64;
    let mut data = crate::wrap::Counts::default();
    for o in outs {
        data.add(&o.data);
    }
    let read_ns = fold.busy_ns(|l| matches!(l, Layer::StoreRead(_)));
    let write_ns = fold.busy_ns(|l| matches!(l, Layer::StoreWrite(_)));
    let pipes: Vec<_> = outs.iter().filter_map(|o| o.pipeline.as_ref()).collect();
    let hits: u64 = pipes.iter().map(|p| p.cache.hits).sum();
    let misses: u64 = pipes.iter().map(|p| p.cache.misses).sum();
    let prefetched: u64 = pipes.iter().map(|p| p.prefetched_reads).sum();
    let sync_reads: u64 = pipes.iter().map(|p| p.sync_reads).sum();
    let (mut shard_max, mut shard_mean) = (0.0, 0.0);
    let (mut partitioned, mut fallbacks) = (0u64, 0u64);
    let mut nodes: Vec<u64> = Vec::new();
    for (o, c) in outs.iter().zip(cells) {
        if matches!(c.mode, Mode::Sharded(n) if n > 1) {
            partitioned += o.partitioned_nests;
            fallbacks += o.serial_fallbacks;
            if let Some(max) = o.shard_reads.iter().max() {
                shard_max += *max as f64;
                shard_mean += o.shard_reads.iter().sum::<u64>() as f64 / o.shard_reads.len() as f64;
            }
        }
        nodes.resize(nodes.len().max(o.node_calls.len()), 0);
        for (n, calls) in o.node_calls.iter().enumerate() {
            nodes[n] += calls;
        }
    }
    let node_mean = nodes.iter().sum::<u64>() as f64 / nodes.len().max(1) as f64;
    let node_max = nodes.iter().copied().max().unwrap_or(0) as f64;
    let mut v: Vec<(String, &'static str, f64)> = [
        ("optimizer.compile_ms", "ms", compile_ms),
        ("optimizer.loop_transforms", "count", loop_transforms as f64),
        ("optimizer.layout_changes", "count", layout_changes as f64),
        (
            "sim.build_workload_ms",
            "ms",
            ms(fold.busy_ns(|l| l == Layer::BuildWorkload)),
        ),
        (
            "sim.tile_steps",
            "count",
            sum(outs, |o| o.tile_steps) as f64,
        ),
        ("sim.workload_ops", "count", workload_ops),
        ("pfs.simulate_ms", "ms", simulate_ms),
        ("pfs.ops_per_ms", "ops/ms", ratio(workload_ops, simulate_ms)),
        ("exec.self_ms", "ms", exec_self / 1e6),
        ("exec.ns_per_point", "ns", ratio(exec_self, points)),
        ("store.read_calls", "count", data.read_calls as f64),
        ("store.write_calls", "count", data.write_calls as f64),
        ("store.read_mb", "MB", (data.read_elems * 8) as f64 / MIB),
        ("store.write_mb", "MB", (data.write_elems * 8) as f64 / MIB),
        (
            "store.read_ns_per_call",
            "ns",
            ratio(read_ns as f64, data.read_calls as f64),
        ),
        (
            "store.write_ns_per_call",
            "ns",
            ratio(write_ns as f64, data.write_calls as f64),
        ),
        ("store.busy_ms", "ms", ms(fold.busy_ns(is_store))),
        (
            "store.mem_busy_ms",
            "ms",
            ms(fold.busy_ns(backend(Backend::Mem))),
        ),
        (
            "store.file_busy_ms",
            "ms",
            ms(fold.busy_ns(backend(Backend::File))),
        ),
        (
            "store.striped_busy_ms",
            "ms",
            ms(fold.busy_ns(backend(Backend::Striped))),
        ),
        (
            "sidecar.calls",
            "count",
            sum(outs, |o| o.sidecar.calls()) as f64,
        ),
        (
            "sidecar.busy_ms",
            "ms",
            ms(fold.busy_ns(|l| l == Layer::Sidecar)),
        ),
        (
            "journal.appends",
            "count",
            sum(outs, |o| o.log_appends) as f64,
        ),
        ("journal.mb", "MB", sum(outs, |o| o.log_bytes) as f64 / MIB),
        (
            "journal.busy_ms",
            "ms",
            ms(fold.busy_ns(|l| l == Layer::Journal)),
        ),
        (
            "checksum.verified_chunks",
            "count",
            sum(outs, |o| o.verified_chunks) as f64,
        ),
        (
            "checksum.chunk_updates",
            "count",
            sum(outs, |o| o.chunk_updates) as f64,
        ),
        (
            "recovery.checkpoints",
            "count",
            sum(outs, |o| o.checkpoints) as f64,
        ),
        (
            "cache.hit_ratio",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "prefetch.coverage",
            "ratio",
            ratio(prefetched as f64, (prefetched + sync_reads) as f64),
        ),
        (
            "prefetch.stalls",
            "count",
            pipes.iter().map(|p| p.stalls).sum::<u64>() as f64,
        ),
        ("prefetch.worker_busy_ms", "ms", ms(pass.prefetch_worker_ns)),
        (
            "writebehind.tiles",
            "count",
            pipes.iter().map(|p| p.writebehind_tiles).sum::<u64>() as f64,
        ),
        ("parallel.partitioned_nests", "count", partitioned as f64),
        ("parallel.serial_fallbacks", "count", fallbacks as f64),
        (
            "parallel.shard_imbalance",
            "ratio",
            ratio(shard_max, shard_mean),
        ),
        (
            "striped.queue_wait_ms",
            "ms",
            ms(sum(outs, |o| o.queue_wait_ns)),
        ),
        (
            "striped.node_imbalance",
            "ratio",
            ratio(node_max, node_mean),
        ),
        (
            "parity.write_calls",
            "count",
            sum(outs, |o| o.parity_writes) as f64,
        ),
    ]
    .into_iter()
    .map(|(name, unit, value): (&str, &'static str, f64)| (name.to_string(), unit, value))
    .collect();
    for row in crate::spans::Layer::ROWS {
        v.push((format!("self.{row}_ms"), "ms", ms(fold.self_ns(row))));
    }
    v.push(("self.untraced_ms".into(), "ms", ms(fold.untraced)));
    v.push(("trace.pass_wall_ms".into(), "ms", ms(fold.wall)));
    v
}

/// Per-pass values from the untraced passes of a traced run: cell
/// timings compared within a pass.
fn paired_values(run: &Run, pass: &Pass) -> Vec<(String, &'static str, f64)> {
    let cells = &run.setup.cells;
    let (mut durable_over, mut one, mut two) = (0.0, 0.0, 0.0);
    for (o, c) in pass.outs.iter().zip(cells) {
        match (c.mode, c.twin) {
            (Mode::Durable, Some(t)) => durable_over += o.ms - pass.outs[t].ms,
            (Mode::Sharded(1), _) => one += o.ms,
            (Mode::Sharded(_), _) => two += o.ms,
            _ => {}
        }
    }
    vec![
        ("durable.overhead_ms".into(), "ms", durable_over),
        ("parallel.efficiency".into(), "ratio", ratio(one, 2.0 * two)),
    ]
}

fn medians(rows: Vec<Vec<(String, &'static str, f64)>>) -> Vec<Metric> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| Metric {
            name: name.clone(),
            unit,
            value: median(&rows.iter().map(|r| r[i].2).collect::<Vec<_>>()),
        })
        .collect()
}

/// The per-layer metrics of a traced run, each the median over the
/// run's traced passes (cell pairs over its untraced passes; overhead
/// ratios over traced or ledger passes, each against the untraced
/// pass of its round).
#[must_use]
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let mut out = medians(
        passes(run, PassKind::Traced)
            .map(|p| traced_values(run, p))
            .collect(),
    );
    out.extend(medians(
        passes(run, PassKind::Plain)
            .map(|p| paired_values(run, p))
            .collect(),
    ));
    // Each traced or ledger pass against the untraced pass just before
    // it in the same round, so drift in machine speed cancels.
    let (mut traced, mut ledger) = (Vec::new(), Vec::new());
    let mut plain = None;
    for p in &run.passes {
        let wall = p.wall_ns as f64;
        match (p.kind, plain) {
            (PassKind::Plain, _) => plain = Some(wall),
            (PassKind::Traced, Some(base)) => traced.push(wall / base),
            (PassKind::Ledger, Some(base)) => ledger.push(wall / base),
            _ => {}
        }
    }
    out.push(Metric {
        name: "ledger.overhead_ratio".into(),
        unit: "ratio",
        value: median(&ledger),
    });
    out.push(Metric {
        name: "trace.overhead_ratio".into(),
        unit: "ratio",
        value: median(&traced),
    });
    out
}

/// The self-time table of the run's median traced pass, for humans.
#[must_use]
pub fn self_time_table(run: &Run) -> String {
    let mut traced: Vec<&Pass> = passes(run, PassKind::Traced).collect();
    traced.sort_by_key(|p| p.wall_ns);
    let Some(pass) = traced.get(traced.len() / 2) else {
        return String::new();
    };
    let fold = pass.fold.as_ref().expect("traced pass has a fold");
    let wall = fold.wall as f64;
    let mut s = format!(
        "self time per layer, main thread, median traced pass of {} ({} traced passes)\n",
        run.opts.workload.name(),
        traced.len()
    );
    for (row, ns) in &fold.main_self {
        s += &format!(
            "  {row:<16} {:>12.3} ms {:>6.2}%\n",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / wall
        );
    }
    s += &format!(
        "  {:<16} {:>12.3} ms {:>6.2}%\n",
        "untraced",
        fold.untraced as f64 / 1e6,
        100.0 * fold.untraced as f64 / wall
    );
    s += &format!(
        "  {:<16} {:>12.3} ms (pass wall {:.3} ms, {})\n",
        "sum",
        fold.accounted() as f64 / 1e6,
        wall / 1e6,
        if fold.accounted() == fold.wall {
            "conserved"
        } else {
            "NOT conserved"
        }
    );
    let off: u64 = fold.off_main.iter().map(|(_, ns)| ns).sum();
    if off > 0 {
        s += &format!(
            "  off the main thread: {:.3} ms of spans\n",
            off as f64 / 1e6
        );
        for (layer, ns) in &fold.off_main {
            s += &format!(
                "    {:<14} {:>12.3} ms\n",
                format!("{layer:?}"),
                *ns as f64 / 1e6
            );
        }
    }
    s
}
