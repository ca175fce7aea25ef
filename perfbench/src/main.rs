//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit,
//! then, as the last line of stdout, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics and the self-time table. Failed cells are named
//! on stderr.

use ooc_perfbench::metrics::{self, Metric};
use ooc_perfbench::{run, Options, PassKind, Workload};
use std::process::ExitCode;
use std::time::Instant;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options::new(workload, seed, seconds, trace);
    let run = match run(&opts, process_start) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let e2e = metrics::end_to_end(&run);
    let samples = metrics::cell_samples(&run).len();
    println!(
        "perfbench {} seed {seed}: {} passes, {} cells attempted, {} failed (fail_ratio {:.4}), {samples} timed cell samples, available parallelism {}",
        workload.name(),
        run.passes.len(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    println!("{}", metrics::raw_timings(&run));
    println!(
        "set-ups: {} s (raw)",
        run.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "untraced pass walls: {} s (raw)",
        run.passes
            .iter()
            .filter(|p| p.kind == PassKind::Plain)
            .map(|p| format!("{:.4}", p.wall_ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("median untraced latency per cell (raw):");
    for (i, cell) in run.setup.cells.iter().enumerate() {
        let ms: Vec<f64> = run
            .passes
            .iter()
            .filter(|p| p.kind == PassKind::Plain)
            .map(|p| p.outs[i].ms)
            .collect();
        println!("  {:<28} {:>12.3} ms", cell.name, metrics::median(&ms));
    }
    let reported: Vec<Metric> = if trace {
        print!("{}", metrics::self_time_table(&run));
        metrics::per_layer(&run)
    } else {
        e2e
    };
    for m in &reported {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let finite = reported.iter().all(|m| m.value.is_finite());
    let correct = run.failed == 0 && run.conservation_errors == 0 && finite;
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
