//! `perfbench --workload <ingest|mixed|replicated> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric with its unit and every correctness
//! gate, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones of the named workload; with `--trace 1` they are
//! the per-layer ones of the traced run, whose spans are also written to
//! `.perfbench/trace-<workload>.jsonl`. Exits 1 when a gate fails, 2 when
//! the run cannot complete.

use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use perfbench::trace::Tracer;
use perfbench::workloads::{self, BenchError, Params};
use perfbench::{ladder, report::RunResult};

const WORKLOADS: [&str; 3] = ["ingest", "mixed", "replicated"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected one of {WORKLOADS:?})",
            args.workload
        )
        .into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Removes the run's data directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<i32, BenchError> {
    let args = parse_args()?;
    // Every data directory the stack creates (services, cluster replicas)
    // roots at TMPDIR; point it inside the working directory before any
    // thread starts, so the run reads and writes nowhere else.
    let out_dir = std::env::current_dir()?.join(".perfbench");
    let run_dir = RunDir(out_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&run_dir.0)?;
    std::env::set_var("TMPDIR", &run_dir.0);

    let params = Params::new(args.seed, args.seconds);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# flush policy: fsync off (each WAL record flushed to the OS), group commit on; \
         load: 1 generator thread, 1 connection per server, 1 event loop per server; \
         host threads available: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result: RunResult = if args.trace {
        let run_id = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
            ^ u64::from(std::process::id());
        let mut tracer = Tracer::new(run_id);
        let result = ladder::run(&params, &mut tracer)?;
        // One file per workload, replaced by each traced run, so repeated
        // runs do not pile up tens of megabytes of spans each.
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        tracer.write_jsonl(&path)?;
        println!("# spans written to {}", path.display());
        println!(
            "{:<48} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in tracer.totals() {
            println!(
                "{name:<48} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        result
    } else {
        let mut tracer = Tracer::disabled();
        match args.workload.as_str() {
            "ingest" => workloads::ingest(&params, &mut tracer)?,
            "mixed" => workloads::mixed(&params, &mut tracer)?,
            _ => workloads::replicated(&params, &mut tracer)?,
        }
    };
    print!("{}", result.table());
    println!("{}", result.json());
    Ok(if result.correct() { 0 } else { 1 })
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
