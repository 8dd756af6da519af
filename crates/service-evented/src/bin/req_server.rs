//! `req-server` — run the durable quantile service over TCP.
//!
//! ```text
//! req-server --data-dir DIR [--addr 127.0.0.1:7878] [--threads 4]
//!            [--snapshot-interval-secs 30] [--snapshot-every-records N]
//!            [--fsync] [--max-inflight N] [--dedup-window N]
//!            [--no-telemetry]
//! ```
//!
//! One port serves both codecs (text lines and binary frames, told apart
//! per connection); `--threads` sets the number of event loops (clamped
//! to 1–8). `--max-inflight` bounds concurrently queued mutations (excess
//! sheds with `BUSY`; 0 = unbounded); `--dedup-window` sets how many
//! recent per-client idempotency tokens the service remembers for
//! exactly-once retries (default 64); `--no-telemetry` turns off metric
//! and event recording (`METRICS`/`EVENTS` still answer, with frozen
//! values). A connection whose pending replies make no progress for 30 s
//! is closed.

use req_evented::{serve_evented_with, EventedOptions};
use req_service::{QuantileService, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// How long a connection's pending replies may make no progress before
/// the server closes it. A client that pipelines without reading would
/// otherwise pin up to `MAX_WRITE_BACKLOG` (16 MiB) for as long as it
/// stays connected. The same 30 s as a client's default read timeout.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);

fn usage() -> ! {
    eprintln!(
        "usage: req-server --data-dir DIR [--addr HOST:PORT] [--threads N]\n\
         \x20                 [--snapshot-interval-secs N] [--snapshot-every-records N] [--fsync]\n\
         \x20                 [--max-inflight N] [--dedup-window N] [--no-telemetry]"
    );
    std::process::exit(2);
}

fn parse_args() -> (ServiceConfig, String, usize, u64) {
    let mut data_dir: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut threads = 4usize;
    let mut interval_secs = 30u64;
    let mut every_records = 0u64;
    let mut fsync = false;
    let mut max_inflight = 0u64;
    let mut dedup_window: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--data-dir" => data_dir = Some(value(&mut i)),
            "--addr" => addr = value(&mut i),
            "--threads" => threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--snapshot-interval-secs" => {
                interval_secs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--snapshot-every-records" => {
                every_records = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fsync" => fsync = true,
            "--no-telemetry" => req_telemetry::global().set_enabled(false),
            "--max-inflight" => max_inflight = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--dedup-window" => {
                dedup_window = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(data_dir) = data_dir else { usage() };
    let mut cfg = ServiceConfig::new(data_dir);
    cfg.snapshot_every_records = every_records;
    cfg.fsync = fsync;
    cfg.max_inflight_mutations = max_inflight;
    if let Some(window) = dedup_window {
        cfg.dedup_window = window;
    }
    (cfg, addr, threads, interval_secs)
}

fn main() {
    let (cfg, addr, threads, interval_secs) = parse_args();
    let data_dir = cfg.data_dir.clone();
    let service = match QuantileService::open(cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("req-server: cannot open {}: {e}", data_dir.display());
            std::process::exit(1);
        }
    };
    let report = service.recovery_report();
    eprintln!(
        "req-server: recovered data dir {} (snapshot gen {:?}, {} WAL records replayed, {} damaged bytes discarded)",
        data_dir.display(),
        report.snapshot_gen,
        report.records_replayed,
        report.damaged_bytes,
    );

    let _snapshotter =
        (interval_secs > 0).then(|| service.spawn_snapshotter(Duration::from_secs(interval_secs)));

    let opts = EventedOptions {
        loops: threads,
        faults: None,
        write_stall_timeout: Some(WRITE_STALL_TIMEOUT),
    };
    match serve_evented_with(Arc::clone(&service), &addr, opts) {
        Ok(handle) => {
            println!("req-server: listening on {}", handle.addr());
            // Serve until killed; durability is the whole point — state is
            // recovered on the next start.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("req-server: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
