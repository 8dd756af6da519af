//! `req-cli` — talk to a running `req-server`.
//!
//! ```text
//! req-cli [OPTIONS] CMD [ARGS...]   one command, print the reply
//! req-cli [OPTIONS] repl            interactive: one command per line
//!
//! options:
//!   --addr HOST:PORT        server address      (default 127.0.0.1:7878)
//!   --connect-timeout SECS  dial timeout        (default 5)
//!   --timeout SECS          read/write timeout  (default 30)
//!   --retries N             max automatic retries of a failed command
//!                           (default 4; a mutation is re-sent with its
//!                           idempotency token, so it applies once)
//! ```
//!
//! Examples:
//!
//! ```text
//! req-cli CREATE api.latency K=32 HRA
//! req-cli ADDB api.latency 12.5 100.25 7.5
//! req-cli QUANTILE api.latency 0.99
//! req-cli STATS api.latency
//! req-cli metrics
//! ```
//!
//! Each command line is parsed locally with the text codec and sent as a
//! binary request. A reply prints as its text payload without the `OK`
//! (`METRICS` and `EVENTS` print their decoded lines); a failure prints
//! `error: …` to stderr and, for a one-shot command, exits 1.

use req_core::ReqError;
use req_evented::ReqBinClient;
use req_service::protocol::text;
use req_service::{ClientApi, Response, RetryPolicy};
use std::io::BufRead;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: req-cli [--addr HOST:PORT] [--connect-timeout SECS] [--timeout SECS]\n\
         \x20              [--retries N] CMD [ARGS...]\n\
         \x20      req-cli [same options] repl\n\
         commands: CREATE ADDB RANK QUANTILE CDF STATS LIST SNAPSHOT DROP PING\n\
         \x20         METRICS EVENTS [N]"
    );
    std::process::exit(2);
}

/// Parse one command line, send it, and print the reply.
fn run(client: &mut ReqBinClient, line: &str) -> Result<(), ReqError> {
    let req = text::decode_request(line)?;
    match client.call(&req)?.into_result()? {
        Response::MetricsText(exposition) => print!("{exposition}"),
        Response::Events(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        resp => {
            let line = text::encode_response(&resp);
            let payload = line.strip_prefix("OK").unwrap_or(&line);
            match payload.strip_prefix(' ').unwrap_or(payload) {
                "" => println!("OK"),
                payload => println!("{payload}"),
            }
        }
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut policy = RetryPolicy::default();
    while let Some(flag) = args.first().filter(|a| a.starts_with("--")) {
        if args.len() < 2 {
            usage();
        }
        let value = args[1].clone();
        let secs = |v: &str| -> Duration {
            Duration::from_secs_f64(v.parse().unwrap_or_else(|_| usage()))
        };
        match flag.as_str() {
            "--addr" => addr = value,
            "--connect-timeout" => policy.connect_timeout = secs(&value),
            "--timeout" => {
                policy.read_timeout = secs(&value);
                policy.write_timeout = secs(&value);
            }
            "--retries" => policy.max_retries = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        args.drain(..2);
    }
    if args.is_empty() {
        usage();
    }

    let mut client = match ReqBinClient::connect_with(&addr, policy) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("req-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if args.len() == 1 && args[0] == "repl" {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = run(&mut client, &line) {
                eprintln!("error: {e}");
            }
        }
        return;
    }

    if let Err(e) = run(&mut client, &args.join(" ")) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
