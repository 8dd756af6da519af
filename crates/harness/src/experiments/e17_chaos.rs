//! **E17 — chaos plane: injected faults, idempotent retries, degraded
//! serving.**
//!
//! The robustness capstone for the service layer. For each fault seed the
//! experiment runs several *rounds* of
//!
//! ```text
//!   inject → ingest under concurrent clients → crash → recover → retry
//! ```
//!
//! against one victim service whose WAL writes are deterministically torn
//! by a [`FaultPlane`] and whose one listener additionally suffers socket
//! read/write faults. The clients share the faulted server; all carry
//! idempotency tokens and a [`RetryPolicy`], so every transport error —
//! torn response, dropped connection, failed append — is retried until
//! the batch is acknowledged exactly once. (The same exactly-once rule
//! over raw text lines is `req-evented`'s
//! `injected_socket_faults_never_duplicate_or_lose_acked_batches_over_text`.)
//!
//! Each client owns its own tenant, which makes per-tenant ingest order
//! deterministic even though clients interleave freely on the shared WAL.
//! After the final crash+recovery the victim is compared tenant-by-tenant
//! against an **unfaulted twin** fed the identical batches:
//!
//! * `mismatches` — probe queries (ranks + quantiles) answered
//!   differently: must be identically 0 (value-identity);
//! * `n err` — acknowledged values minus recovered count: must be 0
//!   (nothing lost, nothing double-ingested despite the retries);
//! * `poisoned`/`healed` — a final degraded-mode pass: a fault schedule
//!   that breaks append *and* rollback must flip the service to read-only
//!   (queries still answering), and the next snapshot rotation must heal
//!   it back to read-write.

use req_core::OrdF64;
use req_evented::{serve_evented_with, EventedOptions, ReqBinClient};
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, FaultKind, FaultPlane, FaultSite, QuantileService, RetryPolicy, ServiceConfig,
    TenantConfig,
};
use std::sync::Arc;
use std::time::Duration;

use crate::table::Table;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fault-plane seeds; each seed is one full chaos run.
    pub seeds: Vec<u64>,
    /// Crash/recover rounds per seed.
    pub rounds: usize,
    /// Concurrent clients (and tenants) per round.
    pub clients: usize,
    /// Acknowledged batches per client per round.
    pub batches_per_client: usize,
    /// Values per batch.
    pub batch: usize,
    /// REQ section size for every tenant.
    pub k: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seeds: vec![1, 2, 3],
            rounds: 3,
            clients: 4,
            batches_per_client: 24,
            batch: 64,
            k: 16,
        }
    }
}

/// The deterministic batch a given (client, round, batch-index) ingests —
/// shared between the victim's clients and the twin's replay.
fn batch_values(cfg: &Config, client: usize, round: usize, b: usize) -> Vec<f64> {
    (0..cfg.batch)
        .map(|j| {
            let x =
                client as u64 * 1_000_003 + round as u64 * 7_919 + b as u64 * 613 + j as u64 * 31;
            (x % 100_000) as f64
        })
        .collect()
}

fn tenant_name(client: usize) -> String {
    format!("c{client}")
}

fn open_victim(dir: &std::path::Path, plane: &Arc<FaultPlane>) -> Arc<QuantileService> {
    // Snapshots stay off: recovery then rebuilds every tenant purely from
    // WAL replay, whose per-tenant order equals the twin's feed — the
    // value-identity comparison is exact. (Snapshot + dedup-frame
    // persistence under faults is pinned by `req-service`'s chaos tests.)
    let mut svc = ServiceConfig::new(dir);
    svc.faults = Some(Arc::clone(plane));
    // Recovery itself must not be sabotaged: the plane only arms once the
    // service (and its fresh WAL header) is up.
    plane.set_armed(false);
    Arc::new(QuantileService::open(svc).expect("victim open"))
}

/// Aggressive-but-deterministic retry policy for chaos clients.
fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 32,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(5),
        read_timeout: Duration::from_secs(10),
        seed,
        ..RetryPolicy::default()
    }
}

/// One client's work for one round: ingest every batch, retrying until
/// acknowledged. Returns the values acked.
fn run_client(
    cfg: &Config,
    seed: u64,
    client: usize,
    round: usize,
    addr: std::net::SocketAddr,
) -> u64 {
    let policy = chaos_policy(seed ^ (client as u64) << 8 ^ round as u64);
    let mut c = ReqBinClient::connect_with(addr, policy).expect("connect");
    let key = tenant_name(client);
    (0..cfg.batches_per_client)
        .map(|b| {
            let values = batch_values(cfg, client, round, b);
            c.add_batch(&key, &values).expect("add_batch acked")
        })
        .sum()
}

/// Post-chaos degraded-mode pass: reopen the victim with a fault schedule
/// that tears the next append *and* fails its rollback, verify read-only
/// serving, then heal via snapshot rotation. Returns (poisoned, healed).
fn degraded_pass(dir: &std::path::Path) -> (bool, bool) {
    let plane = Arc::new(
        FaultPlane::new(0xDE6)
            .with(FaultSite::WalWrite, FaultKind::Torn, 1, 1)
            .with(FaultSite::WalRollback, FaultKind::Error, 1, 1),
    );
    plane.set_armed(false);
    let mut svc = ServiceConfig::new(dir);
    svc.faults = Some(Arc::clone(&plane));
    let service = QuantileService::open(svc).expect("degraded open");
    let key = tenant_name(0);
    let n_before = service.stats(&key).expect("stats").n;

    plane.set_armed(true);
    let _ = service.add_batch(&key, &[OrdF64(1.0)]);
    plane.set_armed(false);
    let poisoned = service.read_only()
        && service.wal_poisoned() == 1
        && service.add_batch(&key, &[OrdF64(2.0)]).is_err() // Unavailable
        && service.stats(&key).map(|s| s.n) == Ok(n_before); // queries answer

    service.snapshot_now().expect("healing snapshot");
    let healed = !service.read_only()
        && service.add_batch(&key, &[OrdF64(3.0)]).is_ok()
        && service.stats(&key).map(|s| s.n) == Ok(n_before + 1);
    (poisoned, healed)
}

/// Run E17. One row per fault seed.
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E17 chaos plane: {} rounds of inject→crash→recover→retry, {} clients, \
             {} batches × {} values each (k={})",
            cfg.rounds, cfg.clients, cfg.batches_per_client, cfg.batch, cfg.k
        ),
        &[
            "seed",
            "wal faults",
            "sock faults",
            "acked",
            "recovered n",
            "n err",
            "mismatches",
            "poisoned",
            "healed",
        ],
    );

    for &seed in &cfg.seeds {
        // Unfaulted twin: same tenants, same per-tenant batch order.
        let twin_dir = TempDir::new("e17-twin").expect("tempdir");
        let twin = QuantileService::open(ServiceConfig::new(twin_dir.path())).expect("twin open");
        let tokens = [format!("K={}", cfg.k), "SHARDS=2".into(), "LRA".into()];
        let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
        for c in 0..cfg.clients {
            let key = tenant_name(c);
            twin.create(&key, TenantConfig::parse(&key, &tokens).expect("config"))
                .expect("twin create");
            for round in 0..cfg.rounds {
                for b in 0..cfg.batches_per_client {
                    let values: Vec<OrdF64> = batch_values(cfg, c, round, b)
                        .into_iter()
                        .map(OrdF64)
                        .collect();
                    twin.add_batch(&key, &values).expect("twin ingest");
                }
            }
        }

        // Victim: durable dir shared across rounds; WAL + socket faults.
        let vic_dir = TempDir::new("e17-vic").expect("tempdir");
        let wal_plane =
            Arc::new(FaultPlane::new(seed).with(FaultSite::WalWrite, FaultKind::Torn, 1, 6));
        let sock_plane = Arc::new(
            FaultPlane::new(seed.wrapping_mul(0x9E37_79B9))
                .with(FaultSite::SockWrite, FaultKind::Torn, 1, 7)
                .with(FaultSite::SockRead, FaultKind::Error, 1, 9),
        );
        let mut acked_total = 0u64;
        for round in 0..cfg.rounds {
            let service = open_victim(vic_dir.path(), &wal_plane);
            if round == 0 {
                for c in 0..cfg.clients {
                    let key = tenant_name(c);
                    service
                        .create(&key, TenantConfig::parse(&key, &tokens).expect("config"))
                        .expect("victim create");
                }
            }
            let server = serve_evented_with(
                Arc::clone(&service),
                "127.0.0.1:0",
                EventedOptions {
                    loops: 1,
                    faults: Some(Arc::clone(&sock_plane)),
                    write_stall_timeout: Some(Duration::from_secs(10)),
                },
            )
            .expect("evented server");
            wal_plane.set_armed(true);
            sock_plane.set_armed(true);

            let addr = server.addr();
            acked_total += std::thread::scope(|scope| {
                (0..cfg.clients)
                    .map(|c| scope.spawn(move || run_client(cfg, seed, c, round, addr)))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .sum::<u64>()
            });

            // Crash: stop the server, then drop the service with no
            // shutdown hook — exactly a process kill from disk's view.
            sock_plane.set_armed(false);
            wal_plane.set_armed(false);
            server.shutdown();
            drop(service);
        }

        // Final recovery; compare per tenant against the twin.
        let recovered = open_victim(vic_dir.path(), &wal_plane);
        let mut recovered_n = 0u64;
        let mut mismatches = 0u64;
        for c in 0..cfg.clients {
            let key = tenant_name(c);
            recovered_n += recovered.stats(&key).expect("stats").n;
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                if recovered.quantile(&key, q).expect("q") != twin.quantile(&key, q).expect("q") {
                    mismatches += 1;
                }
                let v = i as f64 * 5_000.0;
                if recovered.rank(&key, v).expect("r") != twin.rank(&key, v).expect("r") {
                    mismatches += 1;
                }
            }
        }
        drop(recovered);
        let (poisoned, healed) = degraded_pass(vic_dir.path());

        t.row(vec![
            seed.to_string(),
            wal_plane.injected().to_string(),
            sock_plane.injected().to_string(),
            acked_total.to_string(),
            recovered_n.to_string(),
            (acked_total as i64 - recovered_n as i64).to_string(),
            mismatches.to_string(),
            if poisoned { "yes" } else { "no" }.to_string(),
            if healed { "yes" } else { "no" }.to_string(),
        ]);
    }
    t.note(
        "`n err` = acknowledged values − recovered count: 0 means no acked batch was lost and \
         no retried batch double-ingested, across crashes; `mismatches` = \
         rank/quantile probes where the recovered victim differs from an unfaulted twin fed the \
         identical per-tenant batches (value-identity ⇒ 0); `poisoned`/`healed` = the degraded \
         read-only mode engaged on a poisoned WAL writer and cleared after the next snapshot \
         rotation",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_rounds_are_exactly_once_and_value_identical() {
        let cfg = Config {
            seeds: vec![1, 2, 3],
            rounds: 2,
            clients: 4,
            batches_per_client: 8,
            batch: 32,
            k: 16,
        };
        let t = run(&cfg).pop().unwrap();
        assert_eq!(t.num_rows(), 3);
        let wal = t.column("wal faults").unwrap();
        let sock = t.column("sock faults").unwrap();
        let n_err = t.column("n err").unwrap();
        let mism = t.column("mismatches").unwrap();
        let poisoned = t.column("poisoned").unwrap();
        let healed = t.column("healed").unwrap();
        let mut injected_somewhere = false;
        for row in 0..t.num_rows() {
            injected_somewhere |= t.cell(row, wal) != "0" || t.cell(row, sock) != "0";
            assert_eq!(t.cell(row, n_err), "0", "acked ≠ recovered at row {row}");
            assert_eq!(t.cell(row, mism), "0", "value mismatch at row {row}");
            assert_eq!(t.cell(row, poisoned), "yes");
            assert_eq!(t.cell(row, healed), "yes");
        }
        assert!(
            injected_somewhere,
            "no seed injected any fault — vacuous run"
        );
    }
}
