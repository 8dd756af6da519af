//! **E11 — all-quantiles accuracy (Corollary 1).**
//!
//! Theorem 1 is a per-query guarantee; Corollary 1 lifts it to *all* items
//! simultaneously via an ε-net + union bound, at the cost of inflating
//! `log(1/δ)` to `log(log(εn)/(εδ))` inside `k`. Empirically the lift is
//! almost free: probing **every** rank of the stream yields a maximum error
//! only modestly above the max over `O(log n)` geometric probes.

use streams::{geometric_ranks, SortOracle};

use crate::experiments::{feed, req_lra};
use crate::metrics::{probe_ranks, summarize, ErrorMode};
use crate::table::{fmt_f, Table};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Stream length (every rank of it probed).
    pub n: u64,
    /// REQ section size.
    pub k: u32,
    /// Trials.
    pub trials: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1 << 18,
            k: 32,
            trials: 3,
        }
    }
}

/// Run E11.
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "E11 all-quantiles vs fixed probes (n={}, k={}, {} trials)",
            cfg.n, cfg.k, cfg.trials
        ),
        &[
            "trial",
            "max-rel over geometric probes",
            "max-rel over ALL ranks",
            "inflation",
        ],
    );
    let geo = geometric_ranks(cfg.n, 2.0);
    for trial in 0..cfg.trials {
        // permutation stream => item value v has true rank v+1
        let m = cfg.n.next_power_of_two();
        let mut items: Vec<u64> = Vec::with_capacity(cfg.n as usize);
        let mut i = 0u64;
        while (items.len() as u64) < cfg.n {
            let v = (i.wrapping_add(trial << 50)).wrapping_mul(2654435761) % m;
            i += 1;
            if v < cfg.n {
                items.push(v);
            }
        }
        let oracle = SortOracle::new(&items);
        let mut req = req_lra(cfg.k, trial + 5);
        feed(&mut req, &items);

        let geo_max = summarize(&probe_ranks(&req, &oracle, &geo, ErrorMode::RelativeLow)).max;

        // every rank: permutation => probe item y has rank y+1; the cached
        // view (built here unless the geometric probes already paid for
        // it) answers all n probes off one build.
        let view = req.cached_view();
        let mut all_max = 0.0f64;
        for y in 0..cfg.n {
            let est = view.rank(&y);
            let truth = y + 1;
            let err = est.abs_diff(truth) as f64 / truth as f64;
            all_max = all_max.max(err);
        }
        t.row(vec![
            trial.to_string(),
            fmt_f(geo_max),
            fmt_f(all_max),
            fmt_f(all_max / geo_max.max(1e-9)),
        ]);
    }
    t.note("Corollary 1: simultaneous guarantee costs only a log-log inflation of k; the measured inflation is the last column");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rank_error_close_to_probe_error() {
        let cfg = Config {
            n: 1 << 13,
            k: 32,
            trials: 2,
        };
        let t = run(&cfg).pop().unwrap();
        for r in 0..t.num_rows() {
            let all: f64 = t
                .cell(r, t.column("max-rel over ALL ranks").unwrap())
                .parse()
                .unwrap();
            assert!(all < 0.35, "all-ranks err {all}");
            let inflation: f64 = t.cell(r, t.column("inflation").unwrap()).parse().unwrap();
            assert!(inflation < 25.0, "inflation {inflation}");
        }
    }
}
