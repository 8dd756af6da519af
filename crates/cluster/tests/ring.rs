//! Property tests for the consistent-hash ring and the router built on
//! it.
//!
//! * **Stability** — removing one node of `n` remaps *only* the keys
//!   that node owned (an exact property of consistent hashing, not an
//!   approximation), and the remapped share stays near `1/n`; no key
//!   ever maps to a node outside the member set.
//! * **Determinism** — the ring is a pure function of the member *set*:
//!   any permutation or duplication of the member list yields the same
//!   ownership, and golden values in the crate pin the cross-process
//!   wire contract.
//! * **Router-vs-direct equivalence** — a random keyed command script
//!   answered through a 3-node routed cluster is response-for-response
//!   identical to the same script against one standalone node. Routing
//!   partitions tenants but never changes any tenant's answers, because
//!   a key's whole stream lands on one node and tenant seeds derive
//!   from the key, not the host.
//! * **Scatter/gather validation** — `Router::merged_quantile` refuses
//!   the quantile ranks a routed `QUANTILE` refuses, with the node's
//!   message, before any `MERGE` is sent.

use proptest::collection::vec;
use proptest::prelude::*;
use req_cluster::{Cluster, HashRing};
use req_core::{QuantileSketch, ReqError};
use req_evented::{serve_evented, ReqBinClient};
use req_service::tempdir::TempDir;
use req_service::{
    ClientApi, ErrorKind, QuantileService, Request, Response, RetryPolicy, ServiceConfig,
    TenantConfig,
};
use std::sync::Arc;

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("node-{i}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Removing a node remaps exactly the keys it owned — others keep
    /// their owner — and the remapped share is in the `~1/n` ballpark.
    #[test]
    fn removal_remaps_only_the_dead_nodes_keys(
        n in 2usize..8,
        dead_pick in any::<u64>(),
        key_seeds in vec(any::<u64>(), 200..400),
    ) {
        let members = names(n);
        let dead = (dead_pick as usize) % n;
        let survivors: Vec<String> = members
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != dead)
            .map(|(_, m)| m.clone())
            .collect();
        let full = HashRing::new(&members);
        let reduced = HashRing::new(&survivors);
        let mut remapped = 0usize;
        for seed in &key_seeds {
            let key = format!("tenant-{seed:x}");
            let before = full.node_for(&key);
            let after = reduced.node_for(&key);
            prop_assert!(
                survivors.iter().any(|s| s == after),
                "{key} mapped to non-member {after}"
            );
            if before == members[dead] {
                remapped += 1; // must move: its owner is gone
            } else {
                prop_assert_eq!(before, after, "{}'s surviving owner changed", key);
            }
        }
        // The dead node's share of keys concentrates around 1/n; give
        // wide slack for small samples (this is a sanity bound, the
        // exactness property above is the real invariant).
        let share = remapped as f64 / key_seeds.len() as f64;
        prop_assert!(
            share < 3.0 / n as f64,
            "removing 1 of {} nodes remapped {:.0}% of keys",
            n,
            share * 100.0
        );
    }

    /// Ownership is a pure function of the member set: permutations and
    /// duplicates of the member list change nothing.
    #[test]
    fn ring_ignores_member_list_order(
        n in 1usize..8,
        rotation in any::<usize>(),
        key_seeds in vec(any::<u64>(), 50..100),
    ) {
        let members = names(n);
        let mut shuffled = members.clone();
        shuffled.rotate_left(rotation % n.max(1));
        shuffled.push(members[rotation % n].clone()); // duplicate entry
        let a = HashRing::new(&members);
        let b = HashRing::new(&shuffled);
        prop_assert_eq!(a.members(), b.members());
        for seed in &key_seeds {
            let key = format!("k-{seed:x}");
            prop_assert_eq!(a.node_for(&key), b.node_for(&key));
        }
    }
}

/// Build a random keyed command script over a small key pool, so
/// duplicate creates, unknown-tenant queries, and drop/re-create races
/// all occur and their error replies must match too.
fn script(ops: &[(u8, u8, u64)]) -> Vec<Request> {
    let mut reqs = Vec::with_capacity(ops.len());
    for &(op, key_pick, bits) in ops {
        let key = format!("k{}", key_pick % 5);
        reqs.push(match op % 9 {
            0 => Request::Create {
                key: key.clone(),
                config: TenantConfig::for_key(&key),
                token: None,
            },
            1 => Request::AddBatch {
                key,
                values: vec![(bits % 10_000) as f64],
                token: None,
            },
            2 => Request::AddBatch {
                key,
                values: (0..1 + bits % 64)
                    .map(|i| (i * 37 % 9_973) as f64)
                    .collect(),
                token: None,
            },
            3 => Request::Rank {
                key,
                value: (bits % 10_000) as f64,
            },
            4 => Request::Quantile {
                key,
                q: (bits % 101) as f64 / 100.0,
            },
            5 => Request::Cdf {
                key,
                points: vec![(bits % 5_000) as f64, (5_000 + bits % 5_000) as f64],
            },
            6 => Request::Stats { key },
            7 => Request::Drop { key, token: None },
            _ => Request::List,
        });
    }
    reqs
}

proptest! {
    // Each case spins up four real servers; keep the count modest — the
    // script space is what varies, and 12 cases × ~60 commands covers
    // every verb many times over.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn router_equals_direct_single_node(
        ops in vec((any::<u8>(), any::<u8>(), any::<u64>()), 20..60),
    ) {
        let script = script(&ops);

        // Oracle: one standalone node holding every tenant.
        let dir = TempDir::new("ring-oracle").unwrap();
        let oracle = Arc::new(QuantileService::open(ServiceConfig::new(dir.path())).unwrap());
        let handle = serve_evented(Arc::clone(&oracle), "127.0.0.1:0", 1).unwrap();
        let mut direct = ReqBinClient::connect(handle.addr()).unwrap();

        // Routed: the same script through a 3-node cluster.
        let mut cluster = Cluster::start(&["a", "b", "c"], RetryPolicy::default()).unwrap();

        for (i, req) in script.iter().enumerate() {
            let via_direct = direct.call(req);
            let via_router = cluster.router().call(req);
            match (via_direct, via_router) {
                (Ok(d), Ok(r)) => prop_assert_eq!(
                    d, r, "step {} ({:?}) diverged between direct and routed", i, req
                ),
                (d, r) => panic!("step {i} ({req:?}): transport failure {d:?} vs {r:?}"),
            }
        }
        handle.shutdown();
    }
}

#[test]
fn merged_reads_answer_over_every_gathered_part() {
    // 1,000 values spread over 3 nodes × 4 shards stay uncompacted, so the
    // union of the gathered parts answers exactly: a read that missed a
    // part, or double-counted one, would be off.
    let mut cluster = Cluster::start(&["a", "b", "c"], RetryPolicy::default()).unwrap();
    let router = cluster.router();
    router
        .create_spread("spread", TenantConfig::for_key("spread"))
        .unwrap();
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(router.spread_add_batch("spread", &values).unwrap(), 1000);
    for v in [0.5, 1.0, 250.0, 999.5, 1000.0, 5000.0] {
        let want = values.iter().filter(|&&x| x <= v).count() as u64;
        assert_eq!(router.merged_rank("spread", v).unwrap(), want, "rank {v}");
    }
    for (q, want) in [
        (0.0, 1.0),
        (0.001, 1.0),
        (0.5, 500.0),
        (0.9995, 1000.0),
        (1.0, 1000.0),
    ] {
        assert_eq!(
            router.merged_quantile("spread", q).unwrap(),
            Some(want),
            "q {q}"
        );
    }
    assert_eq!(router.merged_sketch("spread").unwrap().len(), 1000);
}

#[test]
fn merged_quantile_refuses_the_ranks_a_routed_quantile_refuses() {
    let mut cluster = Cluster::start(&["a", "b", "c"], RetryPolicy::default()).unwrap();
    let router = cluster.router();
    router
        .create_spread("spread", TenantConfig::for_key("spread"))
        .unwrap();
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(router.spread_add_batch("spread", &values).unwrap(), 1000);
    assert!(router.merged_quantile("spread", 0.5).unwrap().is_some());

    for q in [1.5, -0.5, f64::NAN] {
        let routed = router
            .call(&Request::Quantile {
                key: "spread".into(),
                q,
            })
            .unwrap();
        let Response::Err {
            kind: ErrorKind::Invalid,
            msg,
        } = routed
        else {
            panic!("routed QUANTILE {q} answered {routed:?}");
        };
        let refused = Err(ReqError::InvalidParameter(msg));
        assert_eq!(router.merged_quantile("spread", q), refused, "q = {q}");
        // The rank is checked before the key is looked up anywhere.
        assert_eq!(router.merged_quantile("no-such-key", q), refused, "q = {q}");
    }
}
