//! Concurrent ingestion: the sharded writer built on mergeability (§1's
//! parallel-processing motivation), exercised with real thread contention
//! and verified against an exact oracle.

use req_core::{ConcurrentReqSketch, QuantileSketch, RankAccuracy, ReqSketch, SpaceUsage};
use streams::{geometric_ranks, SortOracle, Workload};

fn builder(k: u32, seed: u64) -> req_core::ReqSketchBuilder {
    ReqSketch::<u64>::builder()
        .k(k)
        .rank_accuracy(RankAccuracy::LowRank)
        .seed(seed)
}

#[test]
fn parallel_ingest_matches_oracle() {
    let n = 1 << 18;
    let threads = 8u64;
    let items = Workload::uniform(1 << 40).generate(n, 10);
    let shared = ConcurrentReqSketch::<u64>::new(builder(32, 1), threads as usize).unwrap();

    let chunk = n / threads as usize;
    std::thread::scope(|scope| {
        for (t, part) in items.chunks(chunk).enumerate() {
            let shared = &shared;
            scope.spawn(move || {
                for &x in part {
                    shared.update_in_shard(t, x);
                }
            });
        }
    });
    assert_eq!(shared.len(), n as u64);

    let snap = shared.snapshot().unwrap();
    assert_eq!(snap.len(), n as u64);
    assert_eq!(snap.weight_drift(), 0);
    let oracle = SortOracle::new(&items);
    for r in geometric_ranks(n as u64, 2.0) {
        let item = oracle.item_at_rank(r).unwrap();
        let truth = oracle.rank(item);
        let rel = snap.rank(&item).abs_diff(truth) as f64 / truth as f64;
        assert!(rel < 0.08, "rank {truth}: rel {rel}");
    }
}

#[test]
fn round_robin_from_many_threads_loses_nothing() {
    let shared = ConcurrentReqSketch::<u64>::new(builder(12, 2), 4).unwrap();
    std::thread::scope(|scope| {
        for t in 0..16u64 {
            let shared = &shared;
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    shared.update(t * 10_000 + i);
                }
            });
        }
    });
    assert_eq!(shared.len(), 160_000);
    let snap = shared.snapshot().unwrap();
    assert_eq!(snap.len(), 160_000);
    assert_eq!(snap.total_weight(), 160_000);
}

#[test]
fn snapshot_while_ingesting_is_consistent() {
    // Take snapshots concurrently with ingestion: every snapshot must be
    // internally consistent (weight == len) even though it races with
    // writers.
    let shared = ConcurrentReqSketch::<u64>::new(builder(12, 3), 4).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let shared = &shared;
            scope.spawn(move || {
                for i in 0..50_000u64 {
                    shared.update_in_shard(t as usize, i);
                }
            });
        }
        let shared = &shared;
        scope.spawn(move || {
            for _ in 0..20 {
                let snap = shared.snapshot().unwrap();
                assert_eq!(
                    snap.total_weight(),
                    snap.len(),
                    "snapshot weight must match its item count"
                );
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(shared.len(), 200_000);
}

#[test]
fn batched_parallel_ingest_matches_oracle() {
    let n = 1 << 18;
    let threads = 8u64;
    let items = Workload::uniform(1 << 40).generate(n, 11);
    let shared = ConcurrentReqSketch::<u64>::new(builder(32, 5), threads as usize).unwrap();

    let chunk = n / threads as usize;
    std::thread::scope(|scope| {
        for (t, part) in items.chunks(chunk).enumerate() {
            let shared = &shared;
            scope.spawn(move || {
                // Realistic producers hand over buffers, not items.
                for piece in part.chunks(4096) {
                    shared.update_batch_in_shard(t, piece);
                }
            });
        }
    });
    assert_eq!(shared.len(), n as u64);

    let snap = shared.cached_snapshot().unwrap();
    assert_eq!(snap.len(), n as u64);
    let oracle = SortOracle::new(&items);
    let probe_ranks = geometric_ranks(n as u64, 2.0);
    let probe_items: Vec<u64> = probe_ranks
        .iter()
        .filter_map(|&r| oracle.item_at_rank(r))
        .collect();
    // Multi-query API: all probes off one view build.
    let estimates = snap.ranks(&probe_items);
    for (item, est) in probe_items.iter().zip(estimates) {
        let truth = oracle.rank(*item);
        let rel = est.abs_diff(truth) as f64 / truth as f64;
        assert!(rel < 0.08, "rank {truth}: rel {rel}");
    }
}

#[test]
fn cached_snapshot_tracks_mutations_under_read_heavy_polling() {
    let shared = ConcurrentReqSketch::<u64>::new(builder(12, 6), 4).unwrap();
    shared.update_batch(&(0..100_000u64).collect::<Vec<_>>());
    // Poll repeatedly without writes: the reads build the union view at most
    // once and never a merged snapshot.
    for _ in 0..10 {
        let p99 = shared.quantile(0.99).unwrap().unwrap();
        assert!((p99 as f64 - 99_000.0).abs() < 5_000.0, "p99 {p99}");
    }
    let stats = shared.read_cache_stats();
    assert!(stats.builds <= 1, "{stats:?}");
    assert_eq!(stats.direct + stats.cached, 10);
    assert_eq!(shared.snapshot_cache_stats(), (0, 0));
    // A write invalidates; polling picks up the new data.
    shared.update(7);
    assert_eq!(shared.rank(&u64::MAX).unwrap(), 100_001);
    assert_eq!(shared.snapshot_cache_stats(), (0, 0));
}

#[test]
fn reads_writes_and_checkpoints_interleave_without_deadlock() {
    // Writers, readers and a thread cycling the snapshot cache, checkpoint
    // and read-only encoding share one sketch for about a second. Reads lock
    // every shard in index order and then the read cache; nothing may
    // deadlock, and no item may be lost.
    let shared = ConcurrentReqSketch::<u64>::new(builder(12, 8), 4).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    let sent: u64 = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..3u64)
            .map(|t| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut sent = 0u64;
                    let mut i = 0u64;
                    while std::time::Instant::now() < deadline {
                        let batch: Vec<u64> = (0..257).map(|j| (i * 257 + j) * (t + 1)).collect();
                        shared.update_batch_in_shard(t as usize, &batch);
                        shared.update(i);
                        sent += batch.len() as u64 + 1;
                        i += 1;
                    }
                    sent
                })
            })
            .collect();
        for r in 0..2u64 {
            let shared = &shared;
            scope.spawn(move || {
                let mut i = 0u64;
                while std::time::Instant::now() < deadline {
                    let total = shared.rank(&u64::MAX).unwrap();
                    assert!(total <= shared.len(), "union weight ahead of len");
                    shared.quantile((i % 100) as f64 / 100.0).unwrap();
                    let cdf = shared.cdf(&[1_000, 100_000, 10_000_000]).unwrap();
                    assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "cdf {cdf:?}");
                    i += r + 1;
                }
            });
        }
        {
            let shared = &shared;
            scope.spawn(move || {
                while std::time::Instant::now() < deadline {
                    shared.cached_snapshot().unwrap();
                    shared.checkpoint().unwrap();
                    assert_eq!(shared.encode_shards().len(), 4);
                }
            });
        }
        writers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(shared.len(), sent);
    assert_eq!(shared.rank(&u64::MAX).unwrap(), sent);
}

#[test]
fn snapshot_space_is_one_sketch_worth() {
    let shared = ConcurrentReqSketch::<u64>::new(builder(16, 4), 8).unwrap();
    for i in 0..200_000u64 {
        shared.update(i);
    }
    let snap = shared.snapshot().unwrap();
    let budget = snap.level_capacity() * (snap.num_levels() + 1);
    assert!(snap.retained() <= budget);
}
