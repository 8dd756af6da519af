//! The same seed must generate byte-identical request streams and land
//! the service in the same state; a different seed must change the stream.

use std::time::Duration;

use perfbench::inputs::{
    addb_frames, ingest_values, replicated_batches, wire_bytes, MixedInputs, Sizes, INGEST_KEY,
};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, Params, MIXED_RATE};
use req_service::Request;

const SMALL: Sizes = Sizes {
    ingest_values: 50_000,
    mixed_tenants: 8,
    mixed_preload: 5_000,
    replicated_values: 45_000,
};

fn params(seed: u64) -> Params {
    Params {
        seed,
        seconds: 0.0,
        sizes: SMALL,
    }
}

/// Every request one seed generates, across all three workloads, as the
/// bytes a client would send, plus the open-loop schedule's due times.
fn request_stream(seed: u64) -> (Vec<u8>, Vec<Duration>) {
    let mut reqs = addb_frames(INGEST_KEY, &ingest_values(seed, &SMALL));
    let mixed = MixedInputs::generate(seed, &SMALL, MIXED_RATE, Duration::from_millis(500));
    for (t, preload) in mixed.preload.iter().enumerate() {
        reqs.extend(addb_frames(&perfbench::inputs::tenant_key(t), preload));
    }
    reqs.extend(mixed.ops.iter().map(|op| op.req.clone()));
    reqs.extend(
        replicated_batches(seed, &SMALL)
            .into_iter()
            .map(|(_, values)| Request::AddBatch {
                key: "r".into(),
                values,
                token: None,
            }),
    );
    let dues = mixed.ops.iter().map(|op| op.due).collect();
    (wire_bytes(&reqs).to_vec(), dues)
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    let (a, a_due) = request_stream(5);
    let (b, b_due) = request_stream(5);
    let (c, c_due) = request_stream(6);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must give byte-identical requests");
    assert_eq!(a_due, b_due, "same seed must give the same schedule");
    assert_ne!(a, c, "another seed must change the requests");
    assert_ne!(a_due, c_due, "another seed must change the schedule");
}

const STATE: [&str; 4] = [
    "rank_err_max",
    "retained_items",
    "state_bytes",
    "wal_bytes_per_value",
];

#[test]
fn same_seed_same_served_state() {
    for run in [workloads::ingest, workloads::mixed, workloads::replicated] {
        let a = run(&params(9), &mut Tracer::disabled()).expect("first run");
        let b = run(&params(9), &mut Tracer::disabled()).expect("second run");
        assert!(a.correct(), "{}", a.table());
        assert!(b.correct(), "{}", b.table());
        for name in STATE {
            assert_eq!(a.value(name), b.value(name), "{name} differs between runs");
        }
        assert!(a.value("rank_err_max").is_some());
    }
}
