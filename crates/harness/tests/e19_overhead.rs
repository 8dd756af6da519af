//! E19's timing check, alone in its own test binary: it toggles the
//! process-global telemetry registry, and the harness's other tests
//! running on parallel threads in the same process would land in its
//! timed slices.

use harness::experiments::e19_telemetry_overhead::{run, Config};

/// Scaled-down A/B: the enabled path must stay within 50% of the
/// disabled path even on a noisy CI box (measured machines sit
/// under 3%; the slack here is for shared-runner scheduling jitter,
/// not for the instrumentation).
#[test]
fn telemetry_overhead_is_bounded() {
    let cfg = Config {
        pairs: 9,
        batches: 30,
        batch: 128,
        roundtrips: 120,
        k: 16,
    };
    let t = run(&cfg).pop().unwrap();
    assert_eq!(t.num_rows(), 2);
    let col = t.column("overhead %").unwrap();
    for row in 0..t.num_rows() {
        let pct: f64 = t.cell(row, col).parse().unwrap();
        assert!(
            pct < 50.0,
            "telemetry overhead {pct}% out of bounds at row {row}"
        );
    }
}
