//! Seeded workload inputs. The benchmark generates every request from
//! `--seed`; the program under test sees only the generated requests.

use std::time::Duration;

use bytes::{Bytes, BytesMut};
use req_service::client::attach_token;
use req_service::protocol::binary;
use req_service::Request;

use crate::rng::{latency_value, latency_values, Rng, Zipf};

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; tests
/// shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Values in the `ingest` stream.
    pub ingest_values: usize,
    /// Tenants behind `mixed`.
    pub mixed_tenants: usize,
    /// Values preloaded into each `mixed` tenant during set-up.
    pub mixed_preload: usize,
    /// Values in the `replicated` stream.
    pub replicated_values: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        ingest_values: 4_000_000,
        mixed_tenants: 64,
        mixed_preload: 100_000,
        replicated_values: 1_000_000,
    };
}

/// Values per `ADDB` frame on the bulk paths.
pub const FRAME_VALUES: usize = 1_000;
/// Frames per pipelined window on the bulk paths.
pub const WINDOW_FRAMES: usize = 64;
/// Values per `ADDB` in `mixed`.
pub const MIXED_WRITE_VALUES: usize = 16;
/// Share of `mixed` requests that are writes.
pub const MIXED_WRITE_SHARE: f64 = 0.10;
/// Zipf exponent of `mixed` tenant popularity.
pub const MIXED_ZIPF: f64 = 1.1;
/// Quantiles `mixed` reads ask for (a fourth read kind is `RANK`).
pub const MIXED_READ_QS: [f64; 3] = [0.5, 0.99, 0.999];
/// Routed tenants in `replicated` (plus one spread tenant).
pub const REPLICATED_TENANTS: usize = 8;
/// The single tenant of `ingest`.
pub const INGEST_KEY: &str = "ingest";
/// The spread tenant of `replicated`.
pub const SPREAD_KEY: &str = "spread";

/// Sub-stream ids, so each input draws from its own generator.
const INGEST_STREAM: u64 = 1;
const MIXED_OPS_STREAM: u64 = 2;
const REPLICATED_STREAM: u64 = 3;
const INGEST_TOP_UP_STREAM: u64 = 4;
const MIXED_PRELOAD_STREAM: u64 = 1_000;

/// Key of tenant `i` in `mixed` and `replicated`.
pub fn tenant_key(i: usize) -> String {
    format!("t{i:02}")
}

/// `values` as `ADDB` requests of [`FRAME_VALUES`] values for `key`.
pub fn addb_frames(key: &str, values: &[f64]) -> Vec<Request> {
    values
        .chunks(FRAME_VALUES)
        .map(|chunk| Request::AddBatch {
            key: key.to_string(),
            values: chunk.to_vec(),
            token: None,
        })
        .collect()
}

/// The `ingest` stream.
pub fn ingest_values(seed: u64, sizes: &Sizes) -> Vec<f64> {
    latency_values(seed, INGEST_STREAM, sizes.ingest_values)
}

/// `n` values for the small writes `ingest` interleaves with its reads.
pub fn ingest_top_up(seed: u64, n: usize) -> Vec<f64> {
    latency_values(seed, INGEST_TOP_UP_STREAM, n)
}

/// One `mixed` request.
#[derive(Debug, Clone)]
pub struct MixedOp {
    /// Intended send time from the start of the open-loop phase.
    pub due: Duration,
    /// Index of the tenant it addresses.
    pub tenant: usize,
    /// The request (writes carry no token until [`encode_schedule`]).
    pub req: Request,
}

impl MixedOp {
    /// Is this a write (`ADDB`)?
    pub fn is_write(&self) -> bool {
        matches!(self.req, Request::AddBatch { .. })
    }
}

/// Everything `mixed` sends.
#[derive(Debug, Clone)]
pub struct MixedInputs {
    /// Set-up preload per tenant.
    pub preload: Vec<Vec<f64>>,
    /// The open-loop schedule, ascending in `due`.
    pub ops: Vec<MixedOp>,
}

impl MixedInputs {
    /// Generate `mixed`'s inputs: Poisson arrivals at `rate` per second
    /// for `span`, tenants drawn Zipf([`MIXED_ZIPF`]), 10% writes.
    pub fn generate(seed: u64, sizes: &Sizes, rate: f64, span: Duration) -> MixedInputs {
        let preload = (0..sizes.mixed_tenants)
            .map(|t| latency_values(seed, MIXED_PRELOAD_STREAM + t as u64, sizes.mixed_preload))
            .collect();
        let zipf = Zipf::new(sizes.mixed_tenants, MIXED_ZIPF);
        let mut rng = Rng::stream(seed, MIXED_OPS_STREAM);
        let mut ops = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += rng.exponential(rate);
            if t >= span.as_secs_f64() {
                break;
            }
            let tenant = zipf.sample(&mut rng);
            let key = tenant_key(tenant);
            let req = if rng.unit() < MIXED_WRITE_SHARE {
                Request::AddBatch {
                    key,
                    values: (0..MIXED_WRITE_VALUES)
                        .map(|_| latency_value(&mut rng))
                        .collect(),
                    token: None,
                }
            } else {
                match rng.below(4) as usize {
                    i if i < MIXED_READ_QS.len() => Request::Quantile {
                        key,
                        q: MIXED_READ_QS[i],
                    },
                    _ => Request::Rank {
                        key,
                        value: latency_value(&mut rng),
                    },
                }
            };
            ops.push(MixedOp {
                due: Duration::from_secs_f64(t),
                tenant,
                req,
            });
        }
        MixedInputs { preload, ops }
    }

    /// Every value tenant `t` holds after the whole schedule ran.
    pub fn final_values(&self, t: usize) -> Vec<f64> {
        let mut values = self.preload[t].clone();
        for op in self.ops.iter().filter(|op| op.tenant == t) {
            if let Request::AddBatch { values: v, .. } = &op.req {
                values.extend_from_slice(v);
            }
        }
        values
    }
}

/// Encode `ops` into frames, stamping writes with `(client_id, seq)`
/// idempotency tokens the way the service's clients do.
pub fn encode_schedule(ops: &[MixedOp], client_id: u64) -> Vec<crate::openloop::Scheduled> {
    let mut seq = 1;
    ops.iter()
        .map(|op| {
            let mut req = op.req.clone();
            attach_token(&mut req, client_id, &mut seq);
            crate::openloop::Scheduled {
                due: op.due,
                frame: binary::encode_request(&req),
            }
        })
        .collect()
}

/// Where one `replicated` batch goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// A routed tenant, by index.
    Routed(usize),
    /// The spread tenant (round-robin over every node).
    Spread,
}

/// The `replicated` stream as batches of [`FRAME_VALUES`]: eight of every
/// nine go to the routed tenants in turn, the ninth to the spread tenant.
pub fn replicated_batches(seed: u64, sizes: &Sizes) -> Vec<(Dest, Vec<f64>)> {
    latency_values(seed, REPLICATED_STREAM, sizes.replicated_values)
        .chunks(FRAME_VALUES)
        .enumerate()
        .map(|(i, chunk)| {
            let slot = i % (REPLICATED_TENANTS + 1);
            let dest = if slot == REPLICATED_TENANTS {
                Dest::Spread
            } else {
                Dest::Routed(slot)
            };
            (dest, chunk.to_vec())
        })
        .collect()
}

/// Concatenated binary frames of `reqs`: the exact bytes a client would
/// send for them (without tokens).
pub fn wire_bytes<'a>(reqs: impl IntoIterator<Item = &'a Request>) -> Bytes {
    let mut out = BytesMut::new();
    for req in reqs {
        binary::write_request(&mut out, req);
    }
    out.freeze()
}
