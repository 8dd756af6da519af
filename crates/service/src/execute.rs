//! The request funnel: one typed [`Request`] in, one typed [`Response`]
//! out. The server answers every message of either codec through
//! [`execute`], which is what makes the codecs provably equivalent —
//! same request, same typed response.

use req_core::ReqError;

use crate::protocol::{Request, Response};
use crate::service::QuantileService;

/// Execute one typed request against the service. Handler failures come
/// back as [`Response::Err`].
pub fn execute(service: &QuantileService, req: Request) -> Response {
    let result = (|| -> Result<Response, ReqError> {
        Ok(match req {
            Request::Create { key, config, token } => {
                service.create_with_token(&key, config, token)?;
                Response::Created
            }
            Request::Add { key, value } => {
                service.add(&key, value)?;
                Response::Added
            }
            Request::AddBatch { key, values, token } => {
                let values: Vec<req_core::OrdF64> =
                    values.into_iter().map(req_core::OrdF64).collect();
                Response::AddedBatch(service.add_batch_with_token(&key, &values, token)?)
            }
            Request::Rank { key, value } => Response::Rank(service.rank(&key, value)?),
            Request::Quantile { key, q } => Response::Quantile(service.quantile(&key, q)?),
            Request::Cdf { key, points } => Response::Cdf(service.cdf(&key, &points)?),
            Request::Stats { key } => Response::Stats(service.stats(&key)?),
            Request::List => Response::List(service.list()),
            Request::Snapshot => Response::Snapshot(service.snapshot_now()?),
            Request::Drop { key, token } => {
                service.drop_key_with_token(&key, token)?;
                Response::Dropped
            }
            Request::Ping => Response::Pong,
            Request::Quit => Response::Bye,
            Request::Tail {
                gen,
                offset,
                max_bytes,
            } => Response::Tailed(service.tail(gen, offset, max_bytes)?),
            Request::Merge { key } => Response::Merged(service.sketch_parts(&key)?),
            Request::Metrics => Response::MetricsText(req_telemetry::global().render()),
            Request::Events { max } => {
                Response::Events(req_telemetry::global().recent_events(max as usize))
            }
            Request::MergeSince { key, held } => {
                Response::MergedSince(service.changed_shards(&key, held.as_ref())?)
            }
        })
    })();
    match result {
        Ok(resp) => resp,
        Err(e) => Response::from_error(&e),
    }
}
