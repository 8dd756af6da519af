//! Per-client idempotency windows: the state that makes tokened
//! mutations exactly-once.
//!
//! Each client's window remembers the outcome of its most recent applied
//! sequence numbers. [`crate::service::QuantileService`]'s write path
//! checks a token against it under the window's own lock, and records
//! the outcome after the mutation is logged and applied. WAL records carry
//! their tokens and snapshots carry the windows (the dedup frame in
//! [`crate::snapshot`]), so the windows survive crash recovery.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::protocol::IdemToken;
use crate::snapshot::{AppliedOutcome, DedupClientSnapshot};

/// How a token fared against its client's dedup window.
#[derive(Debug)]
pub(crate) enum DedupCheck {
    /// Never seen: apply it, then record.
    Fresh,
    /// Already applied: answer with the recorded outcome, do nothing.
    Duplicate(AppliedOutcome),
    /// Below the window: it may or may not have been applied long ago —
    /// refusing is the only answer that never double-applies.
    Stale,
}

/// One client's sliding idempotency window: the highest sequence seen and
/// the outcomes of every applied sequence within `window` of it.
#[derive(Debug, Default)]
pub(crate) struct ClientWindow {
    hi: u64,
    applied: BTreeMap<u64, AppliedOutcome>,
}

impl ClientWindow {
    pub(crate) fn check(&self, seq: u64, window: u64) -> DedupCheck {
        if let Some(outcome) = self.applied.get(&seq) {
            return DedupCheck::Duplicate(*outcome);
        }
        if self.hi >= window && seq <= self.hi - window {
            return DedupCheck::Stale;
        }
        DedupCheck::Fresh
    }

    pub(crate) fn record(&mut self, seq: u64, outcome: AppliedOutcome, window: u64) {
        self.applied.insert(seq, outcome);
        self.hi = self.hi.max(seq);
        // Evict sequences that fell below the window.
        while let Some((&lo, _)) = self.applied.first_key_value() {
            if self.hi >= window && lo <= self.hi - window {
                self.applied.remove(&lo);
            } else {
                break;
            }
        }
    }
}

/// All clients' windows. The outer map lock is held only for the probe;
/// each window's own mutex is then held across the client's whole
/// `[check → append → apply → record]` so two racing retries of the same
/// `(client_id, seq)` serialize instead of both passing the check.
#[derive(Debug)]
pub(crate) struct DedupTable {
    pub(crate) window: u64,
    clients: Mutex<HashMap<u64, Arc<Mutex<ClientWindow>>>>,
}

impl DedupTable {
    pub(crate) fn new(window: u64) -> Self {
        DedupTable {
            window: window.max(1),
            clients: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn window_for(&self, client_id: u64) -> Arc<Mutex<ClientWindow>> {
        Arc::clone(self.clients.lock().entry(client_id).or_default())
    }

    /// Replay/recovery path: record without checking (the WAL is truth).
    pub(crate) fn record_replayed(&self, token: IdemToken, outcome: AppliedOutcome) {
        let win = self.window_for(token.client_id);
        let mut win = win.lock();
        win.record(token.seq, outcome, self.window);
    }

    /// Deterministic (client-id-sorted) dump for the snapshot's dedup
    /// frame. Called under the exclusive service gate — no window moves.
    pub(crate) fn to_snapshot(&self) -> Vec<DedupClientSnapshot> {
        let mut out: Vec<DedupClientSnapshot> = self
            .clients
            .lock()
            .iter()
            .map(|(&client_id, win)| {
                let win = win.lock();
                DedupClientSnapshot {
                    client_id,
                    entries: win.applied.iter().map(|(&s, &o)| (s, o)).collect(),
                }
            })
            .filter(|c| !c.entries.is_empty())
            .collect();
        out.sort_by_key(|c| c.client_id);
        out
    }

    pub(crate) fn restore(&self, snapshot: &[DedupClientSnapshot]) {
        for client in snapshot {
            let win = self.window_for(client.client_id);
            let mut win = win.lock();
            for &(seq, outcome) in &client.entries {
                win.record(seq, outcome, self.window);
            }
        }
    }
}
