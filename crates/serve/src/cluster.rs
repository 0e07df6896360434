//! Cluster control-plane state: who is replicating, and how far behind.
//!
//! Replicas announce themselves by POSTing heartbeats to the primary's
//! `POST /cluster/heartbeat` endpoint at most once per
//! [`crate::replica::HEARTBEAT_INTERVAL_NANOS`] (125 ms), busy or idle, so
//! a replica's entry trails its progress by at most one interval plus one
//! [`crate::ship::TAIL_WAIT_CAP`]. The primary folds them into a
//! [`ClusterState`] and renders the membership document served on
//! `GET /cluster`: per-replica catch-up seq, replication lag seconds
//! (computed against the [`crate::ship::ShipLog`]'s durable-frame
//! timestamps), epoch lag, and the primary's own ingest health (shed
//! rate, queue depth, epoch lag).
//!
//! Like the rest of the replication family this module is inside the
//! determinism and checked-arithmetic audit scopes: time is always an
//! externally supplied ship-clock reading, the registry is an ordered
//! `BTreeMap` so the document is deterministic, and arithmetic saturates.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use corroborate_obs::Json;

use crate::ship::ShipLog;

/// Most recent heartbeat from one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Stable replica identifier (chosen by the replica operator).
    pub id: String,
    /// Address the replica serves reads on.
    pub addr: String,
    /// Highest WAL sequence the replica has journalled and applied.
    pub applied_seq: u64,
    /// Epochs the replica has published.
    pub epoch: u64,
    /// Fingerprint of the replica's currently published `VerdictView`.
    pub fingerprint: u64,
    /// Ship-clock nanoseconds at which the heartbeat was received.
    pub heard_nanos: u64,
}

impl ReplicaStatus {
    /// Parses a heartbeat body (`{"id","addr","applied_seq","epoch",
    /// "fingerprint"}`, fingerprint as a hex string), stamping it with the
    /// receive time. Returns `None` on any missing or malformed field.
    pub fn from_json(root: &Json, heard_nanos: u64) -> Option<Self> {
        let seq_field = |key: &str| -> Option<u64> {
            root.get(key)?.as_i64().and_then(|v| u64::try_from(v).ok())
        };
        Some(Self {
            id: root.get("id")?.as_str()?.to_string(),
            addr: root.get("addr")?.as_str()?.to_string(),
            applied_seq: seq_field("applied_seq")?,
            epoch: seq_field("epoch")?,
            fingerprint: u64::from_str_radix(root.get("fingerprint")?.as_str()?, 16).ok()?,
            heard_nanos,
        })
    }

    /// Serialises this status as a heartbeat body (the inverse of
    /// [`Self::from_json`]; `heard_nanos` is not transmitted).
    pub fn to_heartbeat_json(&self) -> Json {
        let mut body = Json::object();
        body.insert("id", self.id.as_str());
        body.insert("addr", self.addr.as_str());
        body.insert("applied_seq", self.applied_seq);
        body.insert("epoch", self.epoch);
        body.insert("fingerprint", format!("{:016x}", self.fingerprint));
        body
    }
}

/// The primary's side of the membership document: ingest health that lives
/// outside the ship log.
#[derive(Debug, Clone, Default)]
pub struct PrimaryStatus {
    /// Epochs the primary has published.
    pub epoch: u64,
    /// Fingerprint of the primary's currently published `VerdictView`.
    pub fingerprint: u64,
    /// Current ingest queue depth.
    pub queue_depth: u64,
    /// Sheds (HTTP 429) per second over the process lifetime.
    pub shed_rate_per_sec: f64,
    /// Seconds since the primary last published an epoch.
    pub epoch_lag_seconds: f64,
}

/// Heartbeat registry keyed by replica id (deterministic iteration order).
#[derive(Debug, Default)]
pub struct ClusterState {
    replicas: Mutex<BTreeMap<String, ReplicaStatus>>,
}

impl ClusterState {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, ReplicaStatus>> {
        self.replicas.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clones the registry out of the lock. Lag math consults the ship
    /// log's injected clock, which must never run under this mutex
    /// (audit rule L002), so readers work from this snapshot.
    fn snapshot(&self) -> Vec<ReplicaStatus> {
        self.lock().values().cloned().collect()
    }

    /// Folds one heartbeat into the registry (latest per id wins).
    pub fn heartbeat(&self, status: ReplicaStatus) {
        self.lock().insert(status.id.clone(), status);
    }

    /// Number of replicas that have ever heartbeated.
    pub fn replica_count(&self) -> u64 {
        self.lock().len() as u64
    }

    /// Worst replication lag across all known replicas, in ship-clock
    /// seconds (0.0 with no replicas or all caught up).
    pub fn max_lag_seconds(&self, ship: &ShipLog) -> f64 {
        self.snapshot().iter().map(|r| ship.lag_seconds(r.applied_seq)).fold(0.0, f64::max)
    }

    /// Renders the `GET /cluster` membership document.
    pub fn to_json(&self, ship: &ShipLog, primary: &PrimaryStatus) -> Json {
        let now = ship.now_nanos();
        let durable_seq = ship.durable_seq();
        let mut root = Json::object();
        root.insert("report", "corroborate_cluster");
        root.insert("schema_version", 1u64);

        let mut p = Json::object();
        p.insert("epoch", primary.epoch);
        p.insert("fingerprint", format!("{:016x}", primary.fingerprint));
        p.insert("durable_seq", durable_seq);
        p.insert("next_seq", ship.next_seq());
        p.insert("snapshot_seq", ship.snapshot_seq());
        p.insert("tail_floor_seq", ship.floor_seq());
        p.insert("queue_depth", primary.queue_depth);
        p.insert("shed_rate_per_sec", primary.shed_rate_per_sec);
        p.insert("epoch_lag_seconds", primary.epoch_lag_seconds);
        root.insert("primary", p);

        let replicas: Vec<Json> = self
            .snapshot()
            .iter()
            .map(|r| {
                let mut e = Json::object();
                e.insert("id", r.id.as_str());
                e.insert("addr", r.addr.as_str());
                e.insert("applied_seq", r.applied_seq);
                e.insert("catch_up_seq", durable_seq.saturating_sub(r.applied_seq));
                e.insert("lag_seconds", ship.lag_seconds(r.applied_seq));
                e.insert("epoch", r.epoch);
                e.insert("fingerprint", format!("{:016x}", r.fingerprint));
                e.insert("heartbeat_age_seconds", now.saturating_sub(r.heard_nanos) as f64 / 1e9);
                e.insert("in_sync", r.applied_seq == durable_seq);
                e
            })
            .collect();
        root.insert("replicas", Json::Arr(replicas));
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(id: &str, applied: u64) -> ReplicaStatus {
        ReplicaStatus {
            id: id.to_string(),
            addr: "127.0.0.1:0".to_string(),
            applied_seq: applied,
            epoch: 3,
            fingerprint: 0xDEAD_BEEF,
            heard_nanos: 7,
        }
    }

    #[test]
    fn heartbeat_round_trips_through_json() {
        let original = status("r1", 42);
        let body = original.to_heartbeat_json();
        let parsed = ReplicaStatus::from_json(&body, 7).expect("parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn malformed_heartbeats_are_rejected() {
        let mut body = Json::object();
        body.insert("id", "r1");
        assert!(ReplicaStatus::from_json(&body, 0).is_none(), "missing fields");
        let mut bad = status("r1", 1).to_heartbeat_json();
        bad.insert("fingerprint", "not-hex");
        assert!(ReplicaStatus::from_json(&bad, 0).is_none(), "bad fingerprint");
    }

    #[test]
    fn latest_heartbeat_per_id_wins() {
        let cluster = ClusterState::new();
        cluster.heartbeat(status("r1", 5));
        cluster.heartbeat(status("r2", 9));
        cluster.heartbeat(status("r1", 8));
        assert_eq!(cluster.replica_count(), 2);
        let applied: Vec<(String, u64)> =
            cluster.snapshot().into_iter().map(|r| (r.id, r.applied_seq)).collect();
        assert_eq!(applied, vec![("r1".to_string(), 8), ("r2".to_string(), 9)]);
    }

    #[test]
    fn cluster_document_reports_catch_up_against_the_ship_head() {
        let ship = ShipLog::new(1 << 20);
        let fs: std::sync::Arc<dyn crate::walfs::WalFs> =
            std::sync::Arc::new(crate::walfs::FaultFs::new());
        ship.bootstrap(fs, "/wal".into(), 0, 1, Vec::new(), Vec::new());
        ship.frame_durable(1, 10, &[0; 16]);

        let cluster = ClusterState::new();
        cluster.heartbeat(status("r1", 6));
        cluster.heartbeat(status("r2", 10));
        let doc = cluster.to_json(&ship, &PrimaryStatus::default());
        let replicas = doc.get("replicas").unwrap().as_array().unwrap();
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[0].get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(replicas[0].get("catch_up_seq").unwrap().as_i64(), Some(4));
        assert_eq!(replicas[0].get("in_sync"), Some(&Json::Bool(false)));
        assert_eq!(replicas[1].get("catch_up_seq").unwrap().as_i64(), Some(0));
        assert_eq!(replicas[1].get("in_sync"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("primary").unwrap().get("durable_seq").unwrap().as_i64(), Some(10));
    }
}
