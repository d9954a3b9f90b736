//! Shard health tracking and the primary→replica failover state.
//!
//! Per shard the board holds a tiny state machine:
//!
//! ```text
//!            probe ok                    probe fails, replica answers
//! Primary ◄──────────── (any state) ────────────────────────► Replica
//!    │                                                            │
//!    │ probe fails, no replica / replica fails                    │
//!    ▼                                                            ▼
//!  Down ◄─────────────────────────────────────────────────────────┘
//! ```
//!
//! A background thread re-probes every shard each interval, always
//! preferring the primary — so a recovered primary takes reads back
//! within one interval, and a killed primary degrades to its warm
//! replica within one interval. Request-time transport errors feed the
//! same transitions immediately via [`HealthBoard::report_failure`], so
//! failover does not wait out the probe interval.
//!
//! The board also caches what each shard last reported on `/healthz`
//! (sensor ids, epoch, WAL positions): the router uses the sensor sets
//! to answer "which sensors does a full-fanout query touch" and to name
//! `unavailable_sensors` in a structured 503.

use obs::json::Json;
use segdiff_server::loadgen::fetch;
use std::sync::Mutex;

/// One shard's endpoints as configured at router start.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The primary's `host:port`.
    pub primary: String,
    /// Optional warm replica `host:port`.
    pub replica: Option<String>,
}

/// Which endpoint currently serves a shard's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The primary answers health checks.
    Primary,
    /// The primary is down; the warm replica serves reads.
    Replica,
    /// Neither endpoint answers; the shard's sensors are unavailable.
    Down,
}

impl ShardState {
    /// Stable label for `/healthz` and logs.
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Primary => "primary",
            ShardState::Replica => "replica",
            ShardState::Down => "down",
        }
    }
}

/// Mutable per-shard view the probe thread and request path share.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    pub state: ShardState,
    /// Sensor ids the shard last reported (kept across outages so a
    /// down shard's sensors can still be named in a 503).
    pub sensors: Vec<u32>,
    /// Store epoch from the last successful probe.
    pub epoch: u64,
    /// Primary durability high-water mark from the last probe.
    pub last_durable_lsn: u64,
    /// `segments` rows the replica applied, summed over its sensors (0
    /// when reads go to the primary).
    pub applied_rows: u64,
}

/// What one successful `/healthz` probe yields. The reported `role`
/// string is surfaced by `/healthz` consumers but never trusted for
/// routing, so it is not carried here.
struct Probe {
    sensors: Vec<u32>,
    epoch: u64,
    last_durable_lsn: u64,
    applied_rows: u64,
}

/// The shared health board.
pub struct HealthBoard {
    specs: Vec<ShardSpec>,
    states: Mutex<Vec<ShardHealth>>,
    probes: std::sync::Arc<obs::Counter>,
    failovers: std::sync::Arc<obs::Counter>,
}

impl HealthBoard {
    /// A board with every shard optimistically `Down` until the first
    /// probe round (run one synchronously before serving).
    pub fn new(specs: Vec<ShardSpec>) -> HealthBoard {
        let states = specs
            .iter()
            .map(|_| ShardHealth {
                state: ShardState::Down,
                sensors: Vec::new(),
                epoch: 0,
                last_durable_lsn: 0,
                applied_rows: 0,
            })
            .collect();
        let registry = obs::global();
        HealthBoard {
            specs,
            states: Mutex::new(states),
            probes: registry.counter("router.health_probes"),
            failovers: registry.counter("router.failovers"),
        }
    }

    /// The configured shard endpoints.
    pub fn specs(&self) -> &[ShardSpec] {
        &self.specs
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.specs.len()
    }

    /// Current per-shard health, cloned out (the lock is never held
    /// across network I/O).
    pub fn snapshot(&self) -> Vec<ShardHealth> {
        match self.states.lock() {
            Ok(s) => s.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// The address reads for `shard` should go to right now, with the
    /// state that chose it; `None` while the shard is down.
    pub fn endpoint(&self, shard: usize) -> Option<(String, ShardState)> {
        let state = self.snapshot().get(shard)?.state;
        match state {
            ShardState::Primary => Some((self.specs[shard].primary.clone(), state)),
            ShardState::Replica => self.specs[shard].replica.clone().map(|r| (r, state)),
            ShardState::Down => None,
        }
    }

    /// Union of every shard's last-known sensors, sorted ascending.
    pub fn known_sensors(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .snapshot()
            .iter()
            .flat_map(|h| h.sensors.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Last-known sensors of one shard, sorted ascending.
    pub fn shard_sensors(&self, shard: usize) -> Vec<u32> {
        let mut sensors = self
            .snapshot()
            .get(shard)
            .map(|h| h.sensors.clone())
            .unwrap_or_default();
        sensors.sort_unstable();
        sensors
    }

    /// One probe round over every shard: primary first, replica as the
    /// fallback. Called by the health thread each interval and once
    /// synchronously before the router starts serving.
    pub fn probe_all(&self) {
        for shard in 0..self.specs.len() {
            self.probe_shard(shard);
        }
    }

    /// Probes one shard and applies the state transition.
    pub fn probe_shard(&self, shard: usize) {
        self.probes.inc();
        let spec = &self.specs[shard];
        let next = match probe(&spec.primary) {
            Some(p) => Some((ShardState::Primary, p)),
            None => spec
                .replica
                .as_deref()
                .and_then(probe)
                .map(|p| (ShardState::Replica, p)),
        };
        let mut states = match self.states.lock() {
            Ok(s) => s,
            Err(p) => p.into_inner(),
        };
        let health = &mut states[shard];
        match next {
            Some((state, p)) => {
                if health.state == ShardState::Primary && state == ShardState::Replica {
                    self.failovers.inc();
                    obs::warn!(
                        "shard {shard}: primary {} unreachable, failing over to replica",
                        spec.primary
                    );
                }
                if health.state == ShardState::Down {
                    obs::info!("shard {shard}: now serving from the {}", state.name());
                }
                health.state = state;
                health.sensors = p.sensors;
                health.epoch = p.epoch;
                health.last_durable_lsn = p.last_durable_lsn;
                health.applied_rows = p.applied_rows;
            }
            None => {
                if health.state != ShardState::Down {
                    obs::warn!("shard {shard}: no endpoint answers health checks");
                }
                health.state = ShardState::Down;
            }
        }
    }

    /// Request-path feedback: `endpoint` of `shard` failed a query just
    /// now. Re-probes immediately so failover happens at request speed
    /// rather than probe-interval speed; returns the new endpoint if
    /// one is available.
    pub fn report_failure(&self, shard: usize, endpoint: &str) -> Option<(String, ShardState)> {
        // Only demote if the failed endpoint is still the selected one;
        // a racing probe may already have moved the shard.
        let current = self.endpoint(shard);
        if current.as_ref().map(|(addr, _)| addr.as_str()) == Some(endpoint) {
            self.probe_shard(shard);
        }
        let next = self.endpoint(shard);
        if next.as_ref().map(|(addr, _)| addr.as_str()) == Some(endpoint) {
            // The probe still prefers the endpoint that just failed us
            // (e.g. it answers /healthz but resets queries); don't
            // retry in a loop.
            return None;
        }
        next
    }
}

/// One `GET /healthz` against `addr`; `None` on any transport, status,
/// or parse failure.
fn probe(addr: &str) -> Option<Probe> {
    let (status, body) = fetch(addr, "GET", "/healthz", None).ok()?;
    if status != 200 {
        return None;
    }
    let doc = Json::parse(&body).ok()?;
    let sensors = match doc.get("sensor_ids") {
        Some(Json::Array(items)) => items
            .iter()
            .filter_map(Json::as_u64)
            .filter(|&n| n <= u64::from(u32::MAX))
            .map(|n| n as u32)
            .collect(),
        _ => Vec::new(),
    };
    Some(Probe {
        sensors,
        epoch: doc.get("epoch").and_then(Json::as_u64).unwrap_or(0),
        last_durable_lsn: doc
            .get("last_durable_lsn")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        applied_rows: doc.get("applied_rows").and_then(Json::as_u64).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ShardSpec> {
        vec![
            ShardSpec {
                // Unroutable per RFC 5737; probes fail fast or not at all
                // in tests, which never call probe_all.
                primary: "192.0.2.1:9".to_string(),
                replica: Some("192.0.2.2:9".to_string()),
            },
            ShardSpec {
                primary: "192.0.2.3:9".to_string(),
                replica: None,
            },
        ]
    }

    #[test]
    fn starts_down_until_probed() {
        let board = HealthBoard::new(specs());
        assert_eq!(board.num_shards(), 2);
        assert!(board.endpoint(0).is_none());
        assert!(board.known_sensors().is_empty());
        for h in board.snapshot() {
            assert_eq!(h.state, ShardState::Down);
        }
    }

    #[test]
    fn endpoint_follows_state() {
        let board = HealthBoard::new(specs());
        {
            let mut states = board.states.lock().expect("lock");
            states[0].state = ShardState::Primary;
            states[0].sensors = vec![3, 1];
            states[1].state = ShardState::Replica; // no replica configured
        }
        let (addr, state) = board.endpoint(0).expect("primary up");
        assert_eq!(addr, "192.0.2.1:9");
        assert_eq!(state, ShardState::Primary);
        // Replica state without a replica endpoint is effectively down.
        assert!(board.endpoint(1).is_none());
        assert_eq!(board.shard_sensors(0), vec![1, 3]);
        assert_eq!(board.known_sensors(), vec![1, 3]);

        let mut states = board.states.lock().expect("lock");
        states[0].state = ShardState::Replica;
        drop(states);
        let (addr, state) = board.endpoint(0).expect("replica up");
        assert_eq!(addr, "192.0.2.2:9");
        assert_eq!(state, ShardState::Replica);
    }
}
