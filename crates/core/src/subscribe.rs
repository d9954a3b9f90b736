//! Standing queries: registered `(V, T, sensors)` regions evaluated
//! against every feature the ingest path commits.
//!
//! The historical path stores features and waits for queries; a
//! *subscription* inverts it — the query arrives first and waits for
//! data. Clients register a [`Subscription`] (a [`QueryRegion`] plus an
//! optional sensor restriction); the ingest path calls
//! [`SubscriptionRegistry::on_features`] with each committed segment's
//! feature rows, and matches become [`Notification`]s readable through a
//! per-subscription monotone cursor ([`SubscriptionRegistry::since`]).
//!
//! Scaling: with thousands of standing queries a per-feature linear scan
//! is O(all regions). Registered regions therefore live in a
//! [`RegionIndex`] — the logarithmic `(T, |V|)` grid whose cell
//! representatives are pruned with `zone_may_intersect` — so each
//! committed feature tests O(matching) regions, exactly as the B+tree
//! made historical queries sublinear. A feature row is searched through
//! the boundary of its own kind (paper Lemma 4: a drop's shifted down
//! by ε, a jump's up), so it is matched against the regions of that
//! kind alone ([`RegionIndex::matches_kind`]) and a subscription hears
//! only its own kind. The `subscribe.regions_tested` /
//! `subscribe.features_evaluated` counters expose the ratio.
//!
//! Memory: a matched row is held once, in one slab of the registry,
//! however many subscriptions it reaches. A log entry is the row's
//! 4-byte slab index, and a dense `u32` array beside the slab counts the
//! entries naming each row; the last one to go (log overflow or
//! `unsubscribe`) frees its slot.
//! [`SubscriptionRegistry::since`] builds each [`Notification`] from the
//! row and the subscription. So the logs cost the distinct rows they
//! name plus 4 B a notification, bounded by subscriptions × log
//! capacity.
//!
//! Delivery semantics: matches found by `on_features` are *staged* —
//! numbered and logged, but invisible to the cursors until
//! [`SubscriptionRegistry::flush`] publishes them. The ingest hook
//! flushes right after the WAL commit of the segment that produced the
//! features, so a published notification may precede durability by at
//! most one group-commit window — the same window a crash can already
//! un-commit. Per-subscription logs are bounded; a slow consumer loses
//! oldest-first (`notify.dropped`) rather than stalling ingest. A
//! feature seen twice — e.g. provisionally and
//! then committed, or across two evaluation ticks — notifies once per
//! subscription: Algorithm 1 emits a sensor's pairs in increasing
//! `(t_b, t_d)` order, so each `(subscription, sensor)` keeps only the
//! last pair it delivered and a row at or below that watermark is a
//! duplicate — one comparison, O(1) memory. A sensor's watermarks are
//! one dense array indexed by subscription slot, reset when a slot is
//! let to a new subscription.
//!
//! Each sensor also accumulates an [`EventFrequency`] — observed event
//! count over the observation span, in the spirit of Albrecht et al.'s
//! event-series characterization on expected frequency — so `GET
//! /subscribe` can report how eventful each sensor has been.

use crate::ingest::FeatureRow;
use featurespace::{QueryRegion, RegionIndex, RegionMatchStats, SearchKind};
use obs::json::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Notifications retained per subscription before the oldest are dropped.
pub const DEFAULT_NOTIFICATION_LOG_CAPACITY: usize = 1024;

/// One registered standing query.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Registry-assigned id, unique for the registry's lifetime.
    pub id: u64,
    /// Caller-chosen label (shown in listings; not interpreted).
    pub label: String,
    /// The `(V, T)` region in feature space.
    pub region: QueryRegion,
    /// Sensors this subscription watches; empty means all sensors.
    pub sensors: Vec<u32>,
    /// Registration time, unix milliseconds.
    pub created_ms: u64,
}

impl Subscription {
    fn covers(&self, sensor: u32) -> bool {
        self.sensors.is_empty() || self.sensors.contains(&sensor)
    }

    /// Serializes the subscription as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("label", Json::from(self.label.as_str())),
            ("kind", Json::from(self.region.kind.name())),
            ("t", Json::from(self.region.t)),
            ("v", Json::from(self.region.v)),
            (
                "sensors",
                Json::Array(
                    self.sensors
                        .iter()
                        .map(|s| Json::from(u64::from(*s)))
                        .collect(),
                ),
            ),
            ("created_ms", Json::from(self.created_ms)),
        ])
    }
}

/// One pushed match: the offending segment pair, stamped with the
/// subscription's cursor position.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Position in the subscription's cursor (1-based, monotone).
    pub seq: u64,
    /// The subscription this notification belongs to.
    pub sub_id: u64,
    /// Sensor whose ingest produced the feature.
    pub sensor: u32,
    /// Drop or jump.
    pub kind: SearchKind,
    /// Start of the earlier segment of the offending pair.
    pub t_d: f64,
    /// End of the earlier segment.
    pub t_c: f64,
    /// Start of the later segment.
    pub t_b: f64,
    /// End of the later segment.
    pub t_a: f64,
    /// The boundary corner change `Δv` with the largest magnitude.
    pub dv: f64,
    /// When the ingest path committed the feature, unix milliseconds.
    pub committed_ms: u64,
}

impl Notification {
    /// Serializes the notification as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("sub", Json::from(self.sub_id)),
            ("sensor", Json::from(u64::from(self.sensor))),
            ("kind", Json::from(self.kind.name())),
            ("t_d", Json::from(self.t_d)),
            ("t_c", Json::from(self.t_c)),
            ("t_b", Json::from(self.t_b)),
            ("t_a", Json::from(self.t_a)),
            ("dv", Json::from(self.dv)),
            ("committed_ms", Json::from(self.committed_ms)),
        ])
    }
}

/// Per-sensor event-series characterization: how many events this sensor
/// has produced over what observation span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventFrequency {
    /// Distinct events observed (features that newly matched at least
    /// one subscription watching the sensor).
    pub events: u64,
    /// First event time, unix milliseconds (0 when no event yet).
    pub first_ms: u64,
    /// Last event time, unix milliseconds.
    pub last_ms: u64,
}

impl EventFrequency {
    fn record(&mut self, now_ms: u64) {
        if self.events == 0 {
            self.first_ms = now_ms;
        }
        self.events += 1;
        self.last_ms = self.last_ms.max(now_ms);
    }

    /// Expected events per hour over the observed span; 0 until the
    /// span is non-degenerate.
    pub fn expected_per_hour(&self) -> f64 {
        let span_ms = self.last_ms.saturating_sub(self.first_ms);
        if span_ms == 0 {
            return 0.0;
        }
        self.events as f64 / (span_ms as f64 / 3_600_000.0)
    }
}

/// "Nothing delivered yet": below every real `(t_b, t_d)`.
const NEVER: (f64, f64) = (f64::NEG_INFINITY, f64::NEG_INFINITY);

/// A matched row as a notification tells it, held once however many
/// logs name it.
struct HeldRow {
    sensor: u32,
    t_d: f64,
    t_c: f64,
    t_b: f64,
    t_a: f64,
    dv: f64,
    committed_ms: u64,
}

/// The rows the logs name, each once; freed slots are reused. A held
/// row is named by some log entry, so the slab never outgrows
/// subscriptions × log capacity, which keeps a slot within a `u32`.
#[derive(Default)]
struct RowSlab {
    rows: Vec<HeldRow>,
    /// Per slot, the log entries naming its row; at 0 the slot is free.
    /// Apart from `rows` so that releasing an entry, most of them by log
    /// overflow, touches 4 bytes, not the row.
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl RowSlab {
    /// Holds `row` (named by no entry yet) and returns its slot.
    fn hold(&mut self, row: HeldRow) -> u32 {
        match self.free.pop() {
            Some(at) => {
                self.rows[at as usize] = row;
                at
            }
            None => {
                debug_assert!(
                    self.rows.len() < u32::MAX as usize,
                    "slab slot overflows u32"
                );
                self.rows.push(row);
                self.refs.push(0);
                (self.rows.len() - 1) as u32
            }
        }
    }

    /// Adds one log entry's reference to the row at `at`.
    fn retain(&mut self, at: u32) {
        self.refs[at as usize] += 1;
    }

    /// Drops one log entry's reference to the row at `at`.
    fn release(&mut self, at: u32) {
        let refs = &mut self.refs[at as usize];
        *refs -= 1;
        if *refs == 0 {
            self.free.push(at);
        }
    }

    /// Rows some log still names.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.rows.len() - self.free.len()
    }
}

/// Per-subscription delivery state.
struct SubState {
    sub: Subscription,
    /// Slab slots of the rows delivered, oldest first, bounded, dense in
    /// `seq`; the newest has `seq == last_seq`.
    log: VecDeque<u32>,
    last_seq: u64,
    /// What the cursors may see: `seq <= published`. `on_features` stages
    /// past it, `flush` moves it up to `last_seq`.
    published: u64,
}

/// What the registry knows of one sensor that has fed it rows.
struct SensorState {
    id: u32,
    freq: EventFrequency,
    /// Per subscription slot, the `(t_b, t_d)` of the last pair that
    /// subscription delivered from this sensor; [`NEVER`] past the end
    /// and for a slot let since. One array a sensor, so a row's matches
    /// read one dense array.
    delivered: Vec<(f64, f64)>,
}

struct Inner {
    next_id: u64,
    /// Registered regions, keyed by the subscription's slot in `slots`.
    index: RegionIndex,
    slots: Vec<Option<SubState>>,
    free_slots: Vec<usize>,
    slot_of: HashMap<u64, usize>,
    /// Every row some log names.
    rows: RowSlab,
    /// Slots staged past `published`, in staging order.
    staged: Vec<usize>,
    sensors: Vec<SensorState>,
    sensor_slot_of: HashMap<u32, usize>,
    match_buf: Vec<u64>,
}

/// Strictly increasing `(t_b, t_d)` within each kind.
fn in_emission_order(rows: &[FeatureRow]) -> bool {
    let mut last = [NEVER; 2];
    rows.iter().all(|r| {
        let at = (r.t_b, r.t_d);
        std::mem::replace(&mut last[r.kind as usize], at) < at
    })
}

impl Inner {
    fn state(&self, id: u64) -> Option<&SubState> {
        self.slots[*self.slot_of.get(&id)?].as_ref()
    }
}

/// The standing-query registry: subscriptions, their region index, and
/// the per-subscription notification logs.
///
/// One mutex guards everything; it is a leaf lock (never held while
/// taking another), like the alert engine's.
pub struct SubscriptionRegistry {
    inner: Mutex<Inner>,
    log_capacity: usize,
    registered: Arc<obs::Counter>,
    removed: Arc<obs::Counter>,
    active: Arc<obs::Gauge>,
    features_evaluated: Arc<obs::Counter>,
    regions_tested: Arc<obs::Counter>,
    cells_visited: Arc<obs::Counter>,
    delivered: Arc<obs::Counter>,
    deduped: Arc<obs::Counter>,
    dropped: Arc<obs::Counter>,
}

impl Default for SubscriptionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SubscriptionRegistry {
    /// A registry with the default per-subscription log capacity.
    pub fn new() -> Self {
        Self::with_log_capacity(DEFAULT_NOTIFICATION_LOG_CAPACITY)
    }

    /// A registry retaining at most `log_capacity` published
    /// notifications per subscription. Counters register in
    /// [`obs::global`].
    pub fn with_log_capacity(log_capacity: usize) -> Self {
        let r = obs::global();
        SubscriptionRegistry {
            inner: Mutex::new(Inner {
                next_id: 1,
                index: RegionIndex::new(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                slot_of: HashMap::new(),
                rows: RowSlab::default(),
                staged: Vec::new(),
                sensors: Vec::new(),
                sensor_slot_of: HashMap::new(),
                match_buf: Vec::new(),
            }),
            log_capacity: log_capacity.max(1),
            registered: r.counter("subscribe.registered"),
            removed: r.counter("subscribe.removed"),
            active: r.gauge("subscribe.active"),
            features_evaluated: r.counter("subscribe.features_evaluated"),
            regions_tested: r.counter("subscribe.regions_tested"),
            cells_visited: r.counter("subscribe.cells_visited"),
            delivered: r.counter("notify.delivered"),
            deduped: r.counter("notify.deduped"),
            dropped: r.counter("notify.dropped"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a standing query; returns the stored subscription with
    /// its assigned id. `sensors` empty means all sensors.
    pub fn subscribe(
        &self,
        label: &str,
        region: QueryRegion,
        sensors: &[u32],
        now_ms: u64,
    ) -> Subscription {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let sub = Subscription {
            id,
            label: label.to_string(),
            region,
            sensors: sensors.to_vec(),
            created_ms: now_ms,
        };
        let slot = inner.free_slots.pop().unwrap_or_else(|| {
            inner.slots.push(None);
            inner.slots.len() - 1
        });
        inner.slots[slot] = Some(SubState {
            sub: sub.clone(),
            log: VecDeque::new(),
            last_seq: 0,
            published: 0,
        });
        // A re-let slot must not inherit its last tenant's watermarks.
        for sensor in &mut inner.sensors {
            if let Some(mark) = sensor.delivered.get_mut(slot) {
                *mark = NEVER;
            }
        }
        inner.index.insert(slot as u64, region);
        inner.slot_of.insert(id, slot);
        self.registered.inc();
        self.active.set(inner.slot_of.len() as i64);
        sub
    }

    /// Removes a subscription (and its staged/published notifications);
    /// returns whether it existed.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut inner = self.lock();
        let Some(slot) = inner.slot_of.remove(&id) else {
            return false;
        };
        if let Some(state) = inner.slots[slot].take() {
            inner.index.remove(slot as u64, &state.sub.region);
            for at in state.log {
                inner.rows.release(at);
            }
        }
        inner.free_slots.push(slot);
        self.removed.inc();
        self.active.set(inner.slot_of.len() as i64);
        true
    }

    /// All registered subscriptions, ordered by id.
    pub fn subscriptions(&self) -> Vec<Subscription> {
        let inner = self.lock();
        let mut subs: Vec<Subscription> = inner
            .slots
            .iter()
            .flatten()
            .map(|s| s.sub.clone())
            .collect();
        subs.sort_by_key(|s| s.id);
        subs
    }

    /// One subscription by id.
    pub fn subscription(&self, id: u64) -> Option<Subscription> {
        self.lock().state(id).map(|s| s.sub.clone())
    }

    /// The highest sequence number published to `id` so far (0 before
    /// the first publication); `None` for an unknown subscription. A
    /// live feed starts its cursor here to deliver only what happens
    /// next.
    pub fn last_seq(&self, id: u64) -> Option<u64> {
        self.lock().state(id).map(|s| s.published)
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.lock().slot_of.len()
    }

    /// Whether no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates newly committed feature rows from `sensor` against the
    /// regions of their own kind and stages matches. Call [`Self::flush`]
    /// afterwards (the ingest hook does, right after the segment's WAL
    /// commit) to publish them to the cursors.
    ///
    /// `rows` must be in Algorithm 1's emission order: strictly
    /// increasing `(t_b, t_d)` within each kind, calls for one sensor in
    /// segment order. A row at or below the `(t_b, t_d)` a subscription
    /// last delivered for `sensor` is a duplicate by definition — a
    /// replay, never a late arrival — and counts as `notify.deduped`.
    pub fn on_features(&self, sensor: u32, rows: &[FeatureRow], now_ms: u64) {
        debug_assert!(
            in_emission_order(rows),
            "rows must arrive in Algorithm 1's emission order"
        );
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.slot_of.is_empty() {
            return;
        }
        let si = *inner.sensor_slot_of.entry(sensor).or_insert_with(|| {
            inner.sensors.push(SensorState {
                id: sensor,
                freq: EventFrequency::default(),
                delivered: Vec::new(),
            });
            inner.sensors.len() - 1
        });
        let SensorState {
            freq, delivered, ..
        } = &mut inner.sensors[si];
        delivered.resize(inner.slots.len(), NEVER);
        let mut stats = RegionMatchStats::default();
        let (mut deduped, mut dropped) = (0u64, 0u64);
        for row in rows {
            inner.match_buf.clear();
            inner
                .index
                .matches_kind(row.kind, &row.boundary, &mut inner.match_buf, &mut stats);
            let at = (row.t_b, row.t_d);
            // The row's slab slot, once a subscription has taken it.
            let mut held: Option<u32> = None;
            for &slot in &inner.match_buf {
                let slot = slot as usize;
                let Some(state) = inner.slots[slot].as_mut() else {
                    continue;
                };
                if !state.sub.covers(sensor) {
                    continue;
                }
                if at <= delivered[slot] {
                    deduped += 1;
                    continue;
                }
                delivered[slot] = at;
                let entry = *held.get_or_insert_with(|| {
                    inner.rows.hold(HeldRow {
                        sensor,
                        t_d: row.t_d,
                        t_c: row.t_c,
                        t_b: row.t_b,
                        t_a: row.t_a,
                        dv: row.peak_dv(),
                        committed_ms: now_ms,
                    })
                });
                inner.rows.retain(entry);
                if state.last_seq == state.published {
                    inner.staged.push(slot);
                }
                if state.log.len() >= self.log_capacity {
                    if let Some(oldest) = state.log.pop_front() {
                        inner.rows.release(oldest);
                    }
                    dropped += 1;
                }
                state.last_seq += 1;
                state.log.push_back(entry);
            }
            if held.is_some() {
                freq.record(now_ms);
            }
        }
        self.features_evaluated.add(rows.len() as u64);
        self.cells_visited.add(stats.cells_visited);
        self.regions_tested.add(stats.regions_tested);
        self.deduped.add(deduped);
        self.dropped.add(dropped);
    }

    /// Publishes everything staged since the last flush to the cursors.
    /// Returns the number of notifications published.
    pub fn flush(&self) -> u64 {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut published = 0u64;
        for slot in inner.staged.drain(..) {
            // Nothing is staged in a slot an unsubscribe has emptied or
            // re-let since.
            if let Some(state) = inner.slots[slot].as_mut() {
                published += state.last_seq - state.published;
                state.published = state.last_seq;
            }
        }
        self.delivered.add(published);
        published
    }

    /// Published notifications of subscription `sub_id` with `seq >
    /// after`, oldest first, at most `max`; plus the cursor to pass as
    /// the next `after`. `None` for an unknown subscription.
    ///
    /// A consumer that falls more than the log capacity behind misses
    /// the dropped prefix — visible as a gap in the returned `seq`s.
    pub fn since(&self, sub_id: u64, after: u64, max: usize) -> Option<(Vec<Notification>, u64)> {
        let inner = self.lock();
        let state = inner.state(sub_id)?;
        // The log is dense in `seq`, so a position names a `seq` and
        // `after` names an offset.
        let first = state.last_seq + 1 - state.log.len() as u64;
        let skip = usize::try_from(after.saturating_add(1).saturating_sub(first))
            .map_or(state.log.len(), |skip| skip.min(state.log.len()));
        let out: Vec<Notification> = (first + skip as u64..)
            .zip(state.log.range(skip..))
            .take_while(|&(seq, _)| seq <= state.published)
            .take(max)
            .map(|(seq, &at)| {
                let row = &inner.rows.rows[at as usize];
                Notification {
                    seq,
                    sub_id: state.sub.id,
                    sensor: row.sensor,
                    kind: state.sub.region.kind,
                    t_d: row.t_d,
                    t_c: row.t_c,
                    t_b: row.t_b,
                    t_a: row.t_a,
                    dv: row.dv,
                    committed_ms: row.committed_ms,
                }
            })
            .collect();
        let next_after = out.last().map_or(after, |n| n.seq);
        Some((out, next_after))
    }

    /// Per-sensor event-frequency characterization, ordered by sensor.
    pub fn sensor_stats(&self) -> Vec<(u32, EventFrequency)> {
        let inner = self.lock();
        let mut stats: Vec<(u32, EventFrequency)> = inner
            .sensors
            .iter()
            .filter(|s| s.freq.events > 0)
            .map(|s| (s.id, s.freq))
            .collect();
        stats.sort_by_key(|(s, _)| *s);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use featurespace::{Boundary, FeaturePoint};

    /// Held by every test that makes `notify.deduped` move: the counter is
    /// process-wide and the tests of this crate run in parallel.
    static DEDUPING_TESTS: Mutex<()> = Mutex::new(());

    fn deduping_test() -> std::sync::MutexGuard<'static, ()> {
        DEDUPING_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn drop_row(t_d: f64, dv: f64) -> FeatureRow {
        FeatureRow {
            kind: SearchKind::Drop,
            boundary: Boundary::two(FeaturePoint::new(0.0, 0.0), FeaturePoint::new(1800.0, dv)),
            t_d,
            t_c: t_d + 600.0,
            t_b: t_d + 1200.0,
            t_a: t_d + 1800.0,
        }
    }

    #[test]
    fn subscribe_list_unsubscribe() {
        let reg = SubscriptionRegistry::new();
        assert!(reg.is_empty());
        let a = reg.subscribe("deep", QueryRegion::drop(3600.0, -3.0), &[], 10);
        let b = reg.subscribe("s1-only", QueryRegion::drop(3600.0, -1.0), &[1], 20);
        assert_eq!(reg.len(), 2);
        assert_ne!(a.id, b.id);
        let listed = reg.subscriptions();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].id, a.id, "listing is id-ordered");
        assert_eq!(
            reg.subscription(b.id).map(|s| s.label),
            Some("s1-only".into())
        );
        assert!(reg.unsubscribe(a.id));
        assert!(!reg.unsubscribe(a.id));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn matching_feature_notifies_through_the_cursor() {
        let reg = SubscriptionRegistry::new();
        let sub = reg.subscribe("deep", QueryRegion::drop(3600.0, -3.0), &[], 0);
        reg.on_features(0, &[drop_row(1000.0, -4.0)], 500);
        // Staged but not yet published.
        let (none, _) = reg.since(sub.id, 0, 100).unwrap();
        assert!(none.is_empty(), "publication waits for flush");
        assert_eq!(reg.flush(), 1);
        let (got, next) = reg.since(sub.id, 0, 100).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[0].sensor, 0);
        assert_eq!(got[0].committed_ms, 500);
        assert!(got[0].dv <= -3.0);
        assert_eq!(next, 1);
        // Cursor is consumed: nothing new after `next`.
        let (empty, same) = reg.since(sub.id, next, 100).unwrap();
        assert!(empty.is_empty());
        assert_eq!(same, next);
        assert!(reg.since(999, 0, 100).is_none(), "unknown subscription");
    }

    #[test]
    fn feature_spanning_two_ticks_notifies_once() {
        // The AlertEngine-style dedup property: the same pair surfacing
        // in two evaluation ticks (e.g. provisional then committed)
        // produces one notification.
        let _serial = deduping_test();
        let reg = SubscriptionRegistry::new();
        let sub = reg.subscribe("deep", QueryRegion::drop(3600.0, -3.0), &[], 0);
        let row = drop_row(1000.0, -4.0);
        reg.on_features(0, std::slice::from_ref(&row), 100);
        reg.flush();
        reg.on_features(0, std::slice::from_ref(&row), 200);
        reg.flush();
        let (got, _) = reg.since(sub.id, 0, 100).unwrap();
        assert_eq!(got.len(), 1, "pair must notify once across ticks: {got:?}");
        // A different pair still notifies.
        reg.on_features(0, &[drop_row(9000.0, -4.0)], 300);
        reg.flush();
        let (got, _) = reg.since(sub.id, 0, 100).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].seq, 2);
    }

    #[test]
    fn sensor_restriction_filters_matches() {
        let reg = SubscriptionRegistry::new();
        let only1 = reg.subscribe("s1", QueryRegion::drop(3600.0, -3.0), &[1], 0);
        let all = reg.subscribe("all", QueryRegion::drop(3600.0, -3.0), &[], 0);
        reg.on_features(2, &[drop_row(1000.0, -4.0)], 100);
        reg.flush();
        let (none, _) = reg.since(only1.id, 0, 100).unwrap();
        assert!(none.is_empty(), "sensor 2 must not reach a sensor-1 sub");
        let (got, _) = reg.since(all.id, 0, 100).unwrap();
        assert_eq!(got.len(), 1);
        reg.on_features(1, &[drop_row(9000.0, -4.0)], 200);
        reg.flush();
        let (got, _) = reg.since(only1.id, 0, 100).unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn log_is_bounded_and_cursor_pages() {
        let reg = SubscriptionRegistry::with_log_capacity(3);
        let sub = reg.subscribe("deep", QueryRegion::drop(36_000.0, -3.0), &[], 0);
        let dropped_before = obs::global().counter("notify.dropped").get();
        for i in 0..5 {
            reg.on_features(0, &[drop_row(i as f64 * 10_000.0, -4.0)], i);
        }
        assert_eq!(reg.flush(), 5);
        let (got, next) = reg.since(sub.id, 0, 2).unwrap();
        assert_eq!(got.len(), 2, "max caps a page");
        // Seqs 1 and 2 were dropped by the bound; the page starts at 3.
        assert_eq!(got[0].seq, 3);
        assert_eq!(next, 4);
        let (rest, done) = reg.since(sub.id, next, 100).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(done, 5);
        assert_eq!(
            obs::global().counter("notify.dropped").get() - dropped_before,
            2
        );
        // A cursor inside the dropped prefix resumes at the oldest entry
        // kept; one at or past the end gets nothing and stays put.
        let (got, next) = reg.since(sub.id, 1, 100).unwrap();
        assert_eq!(got.iter().map(|n| n.seq).collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(next, 5);
        for after in [5, 6, u64::MAX] {
            let (none, same) = reg.since(sub.id, after, 100).unwrap();
            assert!(none.is_empty());
            assert_eq!(same, after);
        }
    }

    #[test]
    fn staged_notifications_wait_for_flush_even_behind_published_ones() {
        let reg = SubscriptionRegistry::new();
        let sub = reg.subscribe("deep", QueryRegion::drop(36_000.0, -3.0), &[], 0);
        reg.on_features(0, &[drop_row(0.0, -4.0)], 0);
        reg.flush();
        reg.on_features(0, &[drop_row(10_000.0, -4.0)], 1);
        let (got, next) = reg.since(sub.id, 0, 100).unwrap();
        assert_eq!(got.len(), 1, "the second match is staged, not published");
        assert_eq!((next, reg.last_seq(sub.id)), (1, Some(1)));
        assert_eq!(reg.flush(), 1);
        let (got, next) = reg.since(sub.id, next, 100).unwrap();
        assert_eq!((got.len(), got[0].seq, next), (1, 2, 2));
        assert_eq!(reg.flush(), 0, "nothing staged since");
    }

    #[test]
    fn old_pairs_never_notify_again() {
        // The hash-set dedup this replaces cleared itself after 8,192
        // pairs and then notified replayed ones again.
        let _serial = deduping_test();
        let reg = SubscriptionRegistry::new();
        let sub = reg.subscribe("deep", QueryRegion::drop(36_000.0, -3.0), &[], 0);
        let rows: Vec<FeatureRow> = (0..10_000)
            .map(|i| drop_row(i as f64 * 10_000.0, -4.0))
            .collect();
        reg.on_features(0, &rows, 0);
        assert_eq!(reg.flush(), 10_000);
        let deduped = obs::global().counter("notify.deduped");
        let before = deduped.get();
        reg.on_features(0, &rows[..100], 1);
        assert_eq!(reg.flush(), 0, "a replayed pair is a duplicate");
        assert_eq!(deduped.get() - before, 100);
        assert_eq!(reg.last_seq(sub.id), Some(10_000));
        // The watermark is per sensor: the same pairs from another sensor
        // are news.
        reg.on_features(1, &rows[..100], 2);
        assert_eq!(reg.flush(), 100);
    }

    #[test]
    fn unsubscribe_between_staging_and_flush_publishes_nothing_stale() {
        let reg = SubscriptionRegistry::new();
        let gone = reg.subscribe("gone", QueryRegion::drop(36_000.0, -3.0), &[], 0);
        reg.on_features(0, &[drop_row(0.0, -4.0)], 0);
        assert!(reg.unsubscribe(gone.id));
        // The slot is re-let; the newcomer must not inherit the match.
        let new = reg.subscribe("new", QueryRegion::drop(36_000.0, -3.0), &[], 0);
        assert_eq!(reg.flush(), 0);
        assert_eq!(reg.last_seq(new.id), Some(0));
        reg.on_features(0, &[drop_row(10_000.0, -4.0)], 1);
        assert_eq!(reg.flush(), 1);
        assert_eq!(reg.since(new.id, 0, 10).unwrap().0[0].sub_id, new.id);
        assert!(reg.since(gone.id, 0, 10).is_none());
    }

    #[test]
    fn a_re_let_slot_starts_with_a_clean_watermark() {
        let reg = SubscriptionRegistry::new();
        let region = QueryRegion::drop(36_000.0, -3.0);
        let gone = reg.subscribe("gone", region, &[0], 0);
        let slot = reg.lock().slot_of[&gone.id];
        reg.on_features(0, &[drop_row(50_000.0, -4.0)], 0);
        assert_eq!(reg.flush(), 1);
        assert!(reg.unsubscribe(gone.id));
        let new = reg.subscribe("new", region, &[0], 0);
        assert_eq!(reg.lock().slot_of[&new.id], slot, "the slot is re-let");
        // A pair below the last tenant's watermark is news to the new one.
        reg.on_features(0, &[drop_row(0.0, -4.0)], 1);
        assert_eq!(reg.flush(), 1);
        let (got, _) = reg.since(new.id, 0, 10).unwrap();
        assert_eq!((got.len(), got[0].sub_id, got[0].t_d), (1, new.id, 0.0));
    }

    #[test]
    fn sensor_stats_characterize_event_frequency() {
        let reg = SubscriptionRegistry::new();
        reg.subscribe("deep", QueryRegion::drop(36_000.0, -3.0), &[], 0);
        // Two events an hour apart on sensor 3.
        reg.on_features(3, &[drop_row(0.0, -4.0)], 0);
        reg.on_features(3, &[drop_row(50_000.0, -4.0)], 3_600_000);
        reg.flush();
        let stats = reg.sensor_stats();
        assert_eq!(stats.len(), 1);
        let (sensor, freq) = stats[0];
        assert_eq!(sensor, 3);
        assert_eq!(freq.events, 2);
        assert!((freq.expected_per_hour() - 2.0).abs() < 1e-9);
    }

    /// Exactly-once over replays: every segment's rows are fed twice, to
    /// random regions with random sensor filters, and each subscription
    /// must end up with exactly the pairs the brute-force matcher
    /// predicts, each once; a sensor's event count is its number of rows
    /// that were news to someone.
    #[test]
    fn replayed_rows_publish_the_brute_force_multiset_once() {
        use crate::ingest::FeatureExtractor;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use segmentation::Segment;
        use std::collections::BTreeSet;

        let _serial = deduping_test();
        let mut pairs = 0;
        for seed in 0..if cfg!(miri) { 2 } else { 40 } {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut unit = move || rng.random::<f64>();
            let reg = SubscriptionRegistry::with_log_capacity(1 << 20);
            let mut brute = RegionIndex::new();
            let mut subs = Vec::new();
            for i in 0..1 + (unit() * 24.0) as usize {
                let (t, v) = (f64::exp2(6.0 + unit() * 8.0), f64::exp2(unit() * 4.0 - 1.0));
                let region = if unit() < 0.5 {
                    QueryRegion::drop(t, -v)
                } else {
                    QueryRegion::jump(t, v)
                };
                let sensors: Vec<u32> = (0..3).filter(|_| unit() < 0.3).collect();
                let sub = reg.subscribe(&format!("r{i}"), region, &sensors, 0);
                brute.insert(sub.id, region);
                subs.push(sub);
            }
            // (sub, sensor, t_d, t_b) bits, as the old hash set keyed them.
            let mut predicted: BTreeSet<(u64, u32, u64, u64)> = BTreeSet::new();
            let mut events = [0u64; 3];
            for sensor in 0..3u32 {
                let mut ex = FeatureExtractor::new(unit(), 100.0 + unit() * 20_000.0);
                let (mut t, mut v) = (0.0, 0.0);
                let mut rows = Vec::new();
                for _ in 0..2 + (unit() * 30.0) as usize {
                    let (t2, v2) = (t + 1.0 + unit() * 5000.0, v + (unit() - 0.5) * 10.0);
                    rows.clear();
                    ex.push_segment(Segment::new(t, v, t2, v2), &mut rows);
                    (t, v) = (t2, v2);
                    for row in &rows {
                        let mut novel = false;
                        for id in brute.matches_brute(&row.boundary) {
                            let sub = subs.iter().find(|s| s.id == id).unwrap();
                            let key = (id, sensor, row.t_d.to_bits(), row.t_b.to_bits());
                            novel |= sub.region.kind == row.kind
                                && sub.covers(sensor)
                                && predicted.insert(key);
                        }
                        events[sensor as usize] += u64::from(novel);
                    }
                    for now_ms in [1, 2] {
                        reg.on_features(sensor, &rows, now_ms);
                        reg.flush();
                    }
                }
            }
            let mut published = Vec::new();
            for sub in &subs {
                let (got, _) = reg.since(sub.id, 0, usize::MAX).unwrap();
                assert!(got.iter().all(|n| n.kind == sub.region.kind), "seed {seed}");
                published.extend(
                    got.iter()
                        .map(|n| (n.sub_id, n.sensor, n.t_d.to_bits(), n.t_b.to_bits())),
                );
            }
            let n_published = published.len();
            let distinct: BTreeSet<_> = published.into_iter().collect();
            assert_eq!(distinct.len(), n_published, "seed {seed}: a pair twice");
            assert_eq!(distinct, predicted, "seed {seed}");
            let mut counted = [0u64; 3];
            for (sensor, freq) in reg.sensor_stats() {
                counted[sensor as usize] = freq.events;
            }
            assert_eq!(counted, events, "seed {seed}: EventFrequency.events");
            pairs += predicted.len();
        }
        assert!(pairs > 0, "the streams matched nothing");
    }

    #[test]
    fn a_subscription_hears_only_its_own_kind() {
        use crate::ingest::FeatureExtractor;
        use segmentation::Segment;

        // `cd` rises 10 degrees in an hour and `ab` lies far below it.
        // The drop boundary of `cd`'s self pair, shifted down by ε, still
        // reaches a 1-degree jump region, as its jump boundary does; the
        // pairs with `ab` answer the drop region.
        let mut ex = FeatureExtractor::new(0.2, 8.0 * 3600.0);
        let mut rows = Vec::new();
        ex.push_segment(Segment::new(0.0, 0.0, 3600.0, 10.0), &mut rows);
        ex.push_segment(Segment::new(3600.0, -20.0, 7200.0, -30.0), &mut rows);
        let region = QueryRegion::jump(3600.0, 1.0);
        assert!(
            rows.iter()
                .any(|r| r.kind == SearchKind::Drop && r.boundary.intersects(&region)),
            "the drop boundary must reach the jump region: {rows:?}"
        );
        let reg = SubscriptionRegistry::new();
        let jump = reg.subscribe("jump", region, &[], 0);
        let drop = reg.subscribe("drop", QueryRegion::drop(3600.0, -1.0), &[], 0);
        reg.on_features(0, &rows, 1);
        reg.flush();
        for (sub, kind) in [(jump, SearchKind::Jump), (drop, SearchKind::Drop)] {
            let (got, _) = reg.since(sub.id, 0, 100).unwrap();
            assert!(!got.is_empty(), "{kind:?}: nothing heard");
            for n in &got {
                assert_eq!(n.kind, kind, "{n:?}");
                let own = rows.iter().find(|r| {
                    r.kind == kind
                        && (r.t_d, r.t_b) == (n.t_d, n.t_b)
                        && r.boundary.intersects(&sub.region)
                });
                assert_eq!(own.map(FeatureRow::peak_dv), Some(n.dv), "{kind:?}: {n:?}");
            }
        }
    }

    #[test]
    fn a_row_heard_by_many_subscriptions_is_held_once() {
        let reg = SubscriptionRegistry::with_log_capacity(4);
        let held = || reg.lock().rows.held();
        let region = QueryRegion::drop(36_000.0, -3.0);
        let subs: Vec<Subscription> = (0..64)
            .map(|i| reg.subscribe(&format!("s{i}"), region, &[], 0))
            .collect();
        let rows: Vec<FeatureRow> = (0..6)
            .map(|i| drop_row(i as f64 * 10_000.0, -4.0))
            .collect();
        // 64 subscriptions over 4 matching rows hold 4 rows.
        reg.on_features(0, &rows[..4], 1);
        assert_eq!(reg.flush(), 64 * 4);
        assert_eq!(held(), 4);
        // Two more rows overflow every log: rows 0 and 1 lose their last
        // reference and go.
        reg.on_features(0, &rows[4..], 2);
        reg.flush();
        assert_eq!(held(), 4);
        // Row 4 took a fifth slot while row 0 was still named; row 5
        // reused row 0's.
        assert_eq!(reg.lock().rows.rows.len(), 5, "a freed slot is reused");
        // The cursor reads dense seqs across the gap the overflow left.
        for sub in &subs {
            let (got, next) = reg.since(sub.id, 1, 100).unwrap();
            assert_eq!(got.iter().map(|n| n.seq).collect::<Vec<_>>(), [3, 4, 5, 6]);
            assert_eq!(next, 6);
            for (n, row) in got.iter().zip(&rows[2..]) {
                assert_eq!(
                    (n.sub_id, n.kind, n.t_d, n.t_a),
                    (sub.id, SearchKind::Drop, row.t_d, row.t_a)
                );
                assert_eq!(
                    (n.dv, n.committed_ms),
                    (row.peak_dv(), if n.seq <= 4 { 1 } else { 2 })
                );
            }
            let (tail, _) = reg.since(sub.id, 4, 1).unwrap();
            assert_eq!((tail[0].seq, tail[0].t_d), (5, rows[4].t_d));
        }
        // A row stays while any log names it, and goes with the last.
        for sub in &subs[..63] {
            assert!(reg.unsubscribe(sub.id));
        }
        assert_eq!(held(), 4);
        assert!(reg.unsubscribe(subs[63].id));
        assert_eq!(held(), 0);
    }

    #[test]
    fn ingest_hook_pushes_committed_drops() {
        use crate::{SegDiffConfig, SegDiffIndex};
        use sensorgen::TimeSeries;

        let dir = std::env::temp_dir().join(format!("segdiff-subhook-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = Arc::new(SubscriptionRegistry::new());
        let sub = reg.subscribe("planted", QueryRegion::drop(3600.0, -3.0), &[], 0);
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.attach_subscriptions(Arc::clone(&reg), 0);
        // The index-test series: one unmistakable 4-degree drop.
        let mut s = TimeSeries::new();
        let mut v = 10.0;
        for i in 0..200 {
            let t = i as f64 * 300.0;
            if (80..86).contains(&i) {
                v -= 4.0 / 6.0;
            }
            s.push(t, v);
        }
        idx.ingest_series(&s).unwrap();
        idx.finish().unwrap();
        let (got, _) = reg.since(sub.id, 0, 1000).unwrap();
        assert!(
            got.iter().any(|n| n.t_d <= 25_800.0 && n.t_a >= 24_000.0),
            "planted drop must be pushed: {got:?}"
        );
        // The hook published at commit time — no extra flush was needed.
        std::fs::remove_dir_all(&dir).ok();
    }
}
