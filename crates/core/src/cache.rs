//! The content-addressed artifact store.
//!
//! Every pipeline phase (parse, lower, profile, classify, plan, xform,
//! reglower, verify, regverify) produces an artifact keyed by a
//! [`ContentHash`] of its inputs:
//! the source text, the relevant options, and the *content* hashes of its
//! upstream artifacts. Keying lower by the hash of the printed AST (rather
//! than by the source hash) gives the cache early cutoff: a comment or
//! whitespace edit re-parses but then rediscovers the same AST hash, so
//! lowering, profiling, classification, planning, transformation and
//! verification are all served from cache.
//!
//! The store is an in-process map from key to `Arc<dyn Any>`:
//!
//! * **Hits** bump an LRU tick and hand out the shared `Arc`.
//! * **Misses** insert an *in-flight* marker, compute outside the lock,
//!   publish, and wake waiters.
//! * **Concurrent identical requests** find the in-flight marker and park
//!   on a condvar instead of duplicating the computation (counted as
//!   *dedups*).
//! * **Eviction** removes the least-recently-used ready artifact once the
//!   ready count exceeds the capacity bound; in-flight entries are never
//!   evicted.
//!
//! Failed computations are not cached: the marker is removed, waiters are
//! woken, and the first of them becomes the new computer. *Panicking*
//! computations get the same treatment through a drop guard — the marker
//! must not leak, or every later request for that key would park forever
//! on a computation nobody is running. For the same reason the store
//! recovers poisoned locks instead of unwrapping: one panicking request on
//! a shared daemon store must not turn every subsequent request into a
//! `PoisonError` panic.

use dse_telemetry::hash::ContentHash;
pub use dse_telemetry::{CacheOutcome, PhaseOutcome, PhaseStats};
use dse_telemetry::{PhaseCacheStat, ServerStats};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Canonical phase ordering for stats reporting.
pub const PHASES: [&str; 9] = [
    "parse",
    "lower",
    "profile",
    "classify",
    "plan",
    "xform",
    "reglower",
    "verify",
    "regverify",
];

/// Locks `m`, recovering the data if a previous holder panicked. The
/// store's invariants hold between mutations (the map is only ever
/// observed with the lock held), so a poisoned lock is safe to clear.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The per-request trace of phase outcomes, appended to by the pipeline.
pub type Trace = Vec<PhaseOutcome>;

#[derive(Debug, Clone, Copy, Default)]
struct PhaseCounters {
    hits: u64,
    misses: u64,
    dedups: u64,
    evictions: u64,
}

enum Slot {
    /// A computation is running; waiters park on the store condvar.
    InFlight,
    /// The artifact, shared by every requester, and its stats.
    Ready(Arc<dyn Any + Send + Sync>, PhaseStats),
}

struct Entry {
    phase: &'static str,
    slot: Slot,
    /// LRU tick of the last touch (hit or publish).
    last_used: u64,
}

struct Inner {
    map: HashMap<ContentHash, Entry>,
    tick: u64,
    counters: HashMap<&'static str, PhaseCounters>,
}

impl Inner {
    fn counter(&mut self, phase: &'static str) -> &mut PhaseCounters {
        self.counters.entry(phase).or_default()
    }

    fn ready_count(&self) -> usize {
        self.map
            .values()
            .filter(|e| matches!(e.slot, Slot::Ready(..)))
            .count()
    }

    /// Evicts least-recently-used ready artifacts down to `capacity`.
    fn evict_to(&mut self, capacity: usize) {
        while self.ready_count() > capacity {
            let victim = self
                .map
                .iter()
                .filter(|(_, e)| matches!(e.slot, Slot::Ready(..)))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (*k, e.phase));
            match victim {
                Some((key, phase)) => {
                    self.map.remove(&key);
                    self.counter(phase).evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// The content-addressed artifact store. See the module docs.
pub struct ArtifactStore {
    inner: Mutex<Inner>,
    ready_cv: Condvar,
    capacity: usize,
    /// Timeline origin for [`PhaseOutcome::at`] offsets.
    epoch: Instant,
}

impl ArtifactStore {
    /// Default ready-artifact capacity: generous for a per-process cache,
    /// bounded so a long-lived daemon cannot grow without limit.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// A store bounded to `capacity` ready artifacts (minimum 1).
    pub fn with_capacity(capacity: usize) -> ArtifactStore {
        ArtifactStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                counters: HashMap::new(),
            }),
            ready_cv: Condvar::new(),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// The instant [`PhaseOutcome::at`] offsets are measured from (store
    /// creation).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A store with the default capacity.
    pub fn new() -> ArtifactStore {
        ArtifactStore::with_capacity(ArtifactStore::DEFAULT_CAPACITY)
    }

    /// The LRU capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready artifacts currently resident.
    pub fn len(&self) -> usize {
        lock_clean(&self.inner).ready_count()
    }

    /// True when no ready artifacts are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, computing (and publishing) the artifact and its
    /// size stats on a miss. Concurrent requests for the same key block
    /// until the first finishes and then share its artifact. Appends the
    /// outcome — timed here, once, with the artifact's stats on a hit too —
    /// to `trace`.
    ///
    /// # Errors
    ///
    /// Propagates the compute error; failures are not cached.
    ///
    /// # Panics
    ///
    /// Panics if `key` resolves to an artifact of a different type — only
    /// possible if two phases derive identical keys, which the phase tag
    /// mixed into every key prevents.
    pub fn get_or_compute<T, E, F>(
        &self,
        phase: &'static str,
        key: ContentHash,
        trace: &mut Trace,
        compute: F,
    ) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> Result<(T, PhaseStats), E>,
    {
        enum Found {
            Ready(Arc<dyn Any + Send + Sync>, PhaseStats),
            InFlight,
            Vacant,
        }
        let started = Instant::now();
        let at = started.saturating_duration_since(self.epoch);
        let mut waited = false;
        let mut st = lock_clean(&self.inner);
        loop {
            let found = match st.map.get(&key) {
                Some(e) => match &e.slot {
                    Slot::Ready(v, stats) => Found::Ready(Arc::clone(v), Arc::clone(stats)),
                    Slot::InFlight => Found::InFlight,
                },
                None => Found::Vacant,
            };
            match found {
                Found::Ready(v, stats) => {
                    st.tick += 1;
                    let tick = st.tick;
                    st.map.get_mut(&key).unwrap().last_used = tick;
                    let outcome = if waited {
                        st.counter(phase).dedups += 1;
                        CacheOutcome::Deduped
                    } else {
                        st.counter(phase).hits += 1;
                        CacheOutcome::Hit
                    };
                    drop(st);
                    trace.push(PhaseOutcome {
                        phase,
                        key,
                        outcome,
                        wall: started.elapsed(),
                        at,
                        stats,
                    });
                    return Ok(v
                        .downcast::<T>()
                        .expect("artifact type mismatch for content key"));
                }
                Found::InFlight => {
                    waited = true;
                    st = self
                        .ready_cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Found::Vacant => {
                    st.tick += 1;
                    let tick = st.tick;
                    st.map.insert(
                        key,
                        Entry {
                            phase,
                            slot: Slot::InFlight,
                            last_used: tick,
                        },
                    );
                    st.counter(phase).misses += 1;
                    drop(st);
                    // If `compute` panics, the guard removes the in-flight
                    // marker and wakes waiters on unwind; otherwise the
                    // publish/remove below owns the slot.
                    let mut guard = InFlightGuard {
                        store: self,
                        key,
                        armed: true,
                    };
                    let result = compute();
                    guard.armed = false;
                    let mut st = lock_clean(&self.inner);
                    match result {
                        Ok((v, stats)) => {
                            let v: Arc<T> = Arc::new(v);
                            st.tick += 1;
                            let tick = st.tick;
                            let entry = st.map.get_mut(&key).expect("in-flight entry present");
                            entry.slot = Slot::Ready(
                                Arc::clone(&v) as Arc<dyn Any + Send + Sync>,
                                Arc::clone(&stats),
                            );
                            entry.last_used = tick;
                            st.evict_to(self.capacity);
                            drop(st);
                            self.ready_cv.notify_all();
                            trace.push(PhaseOutcome {
                                phase,
                                key,
                                outcome: CacheOutcome::Miss,
                                wall: started.elapsed(),
                                at,
                                stats,
                            });
                            return Ok(v);
                        }
                        Err(e) => {
                            st.map.remove(&key);
                            drop(st);
                            self.ready_cv.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Snapshot of the per-phase cache counters, in canonical phase order
    /// (unknown phases appended alphabetically).
    pub fn stats(&self) -> ServerStats {
        let st = lock_clean(&self.inner);
        let mut phases: Vec<PhaseCacheStat> = Vec::new();
        let mut push = |name: &str, c: &PhaseCounters| {
            phases.push(PhaseCacheStat {
                phase: name.to_string(),
                hits: c.hits,
                misses: c.misses,
                dedups: c.dedups,
                evictions: c.evictions,
            });
        };
        for name in PHASES {
            if let Some(c) = st.counters.get(name) {
                push(name, c);
            }
        }
        let mut extra: Vec<&&str> = st
            .counters
            .keys()
            .filter(|k| !PHASES.contains(*k))
            .collect();
        extra.sort();
        for name in extra {
            let c = st.counters[*name];
            push(name, &c);
        }
        ServerStats {
            requests: 0,
            failures: 0,
            cache_entries: st.ready_count() as u64,
            cache_capacity: self.capacity as u64,
            phases,
            ..ServerStats::default()
        }
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::new()
    }
}

/// Removes a key's in-flight marker on unwind (see `get_or_compute`).
struct InFlightGuard<'a> {
    store: &'a ArtifactStore,
    key: ContentHash,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = lock_clean(&self.store.inner);
        if matches!(
            st.map.get(&self.key),
            Some(Entry {
                slot: Slot::InFlight,
                ..
            })
        ) {
            st.map.remove(&self.key);
        }
        drop(st);
        self.store.ready_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_telemetry::ContentHasher;

    fn key(n: u64) -> ContentHash {
        ContentHasher::new("test").u64(n).finish()
    }

    #[test]
    fn hit_after_miss_shares_the_artifact() {
        let store = ArtifactStore::new();
        let mut trace = Trace::new();
        let a: Arc<String> = store
            .get_or_compute("parse", key(1), &mut trace, || {
                Ok::<_, String>(("hello".to_string(), [("bytes", 5)].into()))
            })
            .unwrap();
        let b: Arc<String> = store
            .get_or_compute(
                "parse",
                key(1),
                &mut trace,
                || -> Result<(String, PhaseStats), String> {
                    panic!("second lookup must not compute")
                },
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(trace[0].outcome, CacheOutcome::Miss);
        assert_eq!(trace[1].outcome, CacheOutcome::Hit);
        // The stats live beside the artifact: the hit reports them too.
        assert_eq!(&*trace[0].stats, [("bytes", 5)]);
        assert_eq!(trace[1].stats, trace[0].stats);
        let s = store.stats();
        assert_eq!(s.phases[0].phase, "parse");
        assert_eq!((s.phases[0].hits, s.phases[0].misses), (1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let store = ArtifactStore::new();
        let mut trace = Trace::new();
        let r: Result<Arc<u32>, String> =
            store.get_or_compute("plan", key(2), &mut trace, || Err("boom".into()));
        assert_eq!(r.unwrap_err(), "boom");
        assert!(trace.is_empty());
        // The failed slot is gone: the next request computes fresh.
        let v: Arc<u32> = store
            .get_or_compute("plan", key(2), &mut trace, || {
                Ok::<_, String>((7, PhaseStats::default()))
            })
            .unwrap();
        assert_eq!(*v, 7);
        assert_eq!(trace[0].outcome, CacheOutcome::Miss);
    }

    #[test]
    fn lru_evicts_oldest_ready_artifact() {
        let store = ArtifactStore::with_capacity(2);
        let mut trace = Trace::new();
        for n in 0..3u64 {
            let _: Arc<u64> = store
                .get_or_compute("lower", key(n), &mut trace, || {
                    Ok::<_, String>((n, PhaseStats::default()))
                })
                .unwrap();
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().phases[0].evictions, 1);
        // key(0) was the LRU victim; re-requesting it recomputes.
        let mut trace = Trace::new();
        let _: Arc<u64> = store
            .get_or_compute("lower", key(0), &mut trace, || {
                Ok::<_, String>((0, PhaseStats::default()))
            })
            .unwrap();
        assert_eq!(trace[0].outcome, CacheOutcome::Miss);
        // key(2) is still resident.
        let _: Arc<u64> = store
            .get_or_compute(
                "lower",
                key(2),
                &mut trace,
                || -> Result<(u64, PhaseStats), String> { panic!("resident") },
            )
            .unwrap();
        assert_eq!(trace[1].outcome, CacheOutcome::Hit);
    }

    #[test]
    fn touching_an_artifact_saves_it_from_eviction() {
        let store = ArtifactStore::with_capacity(2);
        let mut trace = Trace::new();
        for n in 0..2u64 {
            let _: Arc<u64> = store
                .get_or_compute("lower", key(n), &mut trace, || {
                    Ok::<_, String>((n, PhaseStats::default()))
                })
                .unwrap();
        }
        // Touch key(0) so key(1) becomes the LRU victim.
        let _: Arc<u64> = store
            .get_or_compute(
                "lower",
                key(0),
                &mut trace,
                || -> Result<(u64, PhaseStats), String> { panic!("resident") },
            )
            .unwrap();
        let _: Arc<u64> = store
            .get_or_compute("lower", key(9), &mut trace, || {
                Ok::<_, String>((9, PhaseStats::default()))
            })
            .unwrap();
        let mut trace = Trace::new();
        let _: Arc<u64> = store
            .get_or_compute(
                "lower",
                key(0),
                &mut trace,
                || -> Result<(u64, PhaseStats), String> { panic!("survived") },
            )
            .unwrap();
        assert_eq!(trace[0].outcome, CacheOutcome::Hit);
    }

    #[test]
    fn panicking_compute_leaves_the_store_usable() {
        let store = ArtifactStore::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut trace = Trace::new();
            let _: Arc<u32> = store
                .get_or_compute(
                    "xform",
                    key(3),
                    &mut trace,
                    || -> Result<(u32, PhaseStats), String> { panic!("lowering bug") },
                )
                .unwrap();
        }));
        assert!(r.is_err());
        // The in-flight marker is gone and the (possibly poisoned) lock is
        // recovered: the next request computes fresh instead of parking
        // forever or dying with a PoisonError.
        let mut trace = Trace::new();
        let v: Arc<u32> = store
            .get_or_compute("xform", key(3), &mut trace, || {
                Ok::<_, String>((11, PhaseStats::default()))
            })
            .unwrap();
        assert_eq!(*v, 11);
        assert_eq!(trace[0].outcome, CacheOutcome::Miss);
        assert_eq!(store.stats().phases[0].misses, 2);
    }

    #[test]
    fn waiters_survive_a_panicking_computer() {
        let store = Arc::new(ArtifactStore::new());
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let computer = {
            let store = Arc::clone(&store);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut trace = Trace::new();
                    let _: Arc<u32> = store
                        .get_or_compute(
                            "verify",
                            key(4),
                            &mut trace,
                            || -> Result<(u32, PhaseStats), String> {
                                gate.store(true, std::sync::atomic::Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(30));
                                panic!("worker trapped")
                            },
                        )
                        .unwrap();
                }));
            })
        };
        while !gate.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // This request parks on the in-flight marker; the guard must wake
        // it when the computer unwinds, and it then computes fresh.
        let mut trace = Trace::new();
        let v: Arc<u32> = store
            .get_or_compute("verify", key(4), &mut trace, || {
                Ok::<_, String>((5, PhaseStats::default()))
            })
            .unwrap();
        assert_eq!(*v, 5);
        computer.join().unwrap();
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let store = Arc::new(ArtifactStore::new());
        let computes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let mut trace = Trace::new();
                let v: Arc<u64> = store
                    .get_or_compute("profile", key(5), &mut trace, || {
                        computes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, String>((99, PhaseStats::default()))
                    })
                    .unwrap();
                (*v, trace[0].outcome)
            }));
        }
        let outcomes: Vec<(u64, CacheOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computes.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(outcomes.iter().all(|(v, _)| *v == 99));
        assert_eq!(
            outcomes
                .iter()
                .filter(|(_, o)| *o == CacheOutcome::Miss)
                .count(),
            1
        );
        let s = store.stats();
        assert_eq!(s.phases[0].misses, 1);
        assert_eq!(s.phases[0].hits + s.phases[0].dedups, 7);
    }
}
