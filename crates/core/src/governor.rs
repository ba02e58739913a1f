//! Adaptive memory governance: a job-wide byte pool with leased,
//! rebalanced child budgets.
//!
//! The paper's one-pass operators are defined by what happens at the
//! memory boundary (§IV, Table III): hybrid hash partitions, incremental
//! hash overflows, frequent hash evicts cold keys, and the sort-merge
//! reducer spills runs. With a *static* split of job memory, a skewed
//! reducer hits its boundary while its neighbors sit on idle headroom —
//! the pathology M3R's in-memory budget sharing attacks. The
//! [`MemoryGovernor`] removes it:
//!
//! * the governor owns the **pool** (job-wide limit) and [`lease`]s child
//!   [`MemoryBudget`]s to tasks;
//! * a task that exhausts its lease escalates
//!   ([`MemoryBudget::try_grant_or_request`]) instead of spilling
//!   immediately. The governor grows the lease from uncommitted pool
//!   slack, or **rebalances** idle headroom away from the slackest
//!   sibling lease;
//! * when every lease is genuinely loaded (global pressure), the
//!   governor picks a **victim** lease by rotating over the leases that
//!   hold bytes, and posts a shed request on it; the victim's operator
//!   sheds bytes (`GroupBy::shed`) at its next batch boundary, and the
//!   requester falls back to its own spill path this one time.
//!
//! Round-robin is the only victim rule: in a measured sweep against
//! largest-consumer, largest-bucket and coldest-keys it gave the lowest
//! serving ingest wall time and the fairest per-tenant latency
//! (EXPERIMENTS.md, "Shed-rule and hash-family sweep").
//!
//! Shedding is a correctness-neutral reordering: operators shed by
//! spilling partial state through the same tagged-record paths their
//! normal overflow uses, so final output bytes are unchanged.
//!
//! [`lease`]: MemoryGovernor::lease

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::memory::{Escalator, MemoryBudget, WeakBudget};

/// Default high-water fraction: above this pool utilization the shuffle
/// backpressures map-side pushes instead of growing reducer buffers.
pub const DEFAULT_HIGH_WATER: f64 = 0.85;

/// How the engine allocates reduce-side memory across tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemoryPolicy {
    /// Every task gets a fixed, independent budget slice (the seed
    /// behaviour).
    #[default]
    Static,
    /// Tasks lease from a shared pool under a [`MemoryGovernor`] that
    /// rebalances limits and, under pressure, sheds round-robin.
    Adaptive,
}

impl MemoryPolicy {
    /// Short label for reports (`static` / `adaptive`).
    pub fn label(self) -> &'static str {
        match self {
            MemoryPolicy::Static => "static",
            MemoryPolicy::Adaptive => "adaptive",
        }
    }

    /// Parse a [`label`](MemoryPolicy::label) (CLI round-trip).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(MemoryPolicy::Static),
            "adaptive" => Some(MemoryPolicy::Adaptive),
            _ => None,
        }
    }
}

/// Monotonic governor activity counters (report gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorCounters {
    /// Leases handed out over the governor's lifetime.
    pub leases: u64,
    /// Successful lease-limit raises (slack grants + reclaims).
    pub rebalances: u64,
    /// Shed requests posted on victim leases.
    pub sheds: u64,
    /// Total bytes requested across all shed requests.
    pub shed_bytes_requested: u64,
    /// Escalations denied outright (no slack, no reclaimable headroom,
    /// no useful victim).
    pub denied: u64,
}

struct LeaseEntry {
    id: usize,
    budget: WeakBudget,
}

pub(crate) struct GovInner {
    pool: MemoryBudget,
    /// Minimum bytes moved per rebalance, so hot leases don't escalate
    /// once per record.
    min_grant: usize,
    leases: Mutex<Vec<LeaseEntry>>,
    next_id: AtomicUsize,
    /// Victim rotation cursor.
    cursor: AtomicUsize,
    leases_total: AtomicU64,
    rebalances: AtomicU64,
    sheds: AtomicU64,
    shed_bytes: AtomicU64,
    denied: AtomicU64,
}

impl GovInner {
    /// Prune dead leases and snapshot the live ones.
    fn live(&self, leases: &mut Vec<LeaseEntry>) -> Vec<(usize, MemoryBudget)> {
        leases.retain(|l| l.budget.upgrade().is_some());
        leases
            .iter()
            .filter_map(|l| l.budget.upgrade().map(|b| (l.id, b)))
            .collect()
    }
}

impl Escalator for GovInner {
    fn request_more(&self, lease_id: usize, bytes: usize) -> bool {
        let grant = bytes.max(self.min_grant);
        let mut guard = self.leases.lock().expect("governor lock");
        let live = self.live(&mut guard);
        let Some((_, requester)) = live.iter().find(|(id, _)| *id == lease_id) else {
            return false;
        };
        let global = self.pool.limit();
        let committed: usize = live.iter().map(|(_, b)| b.limit()).sum();

        // 1. Uncommitted pool slack: grow the lease outright.
        if committed.saturating_add(grant) <= global {
            requester.set_limit(requester.limit() + grant);
            self.rebalances.fetch_add(1, Ordering::Relaxed);
            return true;
        }

        // 2. Rebalance: reclaim idle headroom from the slackest sibling.
        let donor = live
            .iter()
            .filter(|(id, _)| *id != lease_id)
            .max_by_key(|(_, b)| b.limit().saturating_sub(b.used()));
        if let Some((_, donor)) = donor {
            let slack = donor.limit().saturating_sub(donor.used());
            if slack >= grant {
                donor.set_limit(donor.limit() - grant);
                requester.set_limit(requester.limit() + grant);
                self.rebalances.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }

        // 3. Global pressure: ask a victim to shed, rotating over the
        //    leases that hold bytes. The requester spills locally this
        //    time; the freed headroom becomes reclaimable on its next
        //    escalation. Picking the requester itself counts as denied.
        let loaded: Vec<&(usize, MemoryBudget)> =
            live.iter().filter(|(_, b)| b.used() > 0).collect();
        if loaded.is_empty() {
            self.denied.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) % loaded.len();
        let (victim, v) = loaded[at];
        if *victim == lease_id {
            self.denied.fetch_add(1, Ordering::Relaxed);
        } else {
            v.request_shed(grant);
            self.sheds.fetch_add(1, Ordering::Relaxed);
            self.shed_bytes.fetch_add(grant as u64, Ordering::Relaxed);
        }
        false
    }
}

/// The job-wide memory governor. Cheap to clone (shared state).
#[derive(Clone)]
pub struct MemoryGovernor {
    inner: Arc<GovInner>,
}

impl std::fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("pool_limit", &self.inner.pool.limit())
            .field("pool_used", &self.inner.pool.used())
            .finish()
    }
}

impl MemoryGovernor {
    /// Create a governor owning a `global_limit`-byte pool.
    pub fn new(global_limit: usize) -> Self {
        MemoryGovernor {
            inner: Arc::new(GovInner {
                pool: MemoryBudget::new(global_limit),
                min_grant: (global_limit / 64).clamp(256, 1 << 20),
                leases: Mutex::new(Vec::new()),
                next_id: AtomicUsize::new(0),
                cursor: AtomicUsize::new(0),
                leases_total: AtomicU64::new(0),
                rebalances: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                shed_bytes: AtomicU64::new(0),
                denied: AtomicU64::new(0),
            }),
        }
    }

    /// Lease a child budget with an `initial` limit. The lease escalates
    /// back to this governor when exhausted; dropping every clone of the
    /// returned budget ends the lease (its committed limit returns to
    /// slack, any un-released bytes refund the pool).
    pub fn lease(&self, initial: usize) -> MemoryBudget {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let esc: Weak<dyn Escalator> = Arc::downgrade(&self.inner) as Weak<dyn Escalator>;
        let budget = MemoryBudget::leased(&self.inner.pool, initial, esc, id);
        self.inner
            .leases
            .lock()
            .expect("governor lock")
            .push(LeaseEntry {
                id,
                budget: budget.downgrade(),
            });
        self.inner.leases_total.fetch_add(1, Ordering::Relaxed);
        budget
    }

    /// The shared pool (for gauges: `used`, `high_water`, `limit`).
    pub fn pool(&self) -> &MemoryBudget {
        &self.inner.pool
    }

    /// Is pool utilization at or above [`DEFAULT_HIGH_WATER`]? The
    /// shuffle uses this to backpressure map-side pushes.
    pub fn over_high_water(&self) -> bool {
        let limit = self.inner.pool.limit();
        limit > 0 && self.inner.pool.used() as f64 >= DEFAULT_HIGH_WATER * limit as f64
    }

    /// Snapshot the activity counters.
    pub fn counters(&self) -> GovernorCounters {
        GovernorCounters {
            leases: self.inner.leases_total.load(Ordering::Relaxed),
            rebalances: self.inner.rebalances.load(Ordering::Relaxed),
            sheds: self.inner.sheds.load(Ordering::Relaxed),
            shed_bytes_requested: self.inner.shed_bytes.load(Ordering::Relaxed),
            denied: self.inner.denied.load(Ordering::Relaxed),
        }
    }

    /// Live (un-dropped) leases right now.
    pub fn live_leases(&self) -> usize {
        let mut guard = self.inner.leases.lock().expect("governor lock");
        self.inner.live(&mut guard).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(limit: usize) -> MemoryGovernor {
        MemoryGovernor::new(limit)
    }

    #[test]
    fn lease_grants_charge_the_pool() {
        let g = gov(1000);
        let a = g.lease(500);
        let b = g.lease(500);
        assert!(a.try_grant(400));
        assert!(b.try_grant(300));
        assert_eq!(g.pool().used(), 700);
        assert_eq!(g.live_leases(), 2);
        a.release(400);
        b.release(300);
        assert_eq!(g.pool().used(), 0);
        assert_eq!(g.counters().leases, 2);
    }

    #[test]
    fn skewed_demand_rebalances_from_idle_sibling() {
        // Two children split the pool statically; the hot one outgrows its
        // half by borrowing the idle sibling's headroom — no spill needed.
        let g = gov(1000);
        let hot = g.lease(500);
        let idle = g.lease(500);
        assert!(idle.try_grant(50)); // idle sits on 450 B of headroom
        assert!(hot.try_grant(500));
        assert!(!hot.try_grant(300), "plain grant is over the lease");
        assert!(
            hot.try_grant_or_request(300),
            "escalation must reclaim idle headroom"
        );
        assert!(hot.limit() > 500, "hot lease limit must have grown");
        assert!(idle.limit() < 500, "idle lease must have donated");
        assert!(idle.limit() >= idle.used(), "donor keeps what it uses");
        let c = g.counters();
        assert!(c.rebalances >= 1);
        assert_eq!(c.sheds, 0, "no shed under mere skew");
        assert!(g.pool().used() <= g.pool().limit());
    }

    #[test]
    fn uncommitted_slack_grows_lease_without_donor() {
        let g = gov(1000);
        let only = g.lease(200);
        assert!(only.try_grant(200));
        assert!(only.try_grant_or_request(100), "pool has 800 B slack");
        assert!(only.limit() >= 300);
        assert_eq!(g.counters().rebalances, 1);
    }

    #[test]
    fn global_pressure_posts_shed_on_first_loaded_lease() {
        let g = gov(1000);
        let big = g.lease(600);
        let small = g.lease(400);
        assert!(big.try_grant(600));
        assert!(small.try_grant(390));
        // No slack, no reclaimable headroom: the rotation starts at the
        // first loaded lease, so `big` is the victim and the grant is
        // denied.
        assert!(!small.try_grant_or_request(200));
        assert!(
            big.shed_requested() >= 200,
            "victim must carry the shed request"
        );
        assert_eq!(small.shed_requested(), 0, "requester is not the victim");
        let c = g.counters();
        assert_eq!(c.sheds, 1);
        assert!(c.shed_bytes_requested >= 200);

        // After the victim sheds, the next escalation reclaims its now-
        // idle headroom.
        big.release(big.take_shed_request().min(600));
        assert!(small.try_grant_or_request(200));
        big.release(big.used());
        small.release(small.used());
    }

    #[test]
    fn dead_leases_return_their_commitment_to_slack() {
        let g = gov(1000);
        let a = g.lease(900);
        assert!(a.try_grant(900));
        drop(a);
        assert_eq!(g.pool().used(), 0, "dead lease refunds the pool");
        let b = g.lease(100);
        assert!(
            b.try_grant_or_request(800),
            "commitment of the dead lease is slack again"
        );
        assert_eq!(g.live_leases(), 1);
    }

    #[test]
    fn round_robin_rotates_victims() {
        let g = gov(300);
        let a = g.lease(100);
        let b = g.lease(100);
        let c = g.lease(100);
        assert!(a.try_grant(100));
        assert!(b.try_grant(100));
        assert!(c.try_grant(95));
        // Repeated denied escalations must spread shed requests around.
        for _ in 0..6 {
            let _ = c.try_grant_or_request(50);
        }
        let hit = [&a, &b, &c]
            .iter()
            .filter(|x| x.shed_requested() > 0)
            .count();
        assert!(hit >= 2, "round-robin must rotate across victims");
    }

    #[test]
    fn rotation_skips_empty_leases() {
        let g = gov(300);
        let a = g.lease(100);
        let empty = g.lease(100);
        let b = g.lease(100);
        let req = g.lease(0);
        assert!(a.try_grant(100));
        assert!(b.try_grant(100));
        // Loaded leases are [a, b]: the requester holds nothing, so it is
        // never picked, and the idle lease is never asked to shed.
        for _ in 0..4 {
            assert!(!req.try_grant_or_request(200));
        }
        assert_eq!(empty.shed_requested(), 0, "empty lease is never a victim");
        assert_eq!(req.shed_requested(), 0);
        assert!(a.shed_requested() > 0 && b.shed_requested() > 0);
        let c = g.counters();
        assert_eq!(c.sheds, 4);
        assert_eq!(c.denied, 0);
    }

    #[test]
    fn picking_the_requester_counts_as_denied() {
        let g = gov(200);
        let req = g.lease(100);
        let other = g.lease(100);
        assert!(req.try_grant(100));
        assert!(other.try_grant(100));
        // Loaded leases are [req, other]; the cursor starts on `req`.
        assert!(!req.try_grant_or_request(100));
        let c = g.counters();
        assert_eq!((c.sheds, c.denied), (0, 1), "self-pick sheds nothing");
        assert_eq!(req.shed_requested(), 0);
        assert_eq!(other.shed_requested(), 0);
        // The next escalation rotates to `other` and posts the shed there.
        assert!(!req.try_grant_or_request(100));
        let c = g.counters();
        assert_eq!((c.sheds, c.denied), (1, 1));
        assert!(
            other.shed_requested() >= 100,
            "shed lands on the chosen lease"
        );
        assert_eq!(req.shed_requested(), 0);
        req.release(100);
        other.release(100);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [MemoryPolicy::Static, MemoryPolicy::Adaptive] {
            assert_eq!(MemoryPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(MemoryPolicy::parse("largest-consumer"), None);
        assert_eq!(MemoryPolicy::default(), MemoryPolicy::Static);
    }

    #[test]
    fn over_high_water_tracks_pool_utilization() {
        let g = gov(1000);
        let a = g.lease(1000);
        assert!(!g.over_high_water());
        assert!(a.try_grant(850));
        assert!(g.over_high_water());
        a.release(100);
        assert!(!g.over_high_water());
        a.release(750);
    }

    #[test]
    fn stress_high_water_never_exceeds_global_limit() {
        // 8 threads lease, grant, escalate, shed and release concurrently;
        // the pool's high-water mark must never pass the global limit
        // (leases use try_grant only — no force overshoot).
        let global = 8 * 1024;
        let g = gov(global);
        std::thread::scope(|s| {
            for t in 0..8 {
                let g = g.clone();
                s.spawn(move || {
                    let lease = g.lease(global / 8);
                    let mut held = 0usize;
                    for i in 0..2000 {
                        let want = 64 + (t * 37 + i * 13) % 256;
                        if lease.try_grant_or_request(want) {
                            held += want;
                        } else {
                            // Spill path: drop everything we hold.
                            lease.release(held);
                            held = 0;
                        }
                        if lease.take_shed_request() > 0 {
                            lease.release(held);
                            held = 0;
                        }
                    }
                    lease.release(held);
                });
            }
        });
        assert_eq!(g.pool().used(), 0);
        assert!(
            g.pool().high_water() <= global,
            "pool high water {} exceeded global limit {}",
            g.pool().high_water(),
            global
        );
        assert_eq!(g.live_leases(), 0);
    }
}
