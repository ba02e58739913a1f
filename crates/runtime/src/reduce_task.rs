//! Reduce task execution: receive shuffle segments, drive the configured
//! group-by backend, emit output.
//!
//! The sort-merge backend here is the runtime-level reproduction of
//! Hadoop's reducer (Fig. 1 right half): it buffers *pre-sorted* map
//! segments, merges-and-spills them when its memory budget fills, lets
//! [`MultiPassMerger`] run progressive background merges, and performs the
//! blocking final merge at the end. It also implements MapReduce Online's
//! snapshot mechanism (§III-D): at configured map-completion fractions it
//! re-reads everything received so far and emits approximate answers —
//! "this is done by repeating the merge operation for each snapshot",
//! with the corresponding I/O charge.
//!
//! Hash backends delegate to the `onepass-groupby` operators.
//!
//! # Attempts, dedup, and retry
//!
//! When the driver runs with fault tolerance enabled, a reduce task must
//! cope with two new realities:
//!
//! * **Duplicate map attempts.** Retried or speculative map tasks can emit
//!   segments for the same logical map task more than once. The reducer
//!   buffers segments per `(map_task, attempt)` and *commits* exactly one
//!   attempt per task — the one whose [`ShuffleMsg::MapDone`] arrives
//!   first (per-channel FIFO ordering guarantees all of an attempt's
//!   segments precede its `MapDone`). Segments from losing attempts are
//!   dropped, so re-execution never double-counts records.
//! * **Its own failures.** A failing spill store (or an injected fault)
//!   aborts the in-flight backend state. Under a retry budget the wrapper
//!   rebuilds fresh backend state from a resources factory and *replays*
//!   the committed segments it retained, with early emissions muted so
//!   downstream consumers never see the same snapshot twice. Final output
//!   is staged and only released once `finish` succeeds, so a failed
//!   final merge cannot double-emit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;

use onepass_core::bytes_kv::{SegmentBuf, SegmentBufBuilder};
use onepass_core::error::{Error, Result};
use onepass_core::fault::{FaultAction, FaultInjector, FaultTarget};
use onepass_core::hashlib::ByteMap;
use onepass_core::io::{IoStats, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::metrics::{gauges, Phase, Profile};
use onepass_core::trace::LocalTracer;
use onepass_groupby::aggregate::StateInput;
use onepass_groupby::{
    Aggregator, EmitKind, GroupBy, MultiPassMerger, OpStats, Sink, SortMergeGrouper, VecSink,
};

use crate::job::{JobSpec, ReduceBackend};
use crate::shuffle::{Segment, ShuffleMsg};

/// Result of one reduce task.
#[derive(Debug, Clone)]
pub struct ReduceResult {
    /// The partition this task served.
    pub partition: usize,
    /// Operator statistics (records, groups, spill I/O, CPU profile).
    pub stats: OpStats,
    /// Snapshots emitted (sort-merge + snapshots backend only).
    pub snapshots_taken: u64,
    /// Execution attempts consumed (1 = succeeded first try).
    pub attempts: usize,
}

/// Fault-tolerance knobs for [`run_reduce_task_ft`].
#[derive(Debug, Clone)]
pub struct ReduceRetryOpts {
    /// Total attempts allowed, including the first (1 = no retries).
    pub max_attempts: usize,
    /// Sleep between a failed attempt and its retry.
    pub backoff: Duration,
    /// Dedup segments by `(map_task, attempt)` and commit the first
    /// attempt whose `MapDone` arrives. Enable whenever map tasks can run
    /// more than once (retries or speculation); leave off to preserve the
    /// eager single-attempt fast path.
    pub dedup_attempts: bool,
    /// Planned fault schedule consulted per absorbed segment.
    pub injector: FaultInjector,
}

impl Default for ReduceRetryOpts {
    fn default() -> Self {
        ReduceRetryOpts {
            max_attempts: 1,
            backoff: Duration::ZERO,
            dedup_attempts: false,
            injector: FaultInjector::none(),
        }
    }
}

/// The aggregate the backend should run: raw job aggregate when segments
/// carry raw values; a [`StateInput`] wrapper when map-side combine ran.
fn effective_agg(job: &JobSpec, combined: bool) -> Arc<dyn Aggregator> {
    if combined {
        Arc::new(StateInput(Arc::clone(&job.agg)))
    } else {
        Arc::clone(&job.agg)
    }
}

/// Render a caught panic payload for error messages.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

/// Run `f`, converting a panic into an [`Error::InvalidState`] so the
/// retry machinery treats buggy user code like any other task failure.
fn guarded<R>(f: impl FnOnce() -> Result<R>) -> Result<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(Error::InvalidState(format!(
            "reduce task panicked: {}",
            panic_message(p.as_ref())
        ))),
    }
}

/// Consult the fault plan before absorbing more records. `records` is the
/// number of shuffle records this attempt has already absorbed.
fn check_injector(
    injector: &FaultInjector,
    partition: usize,
    attempt: usize,
    records: u64,
) -> Result<()> {
    match injector.check(FaultTarget::Reduce, partition, attempt, records) {
        None => Ok(()),
        Some(FaultAction::Fail) => Err(Error::Io(std::io::Error::other(format!(
            "injected fault: reduce task {partition} attempt {attempt}"
        )))),
        Some(FaultAction::Panic) => {
            panic!("injected panic: reduce task {partition} attempt {attempt}")
        }
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Per-task governance bookkeeping for [`run_reduce_task_ft`].
struct GovState {
    /// Lease limit at the last check; a change means the governor
    /// rebalanced this task's share.
    last_limit: usize,
    /// Shed requests this task honoured.
    sheds: u64,
    /// Bytes those sheds actually freed.
    shed_bytes: u64,
}

/// Sink adapter that drops [`EmitKind::Early`] emissions. Used while
/// replaying retained segments into a rebuilt attempt, so snapshots /
/// early answers the first attempt already published are not repeated.
struct MuteEarly<'a> {
    inner: &'a mut dyn Sink,
}

impl Sink for MuteEarly<'_> {
    fn emit(&mut self, key: &[u8], value: &[u8], kind: EmitKind) {
        if kind != EmitKind::Early {
            self.inner.emit(key, value, kind);
        }
    }
}

/// Run one reduce task until all `total_map_tasks` map tasks have
/// reported done, then finish the backend into `sink`. Single-attempt
/// compatibility entry point: no retries, no attempt dedup.
#[allow(clippy::too_many_arguments)]
pub fn run_reduce_task(
    job: &JobSpec,
    partition: usize,
    rx: &Receiver<ShuffleMsg>,
    total_map_tasks: usize,
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    sink: &mut dyn Sink,
    trace: &mut LocalTracer,
) -> Result<ReduceResult> {
    let mut first = Some((store, budget));
    run_reduce_task_ft(
        job,
        partition,
        rx,
        total_map_tasks,
        &mut move || {
            first
                .take()
                .ok_or_else(|| Error::InvalidState("single-attempt reduce cannot rebuild".into()))
        },
        sink,
        trace,
        &ReduceRetryOpts::default(),
    )
}

/// Factory producing the spill store + memory budget for one reduce
/// attempt. Called once up front and once per retry; handing each attempt
/// a *fresh* budget guarantees reservations abandoned by a failed attempt
/// cannot starve its successor.
pub type ReduceResources<'a> = dyn FnMut() -> Result<(Arc<dyn SpillStore>, MemoryBudget)> + 'a;

/// Fault-tolerant reduce task: attempt-dedups shuffle input, retries the
/// backend on failure (rebuilding state and replaying retained committed
/// segments), and never double-emits output across attempts.
#[allow(clippy::too_many_arguments)]
pub fn run_reduce_task_ft(
    job: &JobSpec,
    partition: usize,
    rx: &Receiver<ShuffleMsg>,
    total_map_tasks: usize,
    resources: &mut ReduceResources<'_>,
    sink: &mut dyn Sink,
    trace: &mut LocalTracer,
    opts: &ReduceRetryOpts,
) -> Result<ReduceResult> {
    run_reduce_task_open(
        job,
        partition,
        rx,
        Some(total_map_tasks),
        resources,
        sink,
        trace,
        opts,
    )
}

/// [`run_reduce_task_ft`] generalised over an *unknown* map-task count:
/// with `total_map_tasks == None` (a streamed split feed), the task keeps
/// absorbing until a [`ShuffleMsg::InputExhausted`] broadcast tells it how
/// many map tasks the job ended up with. Per-task bookkeeping grows on
/// demand since task ids are discovered as segments arrive.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_reduce_task_open(
    job: &JobSpec,
    partition: usize,
    rx: &Receiver<ShuffleMsg>,
    total_map_tasks: Option<usize>,
    resources: &mut ReduceResources<'_>,
    sink: &mut dyn Sink,
    trace: &mut LocalTracer,
    opts: &ReduceRetryOpts,
) -> Result<ReduceResult> {
    let retain = opts.max_attempts > 1;
    let dedup = opts.dedup_attempts;
    let mut total = total_map_tasks;
    let mut attempt = 0usize;
    // Records absorbed by the *current* attempt; the injector's trigger
    // counter. Reset (to the replayed total) when an attempt is rebuilt.
    let mut attempt_records = 0u64;
    // Committed segments kept for replay; only populated when retries are
    // actually possible, so the common single-attempt path pays nothing.
    let mut retained: Vec<Segment> = Vec::new();
    let sized = total.unwrap_or(0);
    // Per map task: the committed attempt id, once its MapDone arrived.
    let mut committed: Vec<Option<usize>> = vec![None; sized];
    // Segments from not-yet-committed attempts, buffered until a MapDone
    // picks the winner.
    let mut pending: Vec<Vec<Segment>> = (0..sized).map(|_| Vec::new()).collect();
    let mut maps_done = 0usize;
    let mut snapshots_taken = 0u64;
    let mut shuffle_wait = Duration::ZERO;

    let (store, budget) = resources()?;
    if budget.is_leased() {
        trace.instant(
            "mem_lease",
            "mem",
            &[
                ("partition", partition as f64),
                ("limit_bytes", budget.limit() as f64),
            ],
        );
    }
    // Governance bookkeeping: the last lease limit we observed (to spot
    // governor rebalances) and shed totals for the profile counters.
    let mut gov = GovState {
        last_limit: budget.limit(),
        sheds: 0,
        shed_bytes: 0,
    };
    let mut state = Some(AttemptState::new(job, store, budget, total)?);

    // Retry ladder shared by absorb / snapshot / finish failures: burn an
    // attempt, back off, rebuild state, replay retained segments. Returns
    // the original error once the budget is exhausted.
    macro_rules! recover {
        ($err:expr) => {{
            let mut err = $err;
            loop {
                trace.instant(
                    "task_failed",
                    "fault",
                    &[("partition", partition as f64), ("attempt", attempt as f64)],
                );
                attempt += 1;
                if attempt >= opts.max_attempts {
                    return Err(err);
                }
                if !opts.backoff.is_zero() {
                    std::thread::sleep(opts.backoff);
                }
                trace.instant(
                    "retry",
                    "fault",
                    &[("partition", partition as f64), ("attempt", attempt as f64)],
                );
                match rebuild(
                    job, resources, total, maps_done, &retained, opts, partition, attempt, sink,
                ) {
                    Ok((st, replayed)) => {
                        gov.last_limit = st.budget_ref().limit();
                        state = Some(st);
                        attempt_records = replayed;
                        break;
                    }
                    Err(e2) => err = e2,
                }
            }
        }};
    }

    // Service governor demands between segments: record an observed lease
    // rebalance and honour a posted shed request (spill victim duty).
    // Static budgets never carry either, so this is branch-only overhead.
    macro_rules! govern {
        () => {{
            let (lim, target) = {
                let st = state.as_ref().expect("attempt state present");
                let b = st.budget_ref();
                (b.limit(), b.take_shed_request())
            };
            if lim != gov.last_limit {
                gov.last_limit = lim;
                trace.instant(
                    "mem_rebalance",
                    "mem",
                    &[("partition", partition as f64), ("limit_bytes", lim as f64)],
                );
            }
            if target > 0 {
                let res = {
                    let st = state.as_mut().expect("attempt state present");
                    guarded(|| st.shed(target, trace))
                };
                match res {
                    Ok(freed) => {
                        gov.sheds += 1;
                        gov.shed_bytes += freed as u64;
                        trace.instant(
                            "mem_shed",
                            "mem",
                            &[
                                ("partition", partition as f64),
                                ("target_bytes", target as f64),
                                ("freed_bytes", freed as f64),
                            ],
                        );
                    }
                    Err(e) => {
                        if let Some(st) = state.as_mut() {
                            st.abandon();
                        }
                        recover!(e);
                    }
                }
            }
        }};
    }

    // Absorb one committed segment into the current attempt's state,
    // recovering on failure.
    macro_rules! deliver {
        ($seg:expr) => {{
            let seg = $seg;
            if retain {
                retained.push(seg.clone());
            }
            let n = seg.len() as u64;
            let res = {
                let st = state.as_mut().expect("attempt state present");
                guarded(|| {
                    check_injector(&opts.injector, partition, attempt, attempt_records)?;
                    st.absorb(job, seg, sink, trace)
                })
            };
            match res {
                Ok(()) => {
                    attempt_records += n;
                    govern!();
                }
                Err(e) => {
                    if let Some(st) = state.as_mut() {
                        st.abandon();
                    }
                    recover!(e);
                }
            }
        }};
    }

    // Bookkeeping after a map task commits: snapshots may be due.
    macro_rules! after_commit {
        () => {{
            let res = {
                let st = state.as_mut().expect("attempt state present");
                guarded(|| st.on_map_committed(maps_done, total, sink, trace))
            };
            match res {
                Ok(n) => snapshots_taken += n,
                Err(e) => {
                    if let Some(st) = state.as_mut() {
                        st.abandon();
                    }
                    recover!(e);
                }
            }
        }};
    }

    // Grow per-task bookkeeping on demand: under a streamed feed, map
    // task ids are discovered as their segments arrive.
    macro_rules! ensure_task {
        ($id:expr) => {{
            let id = $id;
            if id >= committed.len() {
                committed.resize(id + 1, None);
                pending.resize_with(id + 1, Vec::new);
            }
        }};
    }

    // The shuffle phase (Fig. 2a lane): from task start until every map
    // task has a committed attempt. With an unknown total (streamed
    // feed), keep going until InputExhausted pins it down.
    trace.begin(Phase::Shuffle.label(), "phase");
    while total.is_none_or(|t| maps_done < t) {
        let wait_start = Instant::now();
        let msg = rx
            .recv()
            .map_err(|_| Error::InvalidState("shuffle channel closed early".into()))?;
        shuffle_wait += wait_start.elapsed();
        match msg {
            ShuffleMsg::Abort => {
                trace.end(Phase::Shuffle.label(), "phase");
                return Err(Error::InvalidState("job aborted by driver".into()));
            }
            ShuffleMsg::InputExhausted { total_map_tasks: t } => {
                total = Some(t);
                // Snapshot fractions become concrete map-completion
                // triggers now; triggers already passed are dropped so a
                // late-arriving total can't cause stale snapshots.
                if let Some(st) = state.as_mut() {
                    st.install_snapshot_plan(t, maps_done);
                }
            }
            ShuffleMsg::Segment(seg) => {
                if !dedup {
                    // Fast path: exactly one attempt per map task exists,
                    // consume eagerly (pipelined reduce).
                    deliver!(seg);
                } else {
                    ensure_task!(seg.map_task);
                    match committed[seg.map_task] {
                        Some(a) if a == seg.attempt => deliver!(seg),
                        Some(_) => {} // losing attempt: drop
                        None => pending[seg.map_task].push(seg),
                    }
                }
            }
            ShuffleMsg::MapDone {
                map_task,
                attempt: map_attempt,
            } => {
                if !dedup {
                    maps_done += 1;
                    after_commit!();
                } else {
                    ensure_task!(map_task);
                    if committed[map_task].is_none() {
                        committed[map_task] = Some(map_attempt);
                        maps_done += 1;
                        for seg in std::mem::take(&mut pending[map_task]) {
                            if seg.attempt == map_attempt {
                                deliver!(seg);
                            }
                        }
                        after_commit!();
                    }
                    // else: a duplicate MapDone from a losing attempt —
                    // ignore.
                }
            }
        }
    }
    trace.end(Phase::Shuffle.label(), "phase");

    // Finish, retrying on failure. While retries remain, finals are staged
    // and only flushed on success so a mid-merge failure cannot leave half
    // the output already emitted.
    let mut stats = loop {
        let st = state.take().expect("attempt state present");
        let can_retry = attempt + 1 < opts.max_attempts;
        let res = if can_retry {
            let mut staged = VecSink::default();
            let r = guarded(|| {
                check_injector(&opts.injector, partition, attempt, attempt_records)?;
                st.finish(job, &mut staged, trace)
            });
            r.inspect(|_| {
                for (k, v, kind) in staged.emitted {
                    sink.emit(&k, &v, kind);
                }
            })
        } else {
            guarded(|| {
                check_injector(&opts.injector, partition, attempt, attempt_records)?;
                st.finish(job, sink, trace)
            })
        };
        match res {
            Ok(stats) => break stats,
            Err(e) => recover!(e),
        }
    };
    stats.profile.add_time(Phase::Shuffle, shuffle_wait);
    if gov.sheds > 0 {
        stats.profile.add_count(gauges::MEM_SHED, gov.sheds);
        stats
            .profile
            .add_count(gauges::MEM_SHED_BYTES, gov.shed_bytes);
    }
    Ok(ReduceResult {
        partition,
        stats,
        snapshots_taken,
        attempts: attempt + 1,
    })
}

/// Build fresh attempt state and replay the retained committed segments
/// into it. Early emissions are muted (already published by a previous
/// attempt) and pending snapshots that were already due are suppressed.
#[allow(clippy::too_many_arguments)]
fn rebuild(
    job: &JobSpec,
    resources: &mut ReduceResources<'_>,
    total_map_tasks: Option<usize>,
    maps_done: usize,
    retained: &[Segment],
    opts: &ReduceRetryOpts,
    partition: usize,
    attempt: usize,
    sink: &mut dyn Sink,
) -> Result<(AttemptState, u64)> {
    let (store, budget) = resources()?;
    let mut st = AttemptState::new(job, store, budget, total_map_tasks)?;
    st.skip_snapshots_up_to(maps_done, total_map_tasks);
    let mut records = 0u64;
    // Replay runs under a disabled tracer: the phases were already traced
    // by the failed attempt and re-tracing them would double the spans.
    let mut replay_trace = LocalTracer::disabled();
    let mut mute = MuteEarly { inner: sink };
    for seg in retained {
        let n = seg.len() as u64;
        let res = guarded(|| {
            check_injector(&opts.injector, partition, attempt, records)?;
            st.absorb(job, seg.clone(), &mut mute, &mut replay_trace)
        });
        if let Err(e) = res {
            st.abandon();
            return Err(e);
        }
        records += n;
    }
    Ok((st, records))
}

// ---------------------------------------------------------------------------
// Per-attempt backend state
// ---------------------------------------------------------------------------

/// One attempt's worth of backend state. Built fresh per attempt so a
/// retry never trusts data structures a failure may have corrupted.
enum AttemptState {
    Sort(Box<SortState>),
    Hash(HashState),
}

impl AttemptState {
    fn new(
        job: &JobSpec,
        store: Arc<dyn SpillStore>,
        budget: MemoryBudget,
        total_map_tasks: Option<usize>,
    ) -> Result<Self> {
        match &job.backend {
            ReduceBackend::SortMerge {
                merge_factor,
                snapshots,
            } => {
                let io_base = store.stats();
                let merger = MultiPassMerger::new(Arc::clone(&store), *merge_factor)?;
                // Snapshot fractions only become concrete map-completion
                // triggers once the total is known; under a streamed feed
                // that happens at InputExhausted.
                let snapshot_plan = match total_map_tasks {
                    Some(total) => plan_from_fracs(snapshots, total),
                    None => Vec::new(),
                };
                Ok(AttemptState::Sort(Box::new(SortState {
                    store,
                    budget,
                    io_base,
                    merger,
                    buffered: Vec::new(),
                    reserved: 0,
                    peak_reserved: 0,
                    profile: Profile::new(),
                    records_in: 0,
                    spills: 0,
                    agg: None,
                    snapshot_fracs: snapshots.clone(),
                    snapshot_plan,
                })))
            }
            _ => Ok(AttemptState::Hash(HashState {
                store,
                budget,
                grouper: None,
            })),
        }
    }

    /// The map-task total just became known (streamed feed): compute the
    /// snapshot triggers, dropping any already passed.
    fn install_snapshot_plan(&mut self, total_map_tasks: usize, maps_done: usize) {
        if let AttemptState::Sort(s) = self {
            let mut plan = plan_from_fracs(&s.snapshot_fracs, total_map_tasks);
            plan.retain(|&t| t > maps_done);
            s.snapshot_plan = plan;
        }
    }

    /// Drop snapshot triggers that already fired (or can no longer fire)
    /// in a previous attempt.
    fn skip_snapshots_up_to(&mut self, maps_done: usize, total_map_tasks: Option<usize>) {
        if let AttemptState::Sort(s) = self {
            match total_map_tasks {
                Some(total) if maps_done >= total => s.snapshot_plan.clear(),
                _ => s.snapshot_plan.retain(|&t| t > maps_done),
            }
        }
    }

    /// Release memory reservations held by a failed attempt so the next
    /// one starts from a clean budget (best effort; spill runs the failed
    /// attempt created stay on disk until the store is dropped).
    fn abandon(&mut self) {
        if let AttemptState::Sort(s) = self {
            s.budget.release(s.reserved);
            s.reserved = 0;
        }
    }

    /// The attempt's memory budget (a governor lease when adaptive).
    fn budget_ref(&self) -> &MemoryBudget {
        match self {
            AttemptState::Sort(s) => &s.budget,
            AttemptState::Hash(h) => &h.budget,
        }
    }

    /// Honour a governor shed request: move in-memory state to spill,
    /// freeing budget. Returns bytes freed.
    fn shed(&mut self, target_bytes: usize, trace: &mut LocalTracer) -> Result<usize> {
        match self {
            AttemptState::Sort(s) => s.shed(trace),
            AttemptState::Hash(h) => match &mut h.grouper {
                Some(g) => g.shed(target_bytes),
                None => Ok(0),
            },
        }
    }

    /// Absorb one committed segment.
    fn absorb(
        &mut self,
        job: &JobSpec,
        seg: Segment,
        sink: &mut dyn Sink,
        trace: &mut LocalTracer,
    ) -> Result<()> {
        match self {
            AttemptState::Sort(s) => s.absorb(job, seg, trace),
            AttemptState::Hash(h) => h.absorb(job, seg, sink, trace),
        }
    }

    /// A map task just committed; take any snapshots that are now due.
    /// Returns the number of snapshots emitted.
    fn on_map_committed(
        &mut self,
        maps_done: usize,
        total_map_tasks: Option<usize>,
        sink: &mut dyn Sink,
        trace: &mut LocalTracer,
    ) -> Result<u64> {
        match self {
            AttemptState::Sort(s) => s.on_map_committed(maps_done, total_map_tasks, sink, trace),
            AttemptState::Hash(_) => Ok(0),
        }
    }

    /// All input absorbed: run the final merge / reduce into `sink`.
    fn finish(
        self,
        job: &JobSpec,
        sink: &mut dyn Sink,
        trace: &mut LocalTracer,
    ) -> Result<OpStats> {
        match self {
            AttemptState::Sort(s) => s.finish(job, sink, trace),
            AttemptState::Hash(h) => h.finish(sink, trace),
        }
    }
}

/// Hash-backend state: a lazily-built `onepass-groupby` operator.
struct HashState {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    grouper: Option<Box<dyn GroupBy>>,
}

impl HashState {
    fn absorb(
        &mut self,
        job: &JobSpec,
        seg: Segment,
        sink: &mut dyn Sink,
        trace: &mut LocalTracer,
    ) -> Result<()> {
        let g = match &mut self.grouper {
            Some(g) => g,
            None => {
                // Lazily build the backend now that the first segment
                // tells us whether input is combined. Construction goes
                // through the executor's shared service.
                let agg = effective_agg(job, seg.combined);
                let g = crate::executor::build_hash_grouper(
                    &job.backend,
                    Arc::clone(&self.store),
                    self.budget.clone(),
                    agg,
                    Some(trace.fork()),
                )?;
                self.grouper.insert(g)
            }
        };
        g.push_batch(&seg.records, sink)?;
        Ok(())
    }

    fn finish(self, sink: &mut dyn Sink, trace: &mut LocalTracer) -> Result<OpStats> {
        trace.begin(Phase::ReduceFn.label(), "phase");
        let stats = match self.grouper {
            Some(mut g) => g.finish(sink),
            None => Ok(OpStats::default()), // received no data at all
        };
        trace.end(Phase::ReduceFn.label(), "phase");
        stats
    }
}

// ---------------------------------------------------------------------------
// Sort-merge reduce (Hadoop / HOP)
// ---------------------------------------------------------------------------

/// Sort-merge backend state for one attempt. Buffered segments are the
/// arena-backed [`SegmentBuf`]s straight off the shuffle channel — sorted
/// in place (entry permutation only) when a segment arrives unsorted.
struct SortState {
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    io_base: IoStats,
    merger: MultiPassMerger,
    buffered: Vec<SegmentBuf>,
    reserved: usize,
    peak_reserved: usize,
    profile: Profile,
    records_in: u64,
    spills: u64,
    agg: Option<Arc<dyn Aggregator>>,
    /// Configured snapshot fractions, kept so the trigger plan can be
    /// (re)computed when a streamed feed's total arrives late.
    snapshot_fracs: Vec<f64>,
    snapshot_plan: Vec<usize>,
}

/// Convert snapshot fractions into sorted, deduped map-completion
/// trigger counts for a known map-task total.
fn plan_from_fracs(fracs: &[f64], total_map_tasks: usize) -> Vec<usize> {
    let mut plan: Vec<usize> = fracs
        .iter()
        .map(|f| ((f * total_map_tasks as f64).ceil() as usize).max(1))
        .collect();
    plan.sort_unstable();
    plan.dedup();
    plan
}

impl SortState {
    fn absorb(&mut self, job: &JobSpec, seg: Segment, trace: &mut LocalTracer) -> Result<()> {
        let a = self
            .agg
            .get_or_insert_with(|| effective_agg(job, seg.combined))
            .clone();
        let records = if seg.sorted {
            seg.records
        } else {
            // HOP "moves some of the sorting work to reducers"
            // (§III-D); charge it to the reduce side. Sorting permutes
            // the entry table only — the arena stays shared.
            let t = Instant::now();
            let sorted = seg.records.sorted_by_key();
            self.profile.add_time(Phase::ReduceGroup, t.elapsed());
            sorted
        };
        self.records_in += records.len() as u64;
        let bytes: usize = records.payload_bytes() + 16 * records.len();
        let count_trigger = self.buffered.len() + 1 >= job.inmem_merge_threshold;
        // Under a governor lease, ask for more budget before giving up
        // and spilling; a static budget rejects escalation outright.
        if count_trigger || !self.budget.try_grant_or_request(bytes) {
            spill_buffered(
                &mut self.buffered,
                &mut self.merger,
                &self.store,
                &a,
                &mut self.profile,
                trace,
            )?;
            self.spills += 1;
            self.budget.release(self.reserved);
            self.reserved = 0;
            if !self.budget.try_grant(bytes) {
                // A single segment larger than the whole budget: a
                // reducer must be able to hold at least one
                // segment, so take it (soft limit) and flush it to
                // disk right below.
                self.budget.force_grant(bytes);
            }
        }
        self.reserved += bytes;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.buffered.push(records);
        if self.budget.over_limit() {
            spill_buffered(
                &mut self.buffered,
                &mut self.merger,
                &self.store,
                &a,
                &mut self.profile,
                trace,
            )?;
            self.spills += 1;
            self.budget.release(self.reserved);
            self.reserved = 0;
        }
        Ok(())
    }

    /// Governor shed duty: merge-spill the whole buffered tail (the
    /// smallest spillable unit this backend has) and release its budget.
    fn shed(&mut self, trace: &mut LocalTracer) -> Result<usize> {
        if self.buffered.is_empty() {
            return Ok(0);
        }
        let Some(a) = self.agg.clone() else {
            return Ok(0);
        };
        let freed = self.reserved;
        spill_buffered(
            &mut self.buffered,
            &mut self.merger,
            &self.store,
            &a,
            &mut self.profile,
            trace,
        )?;
        self.spills += 1;
        self.budget.release(self.reserved);
        self.reserved = 0;
        Ok(freed)
    }

    fn on_map_committed(
        &mut self,
        maps_done: usize,
        total_map_tasks: Option<usize>,
        sink: &mut dyn Sink,
        trace: &mut LocalTracer,
    ) -> Result<u64> {
        let mut taken = 0u64;
        // Snapshots are mid-stream approximations: none fire while the
        // total is unknown (empty plan) or once every map has committed.
        if total_map_tasks.is_some_and(|t| maps_done < t) {
            while self.snapshot_plan.first().is_some_and(|&t| maps_done >= t) {
                self.snapshot_plan.remove(0);
                if let Some(a) = &self.agg {
                    trace.begin("snapshot", "phase");
                    take_snapshot(
                        &self.buffered,
                        &self.merger,
                        &self.store,
                        a,
                        sink,
                        &mut self.profile,
                    )?;
                    trace.end("snapshot", "phase");
                    taken += 1;
                }
            }
        }
        Ok(taken)
    }

    fn finish(
        mut self,
        job: &JobSpec,
        sink: &mut dyn Sink,
        trace: &mut LocalTracer,
    ) -> Result<OpStats> {
        let a = self.agg.take().unwrap_or_else(|| effective_agg(job, false));
        let mut groups_out = 0u64;
        trace.begin(Phase::ReduceFn.label(), "phase");
        if self.merger.runs().is_empty() && self.merger.merge_passes() == 0 {
            // All data still in memory: merge and reduce directly.
            let t = Instant::now();
            let mut cursor = VecMergeCursor::new(&self.buffered);
            let mut current: Option<(Vec<u8>, Vec<u8>)> = None;
            while let Some((k, v)) = cursor.next_pair() {
                match &mut current {
                    Some((ck, state)) if ck.as_slice() == k => a.update(k, state, v),
                    _ => {
                        if let Some((ck, state)) = current.take() {
                            let out = a.finish(&ck, state);
                            sink.emit(&ck, &out, EmitKind::Final);
                            groups_out += 1;
                        }
                        current = Some((k.to_vec(), a.init(k, v)));
                    }
                }
            }
            if let Some((ck, state)) = current.take() {
                let out = a.finish(&ck, state);
                sink.emit(&ck, &out, EmitKind::Final);
                groups_out += 1;
            }
            self.profile.add_time(Phase::ReduceFn, t.elapsed());
        } else {
            // Hadoop behaviour: the in-memory tail is spilled too, then the
            // final (multi-pass if needed) merge feeds the reduce function.
            if !self.buffered.is_empty() {
                spill_buffered(
                    &mut self.buffered,
                    &mut self.merger,
                    &self.store,
                    &a,
                    &mut self.profile,
                    trace,
                )?;
                self.spills += 1;
            }
            let mut grouped = self.merger.into_grouped()?;
            let t = Instant::now();
            while let Some((key, states)) = grouped.next_group()? {
                let mut iter = states.into_iter();
                let mut state = iter.next().expect("non-empty group");
                for other in iter {
                    a.merge(&key, &mut state, &other);
                }
                let out = a.finish(&key, state);
                sink.emit(&key, &out, EmitKind::Final);
                groups_out += 1;
            }
            self.profile.add_time(Phase::ReduceFn, t.elapsed());
            self.profile.merge(grouped.profile());
            grouped.cleanup()?;
        }
        trace.end(Phase::ReduceFn.label(), "phase");
        self.budget.release(self.reserved);

        let io_now = self.store.stats();
        Ok(OpStats {
            records_in: self.records_in,
            groups_out,
            early_emits: 0, // snapshots are counted separately
            io: IoStats {
                bytes_written: io_now.bytes_written - self.io_base.bytes_written,
                bytes_read: io_now.bytes_read - self.io_base.bytes_read,
                runs_created: io_now.runs_created - self.io_base.runs_created,
                runs_deleted: io_now.runs_deleted - self.io_base.runs_deleted,
            },
            profile: self.profile,
            peak_mem: self.peak_reserved,
            spills: self.spills,
            passes: 0,
        })
    }
}

/// Streaming k-way merge over sorted in-memory segments. Fully borrowed:
/// keys and values are served as slices into the segments' arenas.
struct VecMergeCursor<'a> {
    segs: &'a [SegmentBuf],
    heap: BinaryHeap<Reverse<(&'a [u8], usize, usize)>>, // (key, seg, idx)
}

impl<'a> VecMergeCursor<'a> {
    fn new(segs: &'a [SegmentBuf]) -> Self {
        let mut heap = BinaryHeap::new();
        for (s, seg) in segs.iter().enumerate() {
            if !seg.is_empty() {
                heap.push(Reverse((seg.key(0), s, 0)));
            }
        }
        VecMergeCursor { segs, heap }
    }

    fn next_pair(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        let Reverse((key, s, i)) = self.heap.pop()?;
        if i + 1 < self.segs[s].len() {
            self.heap.push(Reverse((self.segs[s].key(i + 1), s, i + 1)));
        }
        Some((key, self.segs[s].value(i)))
    }
}

/// Merge all buffered sorted segments into one on-disk run, collapsing
/// key-streaks through the aggregate (Hadoop applies combine on reducer
/// buffer fill — and writes the data out regardless, §III-B.4). The
/// combined output is staged in one arena and written as a single batch.
fn spill_buffered(
    buffered: &mut Vec<SegmentBuf>,
    merger: &mut MultiPassMerger,
    store: &Arc<dyn SpillStore>,
    agg: &Arc<dyn Aggregator>,
    profile: &mut Profile,
    trace: &mut LocalTracer,
) -> Result<()> {
    if buffered.is_empty() {
        return Ok(());
    }
    trace.begin(Phase::Merge.label(), "phase");
    let t = Instant::now();
    let mut writer = store.begin_run()?;
    let mut cursor = VecMergeCursor::new(buffered);
    let mut out = SegmentBufBuilder::new();
    let mut current: Option<(Vec<u8>, Vec<u8>)> = None;
    while let Some((k, v)) = cursor.next_pair() {
        match &mut current {
            Some((ck, state)) if ck.as_slice() == k => agg.update(k, state, v),
            _ => {
                if let Some((ck, state)) = current.take() {
                    out.push(&ck, &state);
                }
                current = Some((k.to_vec(), agg.init(k, v)));
            }
        }
    }
    if let Some((ck, state)) = current.take() {
        out.push(&ck, &state);
    }
    writer.write_segment(&out.finish())?;
    let meta = writer.finish()?;
    profile.add_time(Phase::Merge, t.elapsed());
    trace.end(Phase::Merge.label(), "phase");
    trace.instant(
        "reduce_spill",
        "spill",
        &[
            ("bytes", meta.bytes as f64),
            ("records", meta.records as f64),
        ],
    );
    buffered.clear();
    merger.add_run(meta)
}

/// MapReduce Online snapshot: non-destructively re-read everything
/// received so far (on-disk runs + in-memory segments), aggregate, and
/// emit approximate answers. The re-read is the snapshot's I/O cost.
fn take_snapshot(
    buffered: &[SegmentBuf],
    merger: &MultiPassMerger,
    store: &Arc<dyn SpillStore>,
    agg: &Arc<dyn Aggregator>,
    sink: &mut dyn Sink,
    profile: &mut Profile,
) -> Result<()> {
    let t = Instant::now();
    let mut states: ByteMap<Vec<u8>> = ByteMap::default();
    for run in merger.runs() {
        let mut reader = store.open_run(run.id)?;
        while let Some(rec) = reader.next_record()? {
            // Run records are already aggregate states.
            match states.get_mut(rec.key) {
                Some(s) => agg.merge(rec.key, s, rec.value),
                None => {
                    states.insert(rec.key.to_vec(), rec.value.to_vec());
                }
            }
        }
    }
    for seg in buffered {
        for (k, v) in seg.iter() {
            match states.get_mut(k) {
                Some(s) => agg.update(k, s, v),
                None => {
                    states.insert(k.to_vec(), agg.init(k, v));
                }
            }
        }
    }
    for (k, state) in states {
        let out = agg.finish(&k, state);
        sink.emit(&k, &out, EmitKind::Early);
    }
    profile.add_time(Phase::Merge, t.elapsed());
    Ok(())
}

/// In-memory sort-merge reduce used by tests and by the capability matrix;
/// delegates to [`SortMergeGrouper`]. Exposed mainly so downstream crates
/// can run a standalone sort-merge reduce outside a full job.
pub fn standalone_sortmerge(
    store: Arc<dyn SpillStore>,
    budget: MemoryBudget,
    merge_factor: usize,
    agg: Arc<dyn Aggregator>,
) -> Result<SortMergeGrouper> {
    SortMergeGrouper::new(store, budget, merge_factor, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ShuffleMode};
    use crate::shuffle::{shuffle_fabric, Segment};
    use onepass_core::fault::FaultPlan;
    use onepass_core::io::SharedMemStore;
    use onepass_groupby::{SumAgg, VecSink};

    fn sorted_seg(map_task: usize, pairs: &[(&str, u64)]) -> Segment {
        let mut records: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.to_le_bytes().to_vec()))
            .collect();
        records.sort();
        Segment {
            map_task,
            attempt: 0,
            partition: 0,
            sorted: true,
            combined: false,
            records: SegmentBuf::from_pairs(records.iter().map(|(k, v)| (&k[..], &v[..]))),
        }
    }

    fn job_sortmerge(snapshots: Vec<f64>) -> JobSpec {
        JobSpec::builder("t")
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .backend(ReduceBackend::SortMerge {
                merge_factor: 3,
                snapshots,
            })
            .shuffle(ShuffleMode::Pull)
            .build()
            .unwrap()
    }

    fn dec(v: &[u8]) -> u64 {
        u64::from_le_bytes(v.try_into().unwrap())
    }

    #[test]
    fn sortmerge_reduce_in_memory() {
        let job = job_sortmerge(vec![]);
        let (tx, rxs) = shuffle_fabric(1, 64);
        tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2)]));
        tx.send_segment(sorted_seg(1, &[("a", 10), ("c", 3)]));
        tx.map_done(0, 0);
        tx.map_done(1, 0);
        let mut sink = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        let res = run_reduce_task(
            &job,
            0,
            &rxs[0],
            2,
            store,
            MemoryBudget::unlimited(),
            &mut sink,
            &mut LocalTracer::disabled(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 3);
        assert_eq!(res.stats.io.bytes_written, 0);
        assert_eq!(res.attempts, 1);
        let a = sink
            .emitted
            .iter()
            .find(|(k, _, _)| k == b"a")
            .map(|(_, v, _)| dec(v))
            .unwrap();
        assert_eq!(a, 11);
    }

    #[test]
    fn sortmerge_reduce_spills_and_merges() {
        let job = job_sortmerge(vec![]);
        let (tx, rxs) = shuffle_fabric(1, 1024);
        let n_maps = 12;
        for m in 0..n_maps {
            let pairs: Vec<(String, u64)> = (0..20)
                .map(|i| (format!("key{:03}", (m * 7 + i) % 40), 1u64))
                .collect();
            let borrowed: Vec<(&str, u64)> = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            tx.send_segment(sorted_seg(m, &borrowed));
            tx.map_done(m, 0);
        }
        let mut sink = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        let res = run_reduce_task(
            &job,
            0,
            &rxs[0],
            n_maps,
            store,
            MemoryBudget::new(700),
            &mut sink,
            &mut LocalTracer::disabled(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 40);
        assert!(res.stats.spills >= 2);
        assert!(res.stats.io.bytes_written > 0);
        let total: u64 = sink
            .emitted
            .iter()
            .filter(|(_, _, k)| *k == EmitKind::Final)
            .map(|(_, v, _)| dec(v))
            .sum();
        assert_eq!(total, (n_maps * 20) as u64);
    }

    #[test]
    fn snapshots_emit_early_answers_and_cost_io() {
        let job = job_sortmerge(vec![0.5]);
        let (tx, rxs) = shuffle_fabric(1, 1024);
        let n_maps = 4;
        for m in 0..n_maps {
            tx.send_segment(sorted_seg(m, &[("x", 1), ("y", 1)]));
            tx.map_done(m, 0);
        }
        let mut sink = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        let res = run_reduce_task(
            &job,
            0,
            &rxs[0],
            n_maps,
            store,
            MemoryBudget::unlimited(),
            &mut sink,
            &mut LocalTracer::disabled(),
        )
        .unwrap();
        assert_eq!(res.snapshots_taken, 1);
        let early: Vec<_> = sink
            .emitted
            .iter()
            .filter(|(_, _, k)| *k == EmitKind::Early)
            .collect();
        assert_eq!(early.len(), 2, "snapshot covers both keys");
        // Snapshot values are partial (2 of 4 maps seen).
        let x_early = early.iter().find(|(k, _, _)| k == b"x").unwrap();
        assert_eq!(dec(&x_early.1), 2);
        // Finals are exact.
        let x_final = sink
            .emitted
            .iter()
            .find(|(k, _, kind)| k == b"x" && *kind == EmitKind::Final)
            .unwrap();
        assert_eq!(dec(&x_final.1), 4);
    }

    #[test]
    fn hash_backend_reduces_combined_segments() {
        let job = JobSpec::builder("t")
            .aggregate(Arc::new(SumAgg))
            .reducers(1)
            .backend(ReduceBackend::IncHash { early: None })
            .build()
            .unwrap();
        let (tx, rxs) = shuffle_fabric(1, 64);
        // Combined segments: values are partial sums (states).
        let mut seg = sorted_seg(0, &[("a", 5), ("b", 7)]);
        seg.combined = true;
        tx.send_segment(seg);
        let mut seg = sorted_seg(1, &[("a", 3)]);
        seg.combined = true;
        tx.send_segment(seg);
        tx.map_done(0, 0);
        tx.map_done(1, 0);
        let mut sink = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        let res = run_reduce_task(
            &job,
            0,
            &rxs[0],
            2,
            store,
            MemoryBudget::unlimited(),
            &mut sink,
            &mut LocalTracer::disabled(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 2);
        let a = sink
            .emitted
            .iter()
            .find(|(k, _, _)| k == b"a")
            .map(|(_, v, _)| dec(v))
            .unwrap();
        assert_eq!(a, 8, "partial states must merge, not re-count");
    }

    #[test]
    fn reducer_with_no_segments_finishes_cleanly() {
        let job = job_sortmerge(vec![]);
        let (tx, rxs) = shuffle_fabric(1, 8);
        tx.map_done(0, 0);
        let mut sink = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        let res = run_reduce_task(
            &job,
            0,
            &rxs[0],
            1,
            store,
            MemoryBudget::unlimited(),
            &mut sink,
            &mut LocalTracer::disabled(),
        )
        .unwrap();
        assert_eq!(res.stats.groups_out, 0);
        assert!(sink.emitted.is_empty());
    }

    /// Build a per-attempt resources factory over fresh memory stores
    /// (each attempt gets its own store + budget, like the FT driver).
    fn fresh_resources() -> impl FnMut() -> Result<(Arc<dyn SpillStore>, MemoryBudget)> {
        move || {
            let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
            Ok((store, MemoryBudget::unlimited()))
        }
    }

    #[test]
    fn injected_fault_retries_and_output_matches_clean_run() {
        let job = job_sortmerge(vec![]);
        let feed = |tx: &crate::shuffle::ShuffleTx| {
            tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2)]));
            tx.map_done(0, 0);
            tx.send_segment(sorted_seg(1, &[("a", 10), ("c", 3)]));
            tx.map_done(1, 0);
        };

        // Clean run.
        let (tx, rxs) = shuffle_fabric(1, 64);
        feed(&tx);
        let mut clean = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        run_reduce_task(
            &job,
            0,
            &rxs[0],
            2,
            store,
            MemoryBudget::unlimited(),
            &mut clean,
            &mut LocalTracer::disabled(),
        )
        .unwrap();

        // Faulted run: attempt 0 dies after absorbing 1 record.
        let (tx, rxs) = shuffle_fabric(1, 64);
        feed(&tx);
        let mut sink = VecSink::default();
        let opts = ReduceRetryOpts {
            max_attempts: 3,
            injector: FaultPlan::new().fail_reduce(0, 0, 1).into_injector(),
            ..Default::default()
        };
        let res = run_reduce_task_ft(
            &job,
            0,
            &rxs[0],
            2,
            &mut fresh_resources(),
            &mut sink,
            &mut LocalTracer::disabled(),
            &opts,
        )
        .unwrap();
        assert_eq!(res.attempts, 2, "one retry consumed");
        assert_eq!(sink.emitted, clean.emitted, "recovered output identical");
    }

    #[test]
    fn exhausted_attempts_surface_the_error() {
        let job = job_sortmerge(vec![]);
        let (tx, rxs) = shuffle_fabric(1, 64);
        tx.send_segment(sorted_seg(0, &[("a", 1), ("b", 2)]));
        tx.map_done(0, 0);
        let mut sink = VecSink::default();
        // Both attempts are scheduled to fail.
        let opts = ReduceRetryOpts {
            max_attempts: 2,
            injector: FaultPlan::new()
                .fail_reduce(0, 0, 0)
                .fail_reduce(0, 1, 0)
                .into_injector(),
            ..Default::default()
        };
        let err = run_reduce_task_ft(
            &job,
            0,
            &rxs[0],
            1,
            &mut fresh_resources(),
            &mut sink,
            &mut LocalTracer::disabled(),
            &opts,
        )
        .unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(sink.emitted.is_empty(), "no partial finals leak");
    }

    #[test]
    fn attempt_dedup_commits_first_map_done_winner() {
        let job = job_sortmerge(vec![]);
        let (tx, rxs) = shuffle_fabric(1, 64);
        // Two attempts of map task 0 race; attempt 1's MapDone arrives
        // first so its segments win. Attempt 0's earlier/later segments
        // must all be dropped.
        let mut loser = sorted_seg(0, &[("a", 100)]);
        loser.attempt = 0;
        tx.send_segment(loser);
        let mut winner = sorted_seg(0, &[("a", 1)]);
        winner.attempt = 1;
        tx.send_segment(winner);
        tx.map_done(0, 1);
        // A straggling segment + MapDone from the losing attempt.
        let mut late = sorted_seg(0, &[("a", 100)]);
        late.attempt = 0;
        tx.send_segment(late);
        tx.map_done(0, 0);
        // Second logical map task, single attempt.
        tx.send_segment(sorted_seg(1, &[("a", 2)]));
        tx.map_done(1, 0);

        let mut sink = VecSink::default();
        let opts = ReduceRetryOpts {
            dedup_attempts: true,
            ..Default::default()
        };
        let res = run_reduce_task_ft(
            &job,
            0,
            &rxs[0],
            2,
            &mut fresh_resources(),
            &mut sink,
            &mut LocalTracer::disabled(),
            &opts,
        )
        .unwrap();
        assert_eq!(res.stats.records_in, 2, "losing attempt never absorbed");
        let a = sink
            .emitted
            .iter()
            .find(|(k, _, _)| k == b"a")
            .map(|(_, v, _)| dec(v))
            .unwrap();
        assert_eq!(a, 3, "winner (1) + task 1 (2), duplicates dropped");
    }

    #[test]
    fn abort_unblocks_reducer_with_error() {
        let job = job_sortmerge(vec![]);
        let (tx, rxs) = shuffle_fabric(1, 8);
        tx.send_segment(sorted_seg(0, &[("a", 1)]));
        tx.abort();
        let mut sink = VecSink::default();
        let store: Arc<dyn SpillStore> = Arc::new(SharedMemStore::new());
        let err = run_reduce_task(
            &job,
            0,
            &rxs[0],
            4, // would otherwise wait for 3 more map tasks
            store,
            MemoryBudget::unlimited(),
            &mut sink,
            &mut LocalTracer::disabled(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("aborted"));
    }

    #[test]
    fn retry_mutes_duplicate_snapshots() {
        // One snapshot due at 50% of maps; the fault fires after the
        // snapshot was taken, so the rebuilt attempt must not repeat it.
        let job = job_sortmerge(vec![0.5]);
        let (tx, rxs) = shuffle_fabric(1, 64);
        let n_maps = 4;
        for m in 0..n_maps {
            tx.send_segment(sorted_seg(m, &[("x", 1)]));
            tx.map_done(m, 0);
        }
        let mut sink = VecSink::default();
        let opts = ReduceRetryOpts {
            max_attempts: 3,
            // 4 segments × 1 record: fail once 3 records were absorbed —
            // after the 50% snapshot (2 maps committed).
            injector: FaultPlan::new().fail_reduce(0, 0, 3).into_injector(),
            ..Default::default()
        };
        let res = run_reduce_task_ft(
            &job,
            0,
            &rxs[0],
            n_maps,
            &mut fresh_resources(),
            &mut sink,
            &mut LocalTracer::disabled(),
            &opts,
        )
        .unwrap();
        assert_eq!(res.attempts, 2);
        let early = sink
            .emitted
            .iter()
            .filter(|(_, _, k)| *k == EmitKind::Early)
            .count();
        assert_eq!(early, 1, "snapshot emitted exactly once across attempts");
        let x_final = sink
            .emitted
            .iter()
            .find(|(k, _, kind)| k == b"x" && *kind == EmitKind::Final)
            .unwrap();
        assert_eq!(dec(&x_final.1), n_maps as u64);
    }
}
